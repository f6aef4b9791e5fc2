"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_drift --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end metric
the median, the quartiles and the spread — the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median — next to the metric's bound.  ``--trace 1`` does the same for the
per-layer metrics, which have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2].split(" ", 2)[2])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        values_line = " ".join(f"{name}={metric['value']:.5g}"
                               for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} {values_line}\n"
              f"  {json.dumps(result['report'])}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0], 0, series[0]))
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound else "  <-- over bound"
        print(f"{name:45s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
