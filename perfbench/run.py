"""Run one benchmark workload; print its result as one JSON object, last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload full_pregel --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` alternates ops with every layer's entry points wrapped and ops
without, and reports the per-layer metrics.  Lines before the last start with
``#`` and record the environment and the per-workload figures.  The exit code
is 0 only when the outputs passed the workload's oracle; a broken load-shape
pin (executor, BLAS threads) exits 3 without a result.

The process re-executes itself once with ``PINNED_ENV`` set, because glibc
reads ``MALLOC_ARENA_MAX`` only at process start.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
#: One thread of BLAS (checked after numpy loads), and one glibc malloc
#: arena: with an arena per thread, the memory the gateway's worker threads
#: freed stayed resident differently from run to run, and ``peak_rss_mb`` on
#: serve_drift spread 0.27 over five seeds (0.01 with one arena, at the same
#: tick rate).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MALLOC_ARENA_MAX": "1"}
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")

END_TO_END_UNITS = {"setup_s": "s", "op_ref_ms": "ms", "peak_rss_mb": "MB"}


def _openblas_paths() -> list:
    """Loaded OpenBLAS libraries first (``/proc/self/maps``), then numpy's."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in path and ".so" in path and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    import numpy
    bundled = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    return paths + sorted(glob.glob(os.path.join(bundled, "*openblas*")))


def blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports (None: not OpenBLAS)."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_version() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import workloads
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(),
        "blas_threads": blas_threads(),
        "malloc_arena_max": os.environ.get("MALLOC_ARENA_MAX"),
        "executor": workloads.EXECUTOR,
        "gateway_threads": workloads.GATEWAY_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("full_pregel", "full_mapreduce", "serve_drift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_line(outcome: Any, trace: bool) -> str:
    import layers
    if trace:
        metrics = {name: {"value": outcome.per_layer[name],
                          "unit": layers.metric_unit(name)}
                   for name in layers.all_metric_names()}
    else:
        metrics = {name: {"value": outcome.end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    payload = {"correct": outcome.correct, "attempted": outcome.attempted,
               "failed": outcome.failed, "metrics": metrics}
    return json.dumps(payload)


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    if env["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS pin did not take: {env['blas_threads']} threads",
              file=sys.stderr)
        return 3
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                     bool(args.trace))
    except workloads.PinError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(f"# {args.workload} " + json.dumps(outcome.report), flush=True)
    for problem in outcome.problems:
        print(f"perfbench: ORACLE FAILED: {problem}", file=sys.stderr)
    print(result_line(outcome, bool(args.trace)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
