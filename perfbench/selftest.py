"""Self-tests of the benchmark's own machinery, on tiny inputs (~1 minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that

* the tracer wraps every target — including names imported into other
  modules — and restores every patched attribute afterwards;
* each workload's oracle passes on honest outputs and fails when one score
  is corrupted, and ``serve_drift``'s fails when ticks re-prepare their
  sessions;
* the deterministic per-layer counts repeat exactly for a fixed seed;
* the reference clock reads a region of N kernel runs as about N reference
  kernel times, and notices work left running beside its kernel.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 0.5


def tiny_shape() -> Any:
    import workloads
    return workloads.Shape(
        pregel_nodes=2_000, mapreduce_nodes=600, tenant_nodes=2_000,
        hub_threshold=20, zone_size=100, zone_seed_edges=300, zone_source_cap=12,
        feature_rows=20, edge_swap=20, serve_setups=1, warmup_ticks=1,
        count_infers=2, count_ticks=4)


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def test_tracer_restores_every_patch() -> None:
    import layers
    from tracer import Tracer
    import repro.cluster.layout as layout
    import repro.inference.delta as delta
    import repro.inference.pool as pool
    import repro.inference.pregel_adaptor as pregel_adaptor
    import repro.inference.session as session

    originals = {(module, "graph_fingerprint"): delta.graph_fingerprint
                 for module in (delta, pool, session)}
    originals[(pregel_adaptor, "expand_frontier")] = delta.expand_frontier
    group_by_owner = layout.ClusterLayout.__dict__["group_by_owner"]

    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        patched = tracer.patched()
        check(len(patched) >= len(layers.TARGETS), "fewer patches than targets")
        for (owner, attr), original in originals.items():
            check(getattr(owner, attr) is not original,
                  f"{owner.__name__}.{attr} was not wrapped")
        check(layout.ClusterLayout.__dict__["group_by_owner"] is group_by_owner,
              "the group_by_owner generator must not be wrapped")
    finally:
        tracer.uninstall()
    check(not tracer.patched(), "patches left after uninstall")
    for owner, attr, original in patched:
        check(owner.__dict__[attr] is original,
              f"{getattr(owner, '__name__', owner)}.{attr} was not restored")
    for (owner, attr), original in originals.items():
        check(getattr(owner, attr) is original,
              f"{owner.__name__}.{attr} was not restored")


@contextmanager
def corrupt(owner: Any, attr: str) -> Iterator[None]:
    """Make ``owner.attr`` return results whose first score is nudged."""
    original = owner.__dict__[attr]

    def corrupted(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        result.scores = result.scores.copy()
        result.scores[0, 0] += 1e-6
        return result

    setattr(owner, attr, corrupted)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def test_oracles_catch_a_corrupted_score() -> None:
    import workloads
    from repro.inference.pool import SessionPool
    from repro.inference.session import InferenceSession

    # The full workloads compare the session's scores with model.forward;
    # serve_drift compares the gateway's (pooled) scores with a fresh session.
    cases = [("full_pregel", InferenceSession), ("full_mapreduce", InferenceSession),
             ("serve_drift", SessionPool)]
    for name, owner in cases:
        run = workloads.WORKLOADS[name]
        honest = run(1, SECONDS, False, tiny_shape())
        check(honest.correct, f"{name}: honest run failed its oracle: "
                              f"{honest.problems}")
        check(honest.failed == 0 and honest.attempted > 0,
              f"{name}: {honest.failed}/{honest.attempted} ops failed")
        with corrupt(owner, "infer"):
            bad = run(1, SECONDS, False, tiny_shape())
        check(not bad.correct, f"{name}: a corrupted score passed the oracle")


def test_serve_oracle_catches_a_re_prepare() -> None:
    import workloads
    from repro.serving import ServingGateway

    # Dropping the pooled sessions before each incremental infer makes every
    # tick re-prepare: the scores stay right, but the pool misses.
    original = ServingGateway.__dict__["infer"]

    async def re_preparing(self: Any, tenant_id: str, mode: str = "full",
                           **kwargs: Any) -> Any:
        if mode == "incremental":
            self.pool.clear()
        return await original(self, tenant_id, mode=mode, **kwargs)

    ServingGateway.infer = re_preparing
    try:
        bad = workloads.run_serve(1, SECONDS, False, tiny_shape())
    finally:
        ServingGateway.infer = original
    check(not bad.correct, "serve_drift: ticks that re-prepared passed the oracle")
    check(any("pool miss" in problem for problem in bad.problems),
          f"serve_drift: the re-prepares were not reported: {bad.problems}")


def _deterministic(per_layer: dict) -> dict:
    import layers
    return {name: value for name, value in per_layer.items()
            if name.split(".", 1)[-1] in layers.DETERMINISTIC
            or name in layers.DETERMINISTIC}


def test_counts_repeat_for_a_fixed_seed() -> None:
    import layers
    import workloads
    for name, run in workloads.WORKLOADS.items():
        # Different run lengths: the counts must not depend on how many ops
        # a run manages.
        first = run(3, SECONDS, True, tiny_shape())
        second = run(3, 2 * SECONDS, True, tiny_shape())
        check(first.correct and second.correct, f"{name}: traced run failed")
        counts = _deterministic(first.per_layer)
        check(any(counts.values()), f"{name}: no deterministic count recorded")
        check(counts == _deterministic(second.per_layer),
              f"{name}: counts differ between runs of one seed: "
              f"{counts} vs {_deterministic(second.per_layer)}")
        check(set(first.per_layer) == set(layers.all_metric_names()),
              f"{name}: traced run does not report every per-layer metric")


def test_ref_clock() -> None:
    import numpy as np
    from refclock import REF_KERNEL_S, RefClock

    clock = RefClock()
    regions = []
    for _ in range(8):
        clock.start()
        for _ in range(4):
            clock._kernel()
        regions.append(clock.stop())
    per_run = [clock.at_ref(wall, mark) / 4 for wall, mark in regions]
    median = sorted(per_run)[len(per_run) // 2]
    check(abs(median / REF_KERNEL_S - 1) < 0.35,
          f"a kernel run read {median * 1e3:.2f} ms at the reference speed, "
          f"not ~{REF_KERNEL_S * 1e3:.0f} ms")
    check(clock.alone(), "the kernel ran alone but was reported as sharing")

    # A thread left working (numpy releases the GIL) beside every kernel run.
    stop = threading.Event()

    def busy() -> None:
        block = np.random.default_rng(0).normal(size=(300, 300))
        while not stop.is_set():
            block @ block

    worker = threading.Thread(target=busy)
    worker.start()
    try:
        shared = RefClock()
        for _ in range(8):
            shared.kernel()
    finally:
        stop.set()
        worker.join()
    check(not shared.alone(), "work beside the kernel went unnoticed")


TESTS: "list[Callable[[], None]]" = [
    test_tracer_restores_every_patch,
    test_oracles_catch_a_corrupted_score,
    test_serve_oracle_catches_a_re_prepare,
    test_counts_repeat_for_a_fixed_seed,
    test_ref_clock,
]


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    for test in TESTS:
        try:
            test()
        except CheckFailed as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
