"""Benchmark: plan-once/infer-many vs re-planning on every run.

The serving argument for :class:`InferenceSession`: ``prepare()`` runs table
ingest, the strategy plan, the shadow rewrite and the backend layout (Pregel
partitioning) once, so N repeated ``infer()`` calls skip all of it, while N
one-shot runs (a fresh session, ``prepare()`` and ``infer()`` each) pay it
every time — the scenario here feeds both paths the same warehouse
``(NodeTable, EdgeTable)`` pair, which every one-shot run re-ingests.

Two guarantees are asserted:

* **functional** — the session path plans exactly once for N executions while
  the one-shot path plans N times, and both produce bit-identical scores;
* **wall-clock** — the session path is not slower (within a 10% scheduler
  -noise allowance; typical local runs show a 1.05–1.2x win, printed below).
"""

import time

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.tables import graph_to_tables
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig

REPEATS = 8
TIMING_ROUNDS = 2   # best-of to damp scheduler noise on shared CI runners
NOISE_ALLOWANCE = 1.10


def _config():
    return InferenceConfig(backend="pregel", num_workers=8,
                           strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                                     shadow_nodes=True,
                                                     hub_threshold_override=40))


class _PlanCounter:
    """Delegating spy counting how often a session's backend re-plans."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.plan_calls = 0

    def default_cluster(self, num_workers):
        return self._inner.default_cluster(num_workers)

    def plan(self, model, graph, config):
        self.plan_calls += 1
        return self._inner.plan(model, graph, config)

    def execute(self, plan, metrics):
        return self._inner.execute(plan, metrics)


@pytest.fixture(scope="module")
def workload():
    graph = powerlaw_graph(num_nodes=3000, avg_degree=8.0, skew="out",
                           feature_dim=16, num_classes=4, seed=17)
    model = build_model("sage", 16, 32, 4, num_layers=2, seed=3)
    return graph_to_tables(graph), model


def _run_oneshot(tables, model):
    scores = None
    for _ in range(REPEATS):
        session = InferenceSession(model, _config())
        session.prepare(tables)
        scores = session.infer().scores
    return scores


def _run_session(tables, model):
    session = InferenceSession(model, _config())
    spy = _PlanCounter(session.backend)
    session.backend = spy
    session.prepare(tables)
    plan = session.plan
    results = session.infer_many(REPEATS)
    assert spy.plan_calls == 1, "reuse path must plan exactly once"
    assert session.plan is plan, "reuse path must not re-plan"
    return results[-1].scores


def _best_of(fn) -> tuple:
    """(best wall-clock over TIMING_ROUNDS, last return value)."""
    best = float("inf")
    value = None
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.mark.paper_artifact("session_reuse")
def test_bench_session_reuse(benchmark, workload):
    tables, model = workload

    # Warm both paths once (imports, allocator) before timing.
    _run_oneshot(tables, model)
    oneshot_seconds, oneshot_scores = _best_of(lambda: _run_oneshot(tables, model))

    benchmark.pedantic(lambda: _run_session(tables, model), rounds=1, iterations=1)
    session_seconds, session_scores = _best_of(lambda: _run_session(tables, model))

    np.testing.assert_array_equal(oneshot_scores, session_scores)
    speedup = oneshot_seconds / session_seconds
    print()
    print(f"{REPEATS}x fresh prepare(tables) + infer(): {oneshot_seconds:.3f}s "
          f"({REPEATS} ingests + {REPEATS} plans)")
    print(f"prepare(tables) + {REPEATS}x session.infer(): {session_seconds:.3f}s "
          f"(1 ingest + 1 plan)")
    print(f"plan-reuse speedup:                     {speedup:.2f}x")
    assert session_seconds < oneshot_seconds * NOISE_ALLOWANCE, (
        f"plan-once/infer-many ({session_seconds:.3f}s) should not lose to "
        f"{REPEATS}x one-shot runs ({oneshot_seconds:.3f}s)")
