"""Which entry points of which ``repro`` layer the traced run wraps, and how
the aggregated spans become per-layer metrics.

Every time metric is a span's **self** time (its duration minus the named
spans it encloses), so for one operation the reported times plus
``serving.overhead_ms`` plus ``trace.unattributed_ms`` add up to the
client-observed wall time.  ``.self_ms`` marks container layers, whose self
time is their own glue code; ``.ms`` marks work layers.

``ClusterLayout.group_by_owner`` is deliberately not wrapped: it is a
generator, so a wrapper would time only the creation of the generator object.
Its cost shows in its callers' self time.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from tracer import Table, Target


def _fingerprint_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    graph = args[0] if args else kwargs["graph"]
    return float(sum(array.nbytes for array in (graph.src, graph.dst,
                                                graph.node_features,
                                                graph.edge_features)
                     if array is not None))


def _frontier_share(args: tuple, kwargs: dict, result: Any) -> float:
    working_graph = args[0] if args else kwargs["working_graph"]
    return result[-1].size / max(working_graph.num_nodes, 1)


_P = "repro.inference.backends.pregel"
_M = "repro.inference.backends.mapreduce"

TARGETS: List[Target] = [
    # repro.inference.pool
    Target("repro.inference.pool", "SessionPool.prepare", "pool.prepare"),
    Target("repro.inference.pool", "SessionPool.apply_delta", "pool.apply_delta"),
    Target("repro.inference.pool", "SessionPool.infer", "pool.infer"),
    # repro.inference.session
    Target("repro.inference.session", "InferenceSession.prepare", "session"),
    Target("repro.inference.session", "InferenceSession.apply_delta", "session"),
    Target("repro.inference.session", "InferenceSession.flush_deltas", "session"),
    Target("repro.inference.session", "InferenceSession.infer", "session"),
    # repro.inference.delta
    Target("repro.inference.delta", "graph_fingerprint", "delta.fingerprint",
           _fingerprint_bytes),
    Target("repro.inference.delta", "apply_delta_to_graph", "delta.apply_to_graph"),
    Target("repro.inference.delta", "DeltaBuffer.add", "delta.buffer"),
    Target("repro.inference.delta", "DeltaBuffer.merge", "delta.buffer"),
    Target("repro.inference.delta", "expand_frontier", "delta.frontier",
           _frontier_share),
    # repro.inference.backends
    Target(_P, "PregelBackend.plan", "backend.plan"),
    Target(_P, "PregelBackend.execute", "backend.execute"),
    Target(_P, "PregelBackend.execute_incremental", "backend.execute_incremental"),
    Target(_P, "PregelBackend.apply_delta", "backend.apply_delta"),
    Target(_M, "MapReduceBackend.plan", "backend.plan"),
    Target(_M, "MapReduceBackend.execute", "backend.execute"),
    Target(_M, "MapReduceBackend.execute_incremental", "backend.execute_incremental"),
    Target(_M, "MapReduceBackend.apply_delta", "backend.apply_delta"),
    # repro.inference.shadow
    Target("repro.inference.shadow", "ShadowNodePlan.patch_edge_delta",
           "shadow.patch_edge_delta"),
    Target("repro.inference.shadow", "ShadowNodePlan.refresh_mirror_features",
           "shadow.refresh_mirrors"),
    Target("repro.inference.shadow", "ShadowNodePlan.expand_destinations",
           "shadow.expand_destinations"),
    # repro.pregel
    Target("repro.inference.pregel_adaptor", "GNNInferenceProgram.compute_partition",
           "pregel.compute"),
    Target("repro.pregel.combiners", "MessageCombiner.combine_block", "pregel.combine"),
    Target("repro.pregel.engine", "PregelPartitionHarness.step", "pregel.route"),
    # repro.batch
    Target("repro.batch.storage", "serialized_size", "batch.accounting"),
    Target("repro.batch.mapreduce", "MapReduceEngine.run", "batch.engine"),
    Target("repro.batch.mapreduce", "_run_map_task", "batch.map"),
    Target("repro.batch.mapreduce", "_run_reduce_task", "batch.reduce"),
    # repro.cluster
    Target("repro.cluster.cost_model", "CostModel.summarize", "cluster.cost_summarize"),
]

#: metric suffix -> span name whose per-op self time it reports.
_SELF_TIMES = {
    "pool.apply_delta.self_ms": "pool.apply_delta",
    "pool.infer.self_ms": "pool.infer",
    "session.self_ms": "session",
    "delta.fingerprint.ms": "delta.fingerprint",
    "delta.apply_to_graph.ms": "delta.apply_to_graph",
    "delta.buffer.ms": "delta.buffer",
    "delta.frontier.ms": "delta.frontier",
    "backend.execute.self_ms": "backend.execute",
    "backend.execute_incremental.self_ms": "backend.execute_incremental",
    "backend.apply_delta.self_ms": "backend.apply_delta",
    "shadow.patch_edge_delta.ms": "shadow.patch_edge_delta",
    "shadow.refresh_mirrors.ms": "shadow.refresh_mirrors",
    "shadow.expand_destinations.ms": "shadow.expand_destinations",
    "pregel.compute.ms": "pregel.compute",
    "pregel.combine.ms": "pregel.combine",
    "pregel.route.self_ms": "pregel.route",
    "batch.accounting.ms": "batch.accounting",
    "batch.engine.self_ms": "batch.engine",
    "batch.map.ms": "batch.map",
    "batch.reduce.ms": "batch.reduce",
    "cluster.cost_summarize.ms": "cluster.cost_summarize",
}

#: Counts that must repeat exactly for a fixed seed (taken over the first
#: ops of each class, so the number of ops a run manages does not move them).
DETERMINISTIC = ("delta.fingerprint.calls", "delta.fingerprint.mb",
                 "delta.frontier_share", "batch.accounting.calls",
                 "pregel.messages", "pregel.bytes_mb", "pregel.straggler_ratio",
                 "batch.records", "cluster.simulated_wall_s")

#: Per-infer metrics of the full workloads (reported without a prefix).
INFER_METRICS = (
    "session.self_ms", "backend.execute.self_ms",
    "shadow.expand_destinations.ms",
    "pregel.compute.ms", "pregel.combine.ms", "pregel.route.self_ms",
    "pregel.messages", "pregel.bytes_mb", "pregel.straggler_ratio",
    "batch.accounting.ms", "batch.accounting.calls", "batch.engine.self_ms",
    "batch.map.ms", "batch.reduce.ms", "batch.records",
    "cluster.cost_summarize.ms", "cluster.simulated_wall_s",
    "delta.fingerprint.calls", "delta.fingerprint.ms", "delta.fingerprint.mb",
    "trace.unattributed_ms",
)

#: Per-tick metrics of serve_drift (reported as ``feature.*`` and ``edge.*``).
TICK_METRICS = (
    "serving.overhead_ms",
    "pool.apply_delta.self_ms", "pool.infer.self_ms", "session.self_ms",
    "delta.fingerprint.calls", "delta.fingerprint.ms", "delta.fingerprint.mb",
    "delta.apply_to_graph.ms", "delta.buffer.ms", "delta.frontier.ms",
    "delta.frontier_share",
    "backend.execute_incremental.self_ms", "backend.apply_delta.self_ms",
    "shadow.patch_edge_delta.ms", "shadow.refresh_mirrors.ms",
    "shadow.expand_destinations.ms",
    "pregel.compute.ms", "pregel.combine.ms", "pregel.route.self_ms",
    "pregel.messages", "pregel.bytes_mb", "pregel.straggler_ratio",
    "cluster.cost_summarize.ms", "cluster.simulated_wall_s",
    "trace.unattributed_ms",
)

#: Metrics of the whole run rather than of one op.
RUN_METRICS = ("backend.plan.ms", "pool.hit_rate", "session.replans",
               "serving.rejections", "trace.overhead_ratio")

#: op class -> (metric-name prefix, metric suffixes).
CLASSES = {"infer": ("", INFER_METRICS),
           "feature": ("feature.", TICK_METRICS),
           "edge": ("edge.", TICK_METRICS)}


def metric_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_rate", "_ratio")):
        return "ratio"
    return "count"


def all_metric_names() -> List[str]:
    names = [prefix + suffix for prefix, suffixes in CLASSES.values()
             for suffix in suffixes]
    return names + list(RUN_METRICS)


def result_counts(result: Any, backend: str) -> Dict[str, float]:
    """Deterministic counts one ``InferenceResult`` carries."""
    metrics = result.metrics
    counts = {"cluster.simulated_wall_s": float(result.cost.wall_clock_seconds)}
    if backend == "pregel":
        critical = balanced = 0.0
        for phase in metrics.phases():
            units = [m.compute_units for m in metrics.instances(phase)]
            if units and sum(units) > 0:
                critical += max(units)
                balanced += sum(units) / len(units)
        counts["pregel.messages"] = metrics.total("records_out")
        counts["pregel.bytes_mb"] = result.cost.total_bytes / 1e6
        counts["pregel.straggler_ratio"] = critical / balanced if balanced else 0.0
    else:
        counts["batch.records"] = metrics.total("records_out")
    return counts


def spans_by_op(table: Table) -> Dict[Any, Dict[str, List[float]]]:
    """Regroup the tracer table as ``op -> span name -> accumulators``."""
    by_op: Dict[Any, Dict[str, List[float]]] = {}
    for (op, name), acc in table.items():
        by_op.setdefault(op, {})[name] = acc
    return by_op


def op_metrics(spans: Dict[str, List[float]], klass: str, wall_s: float,
               counts: Dict[str, float]) -> Dict[str, float]:
    """The per-op metrics of class ``klass`` (unprefixed) for one op.

    ``spans`` are the op's accumulators (:func:`spans_by_op`), ``counts`` its
    :func:`result_counts`.
    """
    suffixes = CLASSES[klass][1]

    def acc(name: str, index: int) -> float:
        return float(spans[name][index]) if name in spans else 0.0

    out = {metric: acc(span, 1) * 1e3 for metric, span in _SELF_TIMES.items()
           if metric in suffixes}
    out["delta.fingerprint.calls"] = acc("delta.fingerprint", 2)
    out["delta.fingerprint.mb"] = acc("delta.fingerprint", 3) / 1e6
    out["batch.accounting.calls"] = acc("batch.accounting", 2)
    frontier_calls = acc("delta.frontier", 2)
    out["delta.frontier_share"] = (acc("delta.frontier", 3) / frontier_calls
                                   if frontier_calls else 0.0)
    out.update(counts)
    overhead_ms = 0.0
    if "serving.overhead_ms" in suffixes:
        overhead_ms = (wall_s - acc("pool.apply_delta", 0) - acc("pool.infer", 0)) * 1e3
        out["serving.overhead_ms"] = overhead_ms
    # Self times of spans outside this class's reported metrics stay in the
    # remainder, so a layer that starts running where it did not shows here.
    reported = {span for metric, span in _SELF_TIMES.items() if metric in suffixes}
    out["trace.unattributed_ms"] = (wall_s * 1e3 - overhead_ms
                                    - sum(acc(span, 1) * 1e3 for span in reported))
    return {suffix: out.get(suffix, 0.0) for suffix in suffixes}


def class_metrics(klass: str, ops: Sequence[Dict[str, float]],
                  count_ops: int) -> Dict[str, float]:
    """Per-op medians of one op class, with the class's metric-name prefix.

    Times are medians over every op; counts are medians over the first
    ``count_ops`` ops, so they repeat exactly for a fixed seed.
    """
    prefix, suffixes = CLASSES[klass]
    out: Dict[str, float] = {}
    for suffix in suffixes:
        pool = ops[:count_ops] if suffix in DETERMINISTIC else ops
        values = [op[suffix] for op in pool]
        out[prefix + suffix] = statistics.median(values) if values else 0.0
    return out


def setup_plan_ms(by_op: Dict[Any, Dict[str, List[float]]]) -> float:
    """Median over the traced set-ups of the mean ``backend.plan`` call.

    Set-up ops are keyed ``("setup", n)`` (:func:`spans_by_op` regrouping).
    """
    per_setup: List[float] = []
    for op, spans in by_op.items():
        acc = spans.get("backend.plan")
        if isinstance(op, tuple) and op[0] == "setup" and acc is not None and acc[2]:
            per_setup.append(acc[0] * 1e3 / acc[2])
    return statistics.median(per_setup) if per_setup else 0.0


def overhead_ratio(traced_s: Sequence[float], untraced_s: Sequence[float]) -> float:
    """Tracing overhead: median traced op over median untraced op."""
    if not traced_s or not untraced_s:
        return 0.0
    return statistics.median(traced_s) / statistics.median(untraced_s)
