"""The benchmark's three workloads, their timed loops and their oracles.

* ``full_pregel`` — back-to-back ``session.infer()`` on the pregel backend:
  the paper's headline full-graph job.  No delta, pool or serving code runs,
  so a serving-path change must predict *no change* here.
* ``full_mapreduce`` — the same job on the mapreduce backend, on a smaller
  graph (this backend is ~25x slower per node).  The only workload that runs
  ``repro.batch``; shared-code changes that help pregel but cost mapreduce
  show up here.
* ``serve_drift`` — one closed-loop client driving ``ServingGateway`` over a
  ``SessionPool`` of two tenants.  Ticks alternate between a ``features``
  tenant (feature-row deltas: row scatter) and an ``edges`` tenant (balanced
  edge swaps inside a low-degree hot zone: topology splice and regroup, with
  the hub set held), each tick a ``submit_delta`` then an incremental infer.

Every graph is an out-skewed ``powerlaw_graph``; the model is a 2-layer GCN;
every config runs 8 simulated workers with partial-gather, broadcast and
shadow-nodes on, on the serial executor.  The program only ever sees the
generated graphs and deltas; all randomness comes from the ``seed`` argument.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.gnn.model import GNNModel, build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import (
    GatewayConfig,
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StrategyConfig,
)
from repro.serving import ServingGateway
from repro.tensor.tensor import Tensor, no_grad

import layers
from refclock import RefClock
from tracer import Tracer

FEATURE_DIM = 32
HIDDEN_DIM = 64
NUM_CLASSES = 8
NUM_LAYERS = 2
NUM_WORKERS = 8
AVG_DEGREE = 4.0
EXECUTOR = "serial"
#: Gateway worker threads: never more threads of load than cores.
GATEWAY_THREADS = max(1, min(2, os.cpu_count() or 1))
#: Max |distributed - single-machine| score difference the oracle accepts.
FULL_TOLERANCE = 1e-9
#: SessionPool lookups per serve_drift tick: one for the delta, one for the infer.
LOOKUPS_PER_TICK = 2


@dataclass(frozen=True)
class Shape:
    """Sizes of every workload (the self-test runs a much smaller one)."""

    pregel_nodes: int = 30_000
    mapreduce_nodes: int = 2_500
    tenant_nodes: int = 20_000
    #: Pinned for every workload: ~1 hub per 150 nodes on these graphs.
    hub_threshold: int = 64
    #: serve_drift hot zone: low-degree nodes whose out-edges churn.
    zone_size: int = 400
    zone_max_degree: int = 3
    zone_seed_edges: int = 1_200
    #: Churn sources stay below this out-degree, far under the hub bar.
    zone_source_cap: int = 40
    feature_rows: int = 60
    #: Edges added (and as many removed) per edge tick.
    edge_swap: int = 100
    #: Timed set-ups (see ``run_full``/``_serve``): prepares after each full
    #: infer, and serve_drift set-ups of both tenants before the ticks and
    #: as many again after them.
    pregel_setups_per_infer: int = 1
    mapreduce_setups_per_infer: int = 4
    serve_setups: int = 3
    warmup_ticks: int = 2
    #: Deterministic counts are medians over the first ops of each class.
    count_infers: int = 3
    count_ticks: int = 10


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Per-workload figures printed beside the result (medians, tick split).
    report: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(problem)


class PinError(RuntimeError):
    """The load shape the benchmark pins (executor, BLAS threads) did not take."""


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def make_config(backend: str, shape: Shape) -> InferenceConfig:
    return InferenceConfig(
        backend=backend, num_workers=NUM_WORKERS, executor=EXECUTOR,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  shadow_nodes=True,
                                  hub_threshold_override=shape.hub_threshold))


def make_model(seed: int) -> GNNModel:
    return build_model("gcn", FEATURE_DIM, HIDDEN_DIM, NUM_CLASSES,
                       num_layers=NUM_LAYERS, seed=seed)


def make_graph(num_nodes: int, seed: int) -> Graph:
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=AVG_DEGREE, skew="out",
                          feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES,
                          seed=seed)


def input_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def reference_scores(model: GNNModel, graph: Graph) -> np.ndarray:
    """Single-machine full-graph forward pass (the full workloads' oracle)."""
    model.eval()
    with no_grad():
        return model.forward(Tensor(graph.node_features), graph.src, graph.dst,
                             num_nodes=graph.num_nodes).data


def executor_name(session: InferenceSession) -> Optional[str]:
    """Name of the executor the session's plan actually runs on."""
    for value in session.plan.state.values():
        if isinstance(value, Executor):
            return value.name
        name = getattr(value, "executor_name", None)
        if name is not None:
            return str(name)
    return None


def require_serial(session: InferenceSession) -> None:
    name = executor_name(session)
    if name != EXECUTOR:
        raise PinError(f"executor pin did not take: plan runs on {name!r}, "
                       f"expected {EXECUTOR!r}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def is_traced(i: int, group: int) -> bool:
    """Traced runs alternate ``group`` traced ops with ``group`` untraced
    ones, so both halves see the same machine speed."""
    return (i // group) % 2 == 0


def _check_clock(out: Outcome, clock: RefClock) -> None:
    """Record the reference kernel's speed; fail the run if the kernel did
    not have the process to itself (see ``refclock``)."""
    out.report["ref_kernel_ms"] = clock.median_kernel_ms()
    out.report["ref_kernels"] = len(clock.kernel_s)
    out.check(clock.alone(), "the reference kernel shared the process with "
                             "other work: rescaled times would read low")


# --------------------------------------------------------------------------- #
# full_pregel / full_mapreduce
# --------------------------------------------------------------------------- #
def run_full(backend: str, seed: int, seconds: float, trace: bool,
             shape: Shape = Shape()) -> Outcome:
    """Back-to-back ``infer()`` for ``seconds`` of infer time.

    Set-up is timed as blocks of ``*_setups_per_infer`` ``prepare()`` calls
    on scratch sessions, one block after every infer, so the set-up figure
    samples the same stretches of machine time as the infers.  Every infer
    and every block is timed on a ``RefClock``; ``setup_s`` is the median
    block's time per prepare and ``op_ref_ms`` the median infer's, both at
    the reference speed.
    """
    num_nodes = shape.pregel_nodes if backend == "pregel" else shape.mapreduce_nodes
    setups_per_infer = (shape.pregel_setups_per_infer if backend == "pregel"
                        else shape.mapreduce_setups_per_infer)
    graph_seed, model_seed = input_seeds(seed, 2)
    graph = make_graph(num_nodes, graph_seed)
    model = make_model(model_seed)
    config = make_config(backend, shape)
    out = Outcome()
    tracer = Tracer(layers.TARGETS) if trace else None
    clock = RefClock()
    # (wall seconds per prepare, clock mark) of every set-up block.
    setup_s: List[Tuple[float, int]] = []

    def prepare(count: int) -> InferenceSession:
        # Free the previous scratch plans first, so their garbage is not
        # collected inside the timed block.
        gc.collect()
        fresh = [InferenceSession(model, config) for _ in range(count)]
        if tracer is not None:
            tracer.op = ("setup", len(setup_s))
        clock.start()
        for session in fresh:
            session.prepare(graph)
        wall, mark = clock.stop()
        setup_s.append((wall / count, mark))
        return fresh[-1]

    # (op id, traced, wall, clock mark, counts) of every successful infer.
    done: List[Tuple[int, bool, float, int, Any]] = []
    last: Any = None
    failed = 0
    try:
        if tracer is not None:
            tracer.install()
        session = prepare(1)
        if tracer is not None:
            tracer.uninstall()
        session.infer()                      # lazy engine set-up, untimed
        require_serial(session)
        gc.collect()

        min_ops = 2 * shape.count_infers if trace else 0
        infer_s = 0.0
        i = 0
        while infer_s < seconds or i < min_ops:
            traced = tracer is not None and is_traced(i, 1)
            if traced:
                tracer.op = i
                tracer.install()
            try:
                clock.start()
                try:
                    result = session.infer()
                except Exception:
                    clock.stop()
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                else:
                    wall, mark = clock.stop()
                    infer_s += wall
                    # Only the last result is held: keeping every score
                    # matrix would inflate peak_rss_mb.
                    last = result
                    done.append((i, traced, wall, mark,
                                 layers.result_counts(result, backend)
                                 if traced else None))
                prepare(setups_per_infer)
            finally:
                if traced:
                    tracer.uninstall()
            i += 1
        rss = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()

    out.attempted, out.failed = len(done) + failed, failed
    lat = [wall for _, traced, wall, _, _ in done if not traced]
    ref_lat = [clock.at_ref(wall, mark)
               for _, traced, wall, mark, _ in done if not traced]
    if tracer is not None:
        traced_ops = [(op, wall, counts)
                      for op, traced, wall, _, counts in done if traced]
        by_op = layers.spans_by_op(tracer.table())
        ops = [layers.op_metrics(by_op.get(op, {}), "infer", wall, counts)
               for op, wall, counts in traced_ops]
        out.per_layer = {name: 0.0 for name in layers.all_metric_names()}
        out.per_layer.update(layers.class_metrics("infer", ops, shape.count_infers))
        out.per_layer["backend.plan.ms"] = layers.setup_plan_ms(by_op)
        out.per_layer["trace.overhead_ratio"] = layers.overhead_ratio(
            [wall for _, wall, _ in traced_ops], lat)
    out.end_to_end = {
        "setup_s": percentile([clock.at_ref(wall, mark)
                               for wall, mark in setup_s], 50),
        "op_ref_ms": percentile(ref_lat, 50) * 1e3,
        "peak_rss_mb": rss,
    }
    ops_per_s = len(lat) / sum(lat) if lat else 0.0
    out.report = {
        "nodes": graph.num_nodes, "edges": graph.num_edges,
        "hubs": int((graph.out_degrees() >= shape.hub_threshold).sum()),
        "infers": len(lat),
        "setups": setups_per_infer * (len(setup_s) - 1) + 1,
        "infer_p50_ms": percentile(lat, 50) * 1e3,
        "infer_p90_ms": percentile(lat, 90) * 1e3,
        "nodes_per_s": ops_per_s * graph.num_nodes,
        "setup_wall_s": percentile([wall for wall, _ in setup_s], 50),
        "error_rate": out.failed / max(out.attempted, 1),
    }
    _check_clock(out, clock)

    # Oracle: the distributed run must match the single-machine forward pass.
    out.check(last is not None, "no successful infer to check")
    if last is not None:
        expected = reference_scores(model, graph)
        diff = float(np.abs(last.scores - expected).max())
        out.report["max_abs_diff"] = diff
        out.check(diff <= FULL_TOLERANCE,
                  f"scores differ from model.forward by {diff:.3g} "
                  f"(> {FULL_TOLERANCE:g})")
    return out


# --------------------------------------------------------------------------- #
# serve_drift
# --------------------------------------------------------------------------- #
@dataclass
class _Tenant:
    name: str
    klass: str
    graph: Graph
    rng: np.random.Generator
    zone: Optional[np.ndarray] = None
    zone_mask: Optional[np.ndarray] = None
    last: Any = None


def _with_hot_zone(graph: Graph, rng: np.random.Generator,
                   shape: Shape) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """Pick the hot zone and seed it with zone-internal edges (so the very
    first swap has edges to remove); returns the graph the tenant hands in."""
    quiet = np.nonzero(graph.out_degrees() <= shape.zone_max_degree)[0]
    zone = np.sort(rng.choice(quiet, size=shape.zone_size, replace=False))
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[zone] = True
    src = np.concatenate([graph.src, rng.choice(zone, size=shape.zone_seed_edges)])
    dst = np.concatenate([graph.dst, rng.choice(zone, size=shape.zone_seed_edges)])
    seeded = Graph(src, dst, node_features=graph.node_features,
                   labels=graph.labels, num_nodes=graph.num_nodes)
    return seeded, zone, mask


def _next_delta(tenant: _Tenant, shape: Shape) -> GraphDelta:
    graph, rng = tenant.graph, tenant.rng
    if tenant.klass == "feature":
        ids = rng.choice(graph.num_nodes, size=shape.feature_rows, replace=False)
        return GraphDelta(node_ids=ids,
                          node_features=rng.normal(size=(ids.size, FEATURE_DIM)))
    # Balanced swap inside the hot zone: as many zone-internal edges removed
    # as added, every source far below the hub threshold, so the hub set and
    # every hub's mirror-group count hold and the delta lands in place.
    degrees = np.bincount(graph.src, minlength=graph.num_nodes)
    sources = tenant.zone[degrees[tenant.zone] < shape.zone_source_cap]
    internal = np.nonzero(tenant.zone_mask[graph.src] & tenant.zone_mask[graph.dst])[0]
    return GraphDelta(added_src=rng.choice(sources, size=shape.edge_swap),
                      added_dst=rng.choice(tenant.zone, size=shape.edge_swap),
                      removed_edge_ids=rng.choice(internal, size=shape.edge_swap,
                                                  replace=False))


def _arming_delta(graph: Graph) -> GraphDelta:
    """Rewrites one feature row with its own value: the content is unchanged,
    but the session has now seen a delta and arms its incremental cache."""
    return GraphDelta(node_ids=np.array([0]),
                      node_features=graph.node_features[:1].copy())


async def _setup_tenant(gateway: ServingGateway, tenant: _Tenant,
                        clock: RefClock) -> Tuple[float, int]:
    """One registered tenant's set-up, timed: warm, the priming full run and
    arming the incremental cache.  Returns its wall seconds and clock mark."""
    clock.start()
    await gateway.warm(tenant.name)
    await gateway.infer(tenant.name)
    await gateway.submit_delta(tenant.name, _arming_delta(tenant.graph))
    await gateway.infer(tenant.name, mode="incremental")
    return clock.stop()


async def _serve(seed: int, seconds: float, trace: bool, shape: Shape) -> Outcome:
    """Closed-loop ticks for ``seconds`` of tick time.

    Set-up is timed per tenant, ``serve_setups`` times before the ticks and
    as many times after them (each time after evicting the tenant's session,
    untimed), after one untimed warm-up set-up, so the set-up figure samples
    two stretches of machine time half a minute apart.  The set-ups after the ticks come after
    ``peak_rss_mb`` is sampled: set-ups between the ticks left the heap
    fragmented differently run by run and made the peak resident set
    spread.  Every set-up and every tick is timed on a ``RefClock``;
    ``setup_s`` is the sum over the tenants of each tenant's median set-up
    time, and ``op_ref_ms`` the mean over the tenants of each tenant's
    median tick, both at the reference speed.
    """
    feature_seed, edge_seed, model_seed, stream_seed = input_seeds(seed, 4)
    model = make_model(model_seed)
    config = make_config("pregel", shape)
    feature_rng, edge_rng = (np.random.default_rng(s)
                             for s in input_seeds(stream_seed, 2))
    edge_graph, zone, zone_mask = _with_hot_zone(
        make_graph(shape.tenant_nodes, edge_seed), edge_rng, shape)
    tenants = [
        _Tenant("features", "feature", make_graph(shape.tenant_nodes, feature_seed),
                feature_rng),
        _Tenant("edges", "edge", edge_graph, edge_rng, zone, zone_mask),
    ]
    out = Outcome()
    tracer = Tracer(layers.TARGETS) if trace else None
    clock = RefClock()
    # (wall seconds, clock mark) of every set-up, per tenant.
    setup_s: Dict[str, List[Tuple[float, int]]] = {tenant.name: []
                                                   for tenant in tenants}

    async def tick(tenant: _Tenant) -> Tuple[float, int, Any]:
        delta = _next_delta(tenant, shape)
        clock.start()
        try:
            await gateway.submit_delta(tenant.name, delta)
            result = await gateway.infer(tenant.name, mode="incremental")
        finally:
            wall, mark = clock.stop()
        # Only each tenant's last result is held; keeping every score matrix
        # would inflate peak_rss_mb.
        tenant.last = result
        return wall, mark, result

    # (op id, tenant index, traced, wall, clock mark, counts) of every
    # successful tick.
    done: List[Tuple[int, int, bool, float, int, Any]] = []
    failed = 0
    pool = SessionPool(model, config, capacity=len(tenants))
    gateway = ServingGateway(pool, GatewayConfig(
        max_concurrent_ticks=GATEWAY_THREADS))
    for tenant in tenants:
        gateway.register(tenant.name, tenant.graph)

    async def set_up(rep: int, record: bool = True) -> None:
        for tenant in tenants:
            pool.evict(tenant.graph)
            gc.collect()
            if tracer is not None:
                tracer.op = ("setup", rep)
            timed = await _setup_tenant(gateway, tenant, clock)
            if record:
                setup_s[tenant.name].append(timed)

    try:
        # A first, untimed set-up of each tenant takes the process's first
        # calls and first page faults (up to 1.5x a later set-up).
        await set_up(-1, record=False)
        if tracer is not None:
            tracer.install()
        for rep in range(shape.serve_setups):
            await set_up(rep)
        if tracer is not None:
            tracer.uninstall()
        for session in pool.sessions():
            require_serial(session)
        lookups_before = pool.stats
        served = 0
        for _ in range(shape.warmup_ticks):
            for tenant in tenants:
                await tick(tenant)
                served += 1
        gc.collect()

        # Traced runs trace two ticks (one per tenant), then leave two
        # untraced, and so on.
        min_ticks = 4 * shape.count_ticks if trace else 0
        tick_s = 0.0
        i = 0
        while tick_s < seconds or i < min_ticks:
            which = i % 2
            traced = tracer is not None and is_traced(i, 2)
            if traced:
                tracer.op = i
                tracer.install()
            try:
                try:
                    wall, mark, result = await tick(tenants[which])
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                else:
                    tick_s += wall
                    served += 1
                    done.append((i, which, traced, wall, mark,
                                 layers.result_counts(result, "pregel")
                                 if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
            i += 1
        rss = peak_rss_mb()
        stats = pool.stats
        replans = sum(session.num_replans for session in pool.sessions())
        rejections = gateway.snapshot().rejections
        for rep in range(shape.serve_setups, 2 * shape.serve_setups):
            await set_up(rep)
    finally:
        if tracer is not None:
            tracer.uninstall()
        await gateway.aclose()

    out.attempted, out.failed = len(done) + failed, failed
    untraced = [(which, wall, clock.at_ref(wall, mark))
                for _, which, traced, wall, mark, _ in done if not traced]
    walls = [wall for _, wall, _ in untraced]
    classes = ("feature", "edge")
    by_class = {klass: [wall for which, wall, _ in untraced if which == index]
                for index, klass in enumerate(classes)}
    ref_by_class = {klass: [ref for which, _, ref in untraced if which == index]
                    for index, klass in enumerate(classes)}
    ops_per_s = len(walls) / sum(walls) if walls else 0.0
    if tracer is not None:
        traced_ops = [entry for entry in done if entry[2]]
        by_op = layers.spans_by_op(tracer.table())
        out.per_layer = {name: 0.0 for name in layers.all_metric_names()}
        for index, klass in enumerate(classes):
            ops = [layers.op_metrics(by_op.get(op, {}), klass, wall, counts)
                   for op, which, _, wall, _, counts in traced_ops if which == index]
            out.per_layer.update(layers.class_metrics(klass, ops, shape.count_ticks))
        out.per_layer.update({
            "backend.plan.ms": layers.setup_plan_ms(by_op),
            "trace.overhead_ratio": layers.overhead_ratio(
                [entry[3] for entry in traced_ops], walls),
            "pool.hit_rate": stats.hit_rate,
            "session.replans": float(replans),
            "serving.rejections": float(rejections),
        })
    out.end_to_end = {
        "setup_s": sum(statistics.median(clock.at_ref(wall, mark)
                                         for wall, mark in times)
                       for times in setup_s.values()),
        "op_ref_ms": statistics.mean(percentile(refs, 50)
                                     for refs in ref_by_class.values()) * 1e3,
        "peak_rss_mb": rss,
    }
    out.report = {
        "nodes_per_tenant": [t.graph.num_nodes for t in tenants],
        "edges_per_tenant": [t.graph.num_edges for t in tenants],
        "hubs_per_tenant": [int((t.graph.out_degrees() >= shape.hub_threshold).sum())
                            for t in tenants],
        "ticks_per_tenant": [len(v) for v in by_class.values()],
        "setups_per_tenant": [len(v) for v in setup_s.values()],
        "setup_wall_s": sum(statistics.median(wall for wall, _ in times)
                            for times in setup_s.values()),
        "tick_p50_ms": percentile(walls, 50) * 1e3,
        "tick_p90_ms": percentile(walls, 90) * 1e3,
        "ticks_per_s": ops_per_s,
        "error_rate": out.failed / max(out.attempted, 1),
        "pool_hit_rate": stats.hit_rate,
        "replans": replans,
        "rejections": rejections,
    }
    for klass, values in by_class.items():
        out.report[f"{klass}_tick_p50_ms"] = percentile(values, 50) * 1e3
        out.report[f"{klass}_tick_p90_ms"] = percentile(values, 90) * 1e3
    _check_clock(out, clock)

    # Oracle (contract #4): each tenant's last incremental tick equals a fresh
    # prepare() + full infer() over its drifted graph, bit for bit; every
    # edge delta landed in place, so nothing re-planned; and every tick was
    # served by the session set up for it: no pool miss after set-up, and
    # exactly LOOKUPS_PER_TICK pool hits per tick.
    out.check(replans == 0, f"{replans} re-plan(s): an edge delta did not land in place")
    out.check(rejections == 0, f"{rejections} request(s) refused by admission")
    misses = stats.misses - lookups_before.misses
    hits = stats.hits - lookups_before.hits
    out.check(misses == 0, f"{misses} pool miss(es) after set-up: a tick "
                           "re-prepared its session")
    out.check(hits == LOOKUPS_PER_TICK * served,
              f"{hits} pool hit(s) for {served} tick(s), expected "
              f"{LOOKUPS_PER_TICK} per tick")
    for tenant in tenants:
        if tenant.last is None:
            out.check(False, f"tenant {tenant.name} served no tick")
            continue
        fresh = InferenceSession(model, config)
        fresh.prepare(tenant.graph)
        expected = fresh.infer().scores
        out.check(np.array_equal(tenant.last.scores, expected),
                  f"tenant {tenant.name}: incremental scores differ from a fresh "
                  "prepare()+infer() on the drifted graph")
    pool.clear()
    return out


def run_serve(seed: int, seconds: float, trace: bool,
              shape: Shape = Shape()) -> Outcome:
    return asyncio.run(_serve(seed, seconds, trace, shape))


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "full_pregel": lambda seed, seconds, trace, shape=Shape():
        run_full("pregel", seed, seconds, trace, shape),
    "full_mapreduce": lambda seed, seconds, trace, shape=Shape():
        run_full("mapreduce", seed, seconds, trace, shape),
    "serve_drift": run_serve,
}
