"""The Pregel-like graph-processing backend as a registry plugin.

Planning partitions the (possibly shadow-expanded) graph once into a
:class:`~repro.pregel.engine.PregelEngine`; every execution reuses the cached
partitions and only swaps in a fresh metrics collector, so repeated
``infer()`` calls skip the hash-partitioning pass entirely.

This backend also implements the optional delta hooks of the
:class:`~repro.inference.backends.base.Backend` protocol: ``apply_delta``
patches the cached plan in place for feature refreshes (including shadow
mirror copies) and hub-preserving edge deltas, and ``execute_incremental``
reruns only the dirty k-hop region against the warm engine — the serving
path for graphs that change between recurring inference jobs.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import DeltaOutcome, GraphDelta, apply_delta_to_graph
from repro.inference.backends.base import (
    ExecutionPlan,
    check_edge_delta_stability,
    plan_gas_execution,
    register_backend,
)
from repro.inference.pregel_adaptor import (
    build_pregel_engine,
    run_pregel_inference,
    run_pregel_inference_incremental,
)

_EMPTY = np.empty(0, dtype=np.int64)


@register_backend("pregel")
class PregelBackend:
    """Memory-resident graph-processing backend (one superstep per layer)."""

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.pregel_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        plan = plan_gas_execution(self.name, model, graph, config)
        plan.num_supersteps = model.num_layers + 1
        plan.state["engine"] = build_pregel_engine(plan.working_graph, config,
                                                   layout=plan.layout)
        return plan

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        # The per-superstep state cache is lazy: it costs ~(layers+1)x the
        # node-state memory, so it only arms once the session has actually
        # seen a delta (plan.delta_seen) — sessions serving an immutable
        # graph keep pre-delta peak memory.  The first post-delta incremental
        # request then falls back to one full run, which primes the cache.
        return run_pregel_inference(plan.model, plan.graph, plan.config,
                                    plan.strategy_plan, plan.shadow_plan, metrics,
                                    engine=plan.state.get("engine"),
                                    cache_states=plan.delta_seen)

    # ------------------------------------------------------------------ #
    # optional delta hooks
    # ------------------------------------------------------------------ #
    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Patch the cached plan for ``delta``; report what stays valid.

        Feature rows are always applied in place: the base graph, the
        shadow-expanded working graph (originals *and* mirror copies, via the
        replica CSR) and every engine partition's feature slice are updated
        through one :class:`~repro.cluster.layout.ClusterLayout` translate +
        grouped scatter.  Edge deltas are applied in place only when that is
        provably bit-stable: the hub set and every hub's mirror-group count
        must survive the threshold re-check
        (:func:`~repro.inference.backends.base.check_edge_delta_stability`).
        Any layer qualifies, projecting ``apply_edge`` included: dense
        products are row-stable, so a changed edge count moves no message's
        bits.  Under shadow nodes the position-stable mirror assignment
        (:meth:`~repro.inference.shadow.ShadowNodePlan.patch_edge_delta`)
        splices the delta into the expanded working graph exactly as a fresh
        rewrite would place it.  Anything else returns ``in_place=False``
        after landing the delta on the base graph, and the session re-plans
        from it.
        """
        graph = plan.graph
        # Land the delta on the base graph first — validation happens here,
        # and even an invalidating delta must reach the graph so the session
        # can re-prepare from the updated state.
        topo_dirty = apply_delta_to_graph(graph, delta)

        if delta.has_edge_changes:
            stable, why, new_threshold = check_edge_delta_stability(plan)
            if not stable:
                return DeltaOutcome(in_place=False, reason=why)
            plan.strategy_plan.threshold = new_threshold

        engine = plan.state.get("engine")
        feature_dirty = _EMPTY
        if delta.has_feature_changes:
            shadow_plan = plan.shadow_plan
            if shadow_plan is not None and shadow_plan.has_mirrors:
                feature_dirty = shadow_plan.refresh_mirror_features(graph, delta.node_ids)
            else:
                feature_dirty = np.unique(delta.node_ids)
            if engine is not None and plan.layout is not None:
                working = plan.working_graph
                rows = working.node_features[feature_dirty]
                local = plan.layout.local_indices(feature_dirty)
                for pid, sel in plan.layout.group_by_owner(feature_dirty):
                    if sel.size:
                        engine.partitions[pid].node_features[local[sel]] = rows[sel]

        if delta.has_edge_changes:
            # Under shadow nodes, splice the delta into the expanded working
            # graph first (position-stable mirror assignment); without
            # mirrors the working graph *is* the base graph and the delta
            # already landed on it above.
            if plan.shadow_plan is not None:
                plan.shadow_plan.patch_edge_delta(graph, delta)
            if engine is not None and plan.layout is not None:
                # Regroup the updated working edge list per owning partition
                # (one stable argsort — the same slicing a fresh partitioning
                # would produce; partitions that lost their last edge get
                # empty arrays).
                working = plan.working_graph
                efeat = working.edge_features
                for pid, ids in plan.layout.group_by_owner(working.src):
                    engine.partitions[pid].replace_out_edges(
                        working.src[ids], working.dst[ids],
                        None if efeat is None else efeat[ids])

        return DeltaOutcome(in_place=True, feature_dirty=feature_dirty,
                            topo_dirty=topo_dirty)

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        engine = plan.state.get("engine")
        if engine is None:
            return None
        return run_pregel_inference_incremental(
            plan.model, plan.graph, plan.config, plan.strategy_plan,
            plan.shadow_plan, metrics, engine, feature_dirty, topo_dirty)
