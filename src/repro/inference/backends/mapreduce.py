"""The MapReduce batch-processing backend as a registry plugin.

Planning ingests the (possibly shadow-expanded) node table into input records
once; every execution replays the cached records through a fresh engine, so
repeated ``infer()`` calls skip the per-node table scan.

This backend implements the optional delta hooks of the
:class:`~repro.inference.backends.base.Backend` protocol: ``apply_delta``
patches the cached input records in place — feature rows row-wise, edge
deltas by rebuilding only the touched records' adjacency payloads
(:func:`~repro.inference.mapreduce_adaptor.patch_record_adjacency`, using
the position-stable shadow mirror assignment when mirrors exist) — and
``execute_incremental`` replays only the delta's dependency closure,
splicing the recomputed scores into the matrix cached by the last full run
(see :mod:`repro.inference.mapreduce_adaptor` for the closure construction
and the tolerance-identity caveat).  Edge deltas re-plan only when the hub
set or a hub's mirror-group count changes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cluster.executor import Executor, build_executor
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import (
    DeltaOutcome,
    GraphDelta,
    apply_delta_to_graph,
    validate_delta_against_graph,
)
from repro.inference.backends.base import (
    ExecutionPlan,
    check_edge_delta_stability,
    plan_gas_execution,
    register_backend,
)
from repro.inference.mapreduce_adaptor import (
    build_input_records,
    patch_input_records,
    patch_record_adjacency,
    run_mapreduce_inference,
    run_mapreduce_inference_incremental,
)

_EMPTY = np.empty(0, dtype=np.int64)


@register_backend("mapreduce")
class MapReduceBackend:
    """Storage-resident batch backend (one map/reduce round per layer)."""

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.mapreduce_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        plan = plan_gas_execution(self.name, model, graph, config)
        plan.num_supersteps = model.num_layers
        plan.state["input_records"] = build_input_records(model, plan.working_graph)
        return plan

    def _plan_executor(self, plan: ExecutionPlan) -> Executor:
        """The plan-cached executor every round of every run reuses.

        Built lazily at first execution (a plan that is never executed never
        spawns workers) and kept in ``plan.state`` so the ``"process"``
        substrate pays its worker start-up once per prepared session, not
        once per round.
        """
        executor = plan.state.get("executor")
        if not isinstance(executor, Executor) or executor.name != plan.config.executor:
            executor = build_executor(plan.config.executor, plan.config.num_workers)
            plan.state["executor"] = executor
        return executor

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        outputs = run_mapreduce_inference(plan.model, plan.graph, plan.config,
                                          plan.strategy_plan, plan.shadow_plan, metrics,
                                          input_records=plan.state.get("input_records"),
                                          layout=plan.layout,
                                          executor=self._plan_executor(plan))
        # Lazy incremental cache: the score matrix only stays resident once
        # the session has seen a delta (mirrors the pregel state cache — the
        # first post-delta incremental request falls back to this full run,
        # which primes it).
        if plan.delta_seen:
            plan.state["scores"] = outputs["scores"].copy()
        else:
            plan.state.pop("scores", None)
        return outputs

    # ------------------------------------------------------------------ #
    # optional delta hooks
    # ------------------------------------------------------------------ #
    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Patch the cached input records in place; re-plan only on hub churn.

        Feature rows land on the base graph, propagate into shadow-mirror
        copies through the replica CSR, and are scattered row-wise into the
        id-indexed record cache.  Edge deltas splice into the same cache:
        the working-graph sources whose out-edge set changes (removal
        survivors plus the mirror-assigned sources of appends) get their
        record's adjacency payload rebuilt from the patched working graph —
        byte-identical to a fresh record scan, because the graph's adjacency
        index orders edges per source stably.  Only a hub-set or
        mirror-group-count change (:func:`check_edge_delta_stability`) lands
        the delta on the graph and makes the session re-plan from it.
        """
        graph = plan.graph
        removed_working_src = added_working_src = _EMPTY
        if delta.has_edge_changes:
            # Capture the removed edges' *working* sources (mirror ids under
            # shadow) while the positions are still valid — the working graph
            # keeps base edge order, so base positions index it 1:1.  The
            # delta is validated first so a malformed one raises cleanly
            # before any read or write.
            validate_delta_against_graph(graph, delta)
            if delta.removed_edge_ids is not None and delta.removed_edge_ids.size:
                removed_working_src = plan.working_graph.src[
                    delta.removed_edge_ids].copy()

        topo_dirty = apply_delta_to_graph(graph, delta)

        if delta.has_edge_changes:
            stable, why, new_threshold = check_edge_delta_stability(plan)
            if not stable:
                return DeltaOutcome(in_place=False, reason=why)
            plan.strategy_plan.threshold = new_threshold
            shadow_plan = plan.shadow_plan
            if shadow_plan is not None:
                added_working_src = shadow_plan.patch_edge_delta(graph, delta)
            elif delta.added_src is not None:
                added_working_src = delta.added_src
            records = plan.state.get("input_records")
            touched = np.concatenate([removed_working_src, added_working_src])
            if records is not None and touched.size:
                patch_record_adjacency(records, plan.working_graph, touched)

        feature_dirty = _EMPTY
        if delta.has_feature_changes:
            shadow_plan = plan.shadow_plan
            if shadow_plan is not None and shadow_plan.has_mirrors:
                feature_dirty = shadow_plan.refresh_mirror_features(graph, delta.node_ids)
            else:
                feature_dirty = np.unique(delta.node_ids)
            records = plan.state.get("input_records")
            if records is not None and feature_dirty.size:
                patch_input_records(records, plan.working_graph, feature_dirty)
        return DeltaOutcome(in_place=True, feature_dirty=feature_dirty,
                            topo_dirty=topo_dirty)

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Replay the dirty closure against cached scores, or None to go full.

        Requires a warm score cache (one full run after the first delta);
        anything else falls back to ``execute``.  Topology-dirty destinations
        seed the closure alongside feature-dirty nodes — the cached rows
        outside the delta's reach stay exact, so splicing remains valid after
        an in-place edge delta.
        """
        cached_scores = plan.state.get("scores")
        input_records = plan.state.get("input_records")
        if cached_scores is None or input_records is None:
            return None
        outputs = run_mapreduce_inference_incremental(
            plan.model, plan.graph, plan.config, plan.strategy_plan,
            plan.shadow_plan, metrics, input_records, cached_scores,
            feature_dirty, topo_dirty=topo_dirty, layout=plan.layout,
            executor=self._plan_executor(plan))
        plan.state["scores"] = outputs["scores"].copy()
        return outputs
