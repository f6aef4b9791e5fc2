"""InferTurbo adaptor for the Pregel-like graph processing backend.

One superstep per GNN layer plus an initialisation superstep:

* superstep 0 — encode raw features into the layer-0 input state and scatter
  the first messages along out-edges;
* superstep s (1 ≤ s < L) — gather the messages produced in superstep s-1, run
  layer s-1's ``apply_node``, then scatter layer s's messages;
* superstep L — final gather/apply_node and the prediction head; no scatter.

Node state, out-edges and features stay in partition memory across supersteps
(the defining property of this backend); messages travel as packed
:class:`~repro.pregel.vertex.MessageBlock`s so every stage stays vectorised.
The hub-node strategies plug in here: partial-gather through the per-superstep
combiner, broadcast through :class:`~repro.inference.strategies.BroadcastMessageBlock`,
shadow-nodes through destination expansion against the replica map.

Incremental inference
---------------------

A session that applied a :class:`~repro.inference.delta.GraphDelta` in place
can rerun just the delta's reach: full runs cache every superstep's state
per partition (``h_history``); an incremental run walks a per-superstep dirty
frontier (:func:`~repro.inference.delta.expand_frontier`), sends only messages
bound for next-frontier destinations, runs every stage on frontier rows (and
the selected edge rows) only, and splices the results into the cached states.
Bit-identity with a fresh full run is preserved by two rules:

* per-destination message *sets and order* are unchanged — filtering keeps
  all of a frontier destination's rows and drops whole destinations, so the
  order-sensitive segment reductions accumulate identical bits;
* dense products are row-stable — :class:`~repro.tensor.tensor.Tensor` runs
  every 2-D ``@`` in fixed-shape row tiles, so ``encode`` / ``apply_edge`` /
  ``apply_node`` / ``predict`` over a row subset give exactly the rows a
  full-shape pass would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cost_model import gnn_layer_compute_units
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import MetricsCollector, tensor_bytes
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import expand_frontier
from repro.inference.shadow import ShadowNodePlan
from repro.inference.strategies import (
    BroadcastMessageBlock,
    StrategyPlan,
    split_hub_edges,
)
from repro.pregel.combiners import MessageCombiner
from repro.pregel.engine import PregelEngine, PregelPartition
from repro.pregel.vertex import BlockVertexProgram, MessageBlock, PartitionContext
from repro.tensor.tensor import Tensor, no_grad

_EMPTY_ROWS = np.empty(0, dtype=np.int64)


class GNNInferenceProgram(BlockVertexProgram):
    """Block vertex program that runs a GAS GNN model layer by layer.

    ``cache_states=True`` makes a full run record every superstep's state (and
    the final logits) in partition ``block_state`` — the warm cache
    incremental runs splice into.  ``incremental=True`` runs against that
    cache: ``context.frontier_rows`` names the local rows to recompute and
    ``edge_rows[(partition_id, superstep)]`` the out-edge rows whose messages
    must still be sent (everything bound for a next-frontier destination).
    """

    def __init__(self, model: GNNModel, plan: StrategyPlan,
                 shadow_plan: Optional[ShadowNodePlan] = None,
                 cache_states: bool = False, incremental: bool = False,
                 edge_rows: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
                 collect_embeddings: bool = False) -> None:
        self.model = model
        self.plan = plan
        self.shadow_plan = shadow_plan
        self.num_layers = model.num_layers
        self.incremental = bool(incremental)
        self.cache_states = bool(cache_states) or self.incremental
        self.edge_rows = edge_rows if edge_rows is not None else {}
        self.collect_embeddings = bool(collect_embeddings)

    # ------------------------------------------------------------------ #
    @property
    def block_state_ship_keys(self) -> Tuple[str, ...]:
        """Process-executor shipping manifest: what this run reads.

        Incremental runs splice into the cached superstep states of the last
        full run; full runs reset every per-run entry in
        :meth:`setup_partition`, so nothing needs to travel to the workers.
        """
        return ("h_history", "output") if self.incremental else ()

    @property
    def block_state_return_keys(self) -> Tuple[str, ...]:
        """What this run leaves behind for the parent to keep.

        ``output`` feeds score collection; ``h`` only matters when the caller
        collects embeddings; ``h_history`` is the warm cache a later
        incremental run splices into (kept only when this run maintains it).
        """
        keys = ["output"]
        if self.collect_embeddings:
            keys.append("h")
        if self.cache_states:
            keys.extend(("h", "h_history"))
        return tuple(dict.fromkeys(keys))

    # ------------------------------------------------------------------ #
    def max_supersteps(self) -> int:
        return self.num_layers + 1

    def combiner_for_superstep(self, superstep: int) -> Optional[MessageCombiner]:
        """Partial-gather: the consuming layer's combiner (or None)."""
        if superstep >= self.num_layers:
            return None
        return self.plan.layer(superstep).combiner

    def setup_partition(self, partition: PregelPartition) -> None:
        """Reset per-run state; reuse the layout-derived out-edge index.

        ``out_src_local`` depends only on the partition layout, so an engine
        prepared once (see :func:`build_pregel_engine`) keeps it across runs;
        a fresh engine computes it here on first use.  An incremental run
        keeps the cached ``h_history``/``output`` (that cache *is* its input);
        a full run resets them.
        """
        if "out_src_local" not in partition.block_state:
            partition.block_state["out_src_local"] = partition.local_indices(partition.out_src)
        partition.block_state["h"] = None
        if self.incremental:
            if not has_cached_run(partition, self.num_layers):
                raise RuntimeError(
                    "incremental inference requires cached superstep states "
                    "from a previous full run on this plan")
            return
        partition.block_state["output"] = None
        if self.cache_states:
            partition.block_state["h_history"] = [None] * (self.num_layers + 1)
        else:
            partition.block_state.pop("h_history", None)

    # ------------------------------------------------------------------ #
    def _assemble_messages(self, partition: PregelPartition,
                           incoming: List[MessageBlock],
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate incoming blocks into (local_dst, payload, counts)."""
        if not incoming:
            width = 0
            return (np.empty(0, dtype=np.int64), np.zeros((0, width)), np.empty(0, dtype=np.int64))
        dst = np.concatenate([block.dst_ids for block in incoming])
        payload = np.concatenate([block.dense_payload() for block in incoming], axis=0)
        counts = np.concatenate([block.counts for block in incoming])
        local_dst = partition.local_indices(dst)
        return local_dst, payload, counts

    def _scatter_messages(self, context: PartitionContext, partition: PregelPartition,
                          state: np.ndarray, superstep: int) -> None:
        """Build and send this superstep's out-edge messages.

        An incremental run restricts the scatter — ``apply_edge`` included —
        to the precomputed out-edge rows bound for next-frontier destinations.
        The restriction is all-or-nothing per destination, so every surviving
        destination still receives its complete in-message set in the full
        run's order.
        """
        if partition.num_out_edges == 0:
            return
        next_layer = self.model.layers[superstep]
        layer_strategy = self.plan.layer(superstep)
        src_rows = partition.block_state["out_src_local"]
        edge_features = partition.out_edge_features
        dst_ids = partition.out_dst
        source_ids = partition.out_src

        if self.incremental:
            edge_rows = self.edge_rows.get((partition.partition_id, superstep),
                                           _EMPTY_ROWS)
            if edge_rows.size == 0:
                return
            src_rows = src_rows[edge_rows]
            dst_ids = dst_ids[edge_rows]
            source_ids = source_ids[edge_rows]
            if edge_features is not None:
                edge_features = edge_features[edge_rows]
        edge_tensor = None if edge_features is None else Tensor(edge_features)
        messages = next_layer.apply_edge(Tensor(state[src_rows]), edge_tensor).data
        counts = np.ones(dst_ids.shape[0], dtype=np.int64)

        # apply_edge cost: one pass over every outgoing message element (the
        # per-edge projections some layers perform are folded into this rate).
        context.add_compute(messages.shape[0] * messages.shape[1])

        if layer_strategy.broadcast and self.plan.out_degree_hubs.size:
            hub_rows, plain_rows = split_hub_edges(source_ids, self.plan.out_degree_hubs)
        else:
            hub_rows = np.empty(0, dtype=np.int64)
            plain_rows = np.arange(dst_ids.shape[0])

        if plain_rows.size:
            plain_dst, plain_payload, plain_counts = self._expand(
                dst_ids[plain_rows], messages[plain_rows], counts[plain_rows])
            context.send_block(MessageBlock(dst_ids=plain_dst, payload=plain_payload,
                                            counts=plain_counts))

        if hub_rows.size:
            # Each hub source appears on many rows with the same payload: keep
            # one copy per hub and reference it per edge.
            hub_sources = source_ids[hub_rows]
            unique_sources, first_rows, refs = np.unique(hub_sources, return_index=True,
                                                         return_inverse=True)
            unique_payloads = messages[hub_rows][first_rows]
            hub_dst, hub_refs, hub_counts = self._expand(
                dst_ids[hub_rows], refs.reshape(-1, 1).astype(np.float64), counts[hub_rows])
            context.send_block(BroadcastMessageBlock(
                dst_ids=hub_dst,
                payload_refs=hub_refs.reshape(-1).astype(np.int64),
                unique_payloads=unique_payloads,
                counts=hub_counts,
            ))

    def _expand(self, dst_ids: np.ndarray, payload: np.ndarray, counts: np.ndarray,
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply shadow-node destination expansion when the strategy is active."""
        if self.shadow_plan is None or not self.shadow_plan.has_mirrors:
            return dst_ids, payload, counts
        return self.shadow_plan.expand_destinations(dst_ids, payload, counts)

    # ------------------------------------------------------------------ #
    def _compute_state_full(self, context: PartitionContext,
                            partition: PregelPartition,
                            incoming: List[MessageBlock], superstep: int) -> np.ndarray:
        """One full superstep: encode (step 0) or gather + apply_node."""
        state = partition.block_state["h"]
        if superstep == 0:
            if partition.num_nodes:
                features = Tensor(partition.node_features)
                state = self.model.encode(features).data
            else:
                state = np.zeros((0, self.model.encoder.out_features))
            context.add_compute(
                partition.num_nodes * self.model.encoder.in_features
                * self.model.encoder.out_features)
            return state
        layer = self.model.layers[superstep - 1]
        local_dst, payload, counts = self._assemble_messages(partition, incoming)
        if payload.shape[1] == 0:
            payload = np.zeros((0, layer.message_dim))
        aggr = layer.gather(Tensor(payload), local_dst, partition.num_nodes, counts)
        new_state = layer.apply_node(Tensor(state), aggr)
        context.add_compute(gnn_layer_compute_units(
            num_messages=payload.shape[0], message_dim=layer.message_dim,
            num_nodes=partition.num_nodes, in_dim=layer.in_dim,
            out_dim=getattr(layer, "output_dim", layer.out_dim)))
        return new_state.data

    def _compute_state_incremental(self, context: PartitionContext,
                                   partition: PregelPartition,
                                   incoming: List[MessageBlock],
                                   superstep: int) -> np.ndarray:
        """Recompute only the frontier rows; splice them into the cached state.

        The senders already restricted the incoming messages to frontier
        destinations, so gather indexes them by their position in ``rows``
        and ``encode``/``apply_node`` run on the frontier rows alone; the
        dense products are row-stable, so each recomputed row is
        bit-identical to a fresh full run's.  Rows outside the frontier keep
        the cached bits, which a fresh run would reproduce exactly.
        """
        rows = context.frontier_rows if context.frontier_rows is not None else _EMPTY_ROWS
        history = partition.block_state["h_history"]
        if rows.size == 0 or not partition.num_nodes:
            return history[superstep]
        if superstep == 0:
            fresh = self.model.encode(Tensor(partition.node_features[rows])).data
            context.add_compute(rows.size * self.model.encoder.in_features
                                * self.model.encoder.out_features)
        else:
            layer = self.model.layers[superstep - 1]
            local_dst, payload, counts = self._assemble_messages(partition, incoming)
            if payload.shape[1] == 0:
                payload = np.zeros((0, layer.message_dim))
            position = np.empty(partition.num_nodes, dtype=np.int64)
            position[rows] = np.arange(rows.size)
            aggr = layer.gather(Tensor(payload), position[local_dst], rows.size, counts)
            fresh = layer.apply_node(Tensor(partition.block_state["h"][rows]), aggr).data
            context.add_compute(gnn_layer_compute_units(
                num_messages=payload.shape[0], message_dim=layer.message_dim,
                num_nodes=rows.size, in_dim=layer.in_dim,
                out_dim=getattr(layer, "output_dim", layer.out_dim)))
        state = history[superstep].copy()
        state[rows] = fresh
        return state

    def compute_partition(self, context: PartitionContext,
                          incoming: List[MessageBlock]) -> None:
        partition: PregelPartition = context.partition
        superstep = context.superstep

        with no_grad():
            if self.incremental:
                state = self._compute_state_incremental(context, partition,
                                                        incoming, superstep)
            else:
                state = self._compute_state_full(context, partition, incoming, superstep)

            partition.block_state["h"] = state
            if self.cache_states:
                partition.block_state["h_history"][superstep] = state

            if superstep < self.num_layers:
                self._scatter_messages(context, partition, state, superstep)
            elif self.incremental:
                rows = (context.frontier_rows
                        if context.frontier_rows is not None else _EMPTY_ROWS)
                if rows.size and partition.num_nodes:
                    output = partition.block_state["output"].copy()
                    output[rows] = self.model.predict(Tensor(state[rows])).data
                    partition.block_state["output"] = output
                    context.add_compute(rows.size * state.shape[1]
                                        * max(output.shape[1], 1))
            else:
                logits = self.model.predict(Tensor(state)).data if partition.num_nodes else \
                    np.zeros((0, self.model.output_dim))
                partition.block_state["output"] = logits
                context.add_compute(partition.num_nodes * state.shape[1] * max(logits.shape[1], 1)
                                    if partition.num_nodes else 0)

        # Peak memory: resident state + features + incoming messages (+ the
        # cached superstep states an incremental-capable session keeps warm).
        resident = tensor_bytes(state.shape)
        if partition.node_features is not None:
            resident += float(partition.node_features.nbytes)
        resident += sum(block.nbytes() for block in incoming)
        resident += float(partition.out_src.nbytes + partition.out_dst.nbytes)
        if self.cache_states:
            # Earlier supersteps' cached states; the current one is already
            # counted as the resident state above.
            resident += sum(float(h.nbytes)
                            for h in partition.block_state["h_history"][:superstep]
                            if h is not None)
        context.observe_memory(resident)


def build_pregel_engine(working_graph: Graph, config: InferenceConfig,
                        metrics: Optional[MetricsCollector] = None,
                        layout: Optional[ClusterLayout] = None) -> PregelEngine:
    """Partition the (possibly shadow-expanded) graph into a reusable engine.

    Partitioning is the expensive part of Pregel preparation; a session builds
    the engine once at ``prepare()`` time and swaps in a fresh metrics
    collector per execution.  A :class:`~repro.cluster.layout.ClusterLayout`
    already computed for this graph (the execution plan caches one) is reused
    instead of rebuilt, and the layout-derived local index of every
    partition's out-edge sources is precomputed here too, so executions reuse
    both instead of recomputing them per run.
    """
    engine = PregelEngine(working_graph, num_workers=config.num_workers,
                          metrics=metrics, layout=layout,
                          executor=config.executor)
    for partition in engine.partitions:
        partition.block_state["out_src_local"] = partition.local_indices(partition.out_src)
    return engine


def has_cached_run(partition: PregelPartition, num_layers: int) -> bool:
    """Whether a partition carries a complete state cache from a full run."""
    history = partition.block_state.get("h_history")
    return (history is not None
            and len(history) == num_layers + 1
            and all(h is not None for h in history)
            and partition.block_state.get("output") is not None)


def _collect_outputs(partitions: List[PregelPartition], model: GNNModel,
                     config: InferenceConfig,
                     original_num_nodes: int) -> Dict[str, np.ndarray]:
    """Assemble per-partition outputs into dense score/embedding matrices."""
    scores = np.zeros((original_num_nodes, model.output_dim))
    embeddings = None
    if config.collect_embeddings:
        last_width = getattr(model.layers[-1], "output_dim", model.layers[-1].out_dim)
        embeddings = np.zeros((original_num_nodes, last_width))
    for partition in partitions:
        output = partition.block_state.get("output")
        if output is None:
            continue
        keep = partition.node_ids < original_num_nodes
        scores[partition.node_ids[keep]] = output[keep]
        if embeddings is not None:
            embeddings[partition.node_ids[keep]] = partition.block_state["h"][keep]
    payload: Dict[str, np.ndarray] = {"scores": scores}
    if embeddings is not None:
        payload["embeddings"] = embeddings
    return payload


def run_pregel_inference(model: GNNModel, graph: Graph, config: InferenceConfig,
                         plan: StrategyPlan, shadow_plan: Optional[ShadowNodePlan],
                         metrics: MetricsCollector,
                         engine: Optional[PregelEngine] = None,
                         cache_states: bool = False) -> Dict[str, np.ndarray]:
    """Execute full-graph inference on the Pregel backend.

    Returns a dict with ``scores`` [N, C] (original nodes only) and, when
    requested, ``embeddings`` (the last layer's state before the head).
    ``engine`` may carry a pre-partitioned engine from a previous ``plan``
    step; the program's ``setup_partition`` resets all per-run block state, so
    reuse is safe and repeated runs stay bit-identical.  ``cache_states``
    keeps every superstep's state in partition memory, priming the cache
    incremental runs splice into.
    """
    working_graph = shadow_plan.graph if shadow_plan is not None else graph
    original_num_nodes = shadow_plan.original_num_nodes if shadow_plan is not None else graph.num_nodes

    program = GNNInferenceProgram(model, plan, shadow_plan, cache_states=cache_states,
                                  collect_embeddings=config.collect_embeddings)
    if engine is None:
        engine = build_pregel_engine(working_graph, config, metrics)
    else:
        engine.metrics = metrics
    model.eval()
    result = engine.run(program)
    return _collect_outputs(result.partitions, model, config, original_num_nodes)


def run_pregel_inference_incremental(
        model: GNNModel, graph: Graph, config: InferenceConfig,
        plan: StrategyPlan, shadow_plan: Optional[ShadowNodePlan],
        metrics: MetricsCollector, engine: PregelEngine,
        feature_dirty: np.ndarray,
        topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
    """Rerun only the dirty k-hop region against a warm engine.

    ``feature_dirty``/``topo_dirty`` are working-graph node ids (replica-
    closed) from the session's accumulated deltas.  Returns None when the
    engine has no complete cached run to splice into (the caller then falls
    back to a full execution), otherwise the same output dict as
    :func:`run_pregel_inference` — bit-identical to a fresh full run.
    """
    if not all(has_cached_run(p, model.num_layers) for p in engine.partitions):
        return None
    working_graph = shadow_plan.graph if shadow_plan is not None else graph
    original_num_nodes = (shadow_plan.original_num_nodes if shadow_plan is not None
                          else graph.num_nodes)
    num_supersteps = model.num_layers + 1
    frontiers = expand_frontier(working_graph, feature_dirty, topo_dirty,
                                num_supersteps, shadow_plan)

    # Per-superstep, per-partition local frontier rows (one grouped pass each).
    layout = engine.layout
    schedule: List[Dict[int, np.ndarray]] = []
    for frontier in frontiers:
        per_partition: Dict[int, np.ndarray] = {}
        if frontier.size:
            local = layout.local_indices(frontier)
            per_partition = {pid: local[rows]
                             for pid, rows in layout.group_by_owner(frontier)
                             if rows.size}
        schedule.append(per_partition)

    # Out-edge rows each partition must still scatter at superstep s: every
    # edge bound for a superstep-(s+1) frontier destination.  Frontiers are
    # replica-closed, so testing the pre-expansion destination id against a
    # mask of the next frontier suffices.
    edge_rows: Dict[Tuple[int, int], np.ndarray] = {}
    for superstep in range(model.num_layers):
        in_next = np.zeros(working_graph.num_nodes, dtype=bool)
        in_next[frontiers[superstep + 1]] = True
        for partition in engine.partitions:
            edge_rows[(partition.partition_id, superstep)] = np.flatnonzero(
                in_next[partition.out_dst])

    program = GNNInferenceProgram(model, plan, shadow_plan, incremental=True,
                                  edge_rows=edge_rows,
                                  collect_embeddings=config.collect_embeddings)
    engine.metrics = metrics
    model.eval()
    result = engine.run(program, frontier=schedule)
    return _collect_outputs(result.partitions, model, config, original_num_nodes)
