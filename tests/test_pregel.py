"""Tests for the Pregel-like graph processing engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import MetricsCollector
from repro.graph.graph import Graph
from repro.pregel.combiners import (
    MaxCombiner,
    MeanCombiner,
    SumCombiner,
    combiner_for_aggregate_kind,
)
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import BlockVertexProgram, MessageBlock


def ring_graph(num_nodes: int) -> Graph:
    src = np.arange(num_nodes)
    dst = (src + 1) % num_nodes
    return Graph(src, dst, num_nodes=num_nodes)


def gather_values(result, key: str) -> np.ndarray:
    """Assemble a per-partition ``block_state`` vector into global order."""
    num_nodes = sum(partition.num_nodes for partition in result.partitions)
    values = np.zeros(num_nodes)
    for partition in result.partitions:
        values[partition.node_ids] = partition.block_state[key]
    return values


def receive_sum(partition, incoming) -> np.ndarray:
    """Per-row sum of the first payload column over all incoming blocks."""
    received = np.zeros(partition.num_nodes)
    for block in incoming:
        np.add.at(received, partition.local_indices(block.dst_ids), block.payload[:, 0])
    return received


class DegreeCountProgram(BlockVertexProgram):
    """Each vertex sends 1 along its out-edges; values become in-degrees."""

    def __init__(self, combiner=None) -> None:
        self.combiner = combiner

    def max_supersteps(self) -> int:
        return 2

    def combiner_for_superstep(self, superstep):
        return self.combiner

    def setup_partition(self, partition) -> None:
        partition.block_state["degree"] = np.zeros(partition.num_nodes)

    def compute_partition(self, context, incoming) -> None:
        partition = context.partition
        if context.superstep == 0:
            context.send_block(MessageBlock(dst_ids=partition.out_dst,
                                            payload=np.ones(partition.num_out_edges)))
        else:
            partition.block_state["degree"] = receive_sum(partition, incoming)


class PageRankProgram(BlockVertexProgram):
    """Classic PageRank with a fixed number of iterations."""

    def __init__(self, num_iterations: int = 10, damping: float = 0.85) -> None:
        self.num_iterations = num_iterations
        self.damping = damping

    def max_supersteps(self) -> int:
        return self.num_iterations + 1

    def setup_partition(self, partition) -> None:
        partition.block_state["rank"] = np.ones(partition.num_nodes)

    def compute_partition(self, context, incoming) -> None:
        partition = context.partition
        state = partition.block_state
        if context.superstep > 0:
            state["rank"] = ((1 - self.damping)
                             + self.damping * receive_sum(partition, incoming))
        if context.superstep < self.num_iterations:
            src_rows = partition.local_indices(partition.out_src)
            out_degree = np.maximum(np.bincount(src_rows, minlength=partition.num_nodes), 1)
            share = state["rank"] / out_degree
            context.send_block(MessageBlock(dst_ids=partition.out_dst,
                                            payload=share[src_rows]))


class HopDistanceProgram(BlockVertexProgram):
    """A token leaves vertex 0 and crosses one edge per superstep.

    Each vertex records the superstep the token first reached it (-1 if it
    never did), so on a directed ring the result is the hop distance.
    """

    def __init__(self, num_hops: int) -> None:
        self.num_hops = num_hops

    def max_supersteps(self) -> int:
        return self.num_hops + 1

    def setup_partition(self, partition) -> None:
        partition.block_state["hops"] = np.where(partition.node_ids == 0, 0.0, -1.0)

    def compute_partition(self, context, incoming) -> None:
        partition = context.partition
        hops = partition.block_state["hops"]
        reached = receive_sum(partition, incoming) > 0
        hops[reached & (hops < 0)] = context.superstep
        sending = (hops == context.superstep)[partition.local_indices(partition.out_src)]
        context.send_block(MessageBlock(dst_ids=partition.out_dst[sending],
                                        payload=np.ones(int(sending.sum()))))


class SuperstepLogProgram(BlockVertexProgram):
    """Logs, per partition, each superstep it computed and its frontier rows."""

    def __init__(self, num_supersteps: int) -> None:
        self.num_supersteps = num_supersteps

    def max_supersteps(self) -> int:
        return self.num_supersteps

    def setup_partition(self, partition) -> None:
        partition.block_state["log"] = []

    def compute_partition(self, context, incoming) -> None:
        rows = context.frontier_rows
        context.partition.block_state["log"].append(
            (context.superstep, None if rows is None else rows.tolist()))


class TwoRoundDegreeProgram(BlockVertexProgram):
    """Sends one message per out-edge twice; only the second round combines."""

    def max_supersteps(self) -> int:
        return 2

    def combiner_for_superstep(self, superstep):
        return SumCombiner() if superstep == 1 else None

    def compute_partition(self, context, incoming) -> None:
        partition = context.partition
        context.send_block(MessageBlock(dst_ids=partition.out_dst,
                                        payload=np.ones(partition.num_out_edges)))


class StrayMessageProgram(BlockVertexProgram):
    """Sends a message to a vertex id outside the graph."""

    def max_supersteps(self) -> int:
        return 1

    def compute_partition(self, context, incoming) -> None:
        context.send_block(MessageBlock(dst_ids=np.array([-1]), payload=np.ones(1)))


class TestBlockPrograms:
    def test_degree_count_matches_graph(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=4)
        result = engine.run(DegreeCountProgram())
        np.testing.assert_array_equal(gather_values(result, "degree"),
                                      small_graph.in_degrees())
        assert result.num_supersteps == 2

    def test_pagerank_sums_to_node_count(self):
        graph = ring_graph(10)
        engine = PregelEngine(graph, num_workers=2)
        result = engine.run(PageRankProgram(num_iterations=15))
        assert gather_values(result, "rank").sum() == pytest.approx(10.0, rel=0.05)

    def test_pagerank_uniform_on_ring(self):
        graph = ring_graph(8)
        engine = PregelEngine(graph, num_workers=4)
        result = engine.run(PageRankProgram(num_iterations=20))
        np.testing.assert_allclose(gather_values(result, "rank"), np.ones(8), atol=0.05)

    def test_metrics_recorded_per_superstep(self, small_graph):
        result = PregelEngine(small_graph, num_workers=4).run(DegreeCountProgram())
        phases = result.metrics.phases()
        assert {"superstep_0", "superstep_1"} <= set(phases)
        assert result.metrics.total("records_out", "superstep_0") == small_graph.num_edges

    def test_single_record_call_per_partition_per_superstep(self, small_graph):
        """compute/bytes_in and bytes_out land in ONE record() call, so
        per-phase instance counts are not inflated by a separate route-side
        record site."""
        calls = []

        class CountingCollector(MetricsCollector):
            def record(self, phase, instance_id, **kwargs):
                calls.append((phase, int(instance_id)))
                super().record(phase, instance_id, **kwargs)

        engine = PregelEngine(small_graph, num_workers=4, metrics=CountingCollector())
        result = engine.run(DegreeCountProgram())
        assert sorted(calls) == sorted((f"superstep_{step}", instance)
                                       for step in range(2) for instance in range(4))
        # Every call carries both directions of IO for superstep 0.
        for instance in range(4):
            entry = result.metrics.get("superstep_0", instance)
            assert entry is not None
            assert entry.bytes_in == 0.0          # nothing received yet
            assert entry.bytes_out > 0.0          # everyone sends degree messages

    def test_token_travels_ring(self):
        graph = ring_graph(6)
        engine = PregelEngine(graph, num_workers=3)
        result = engine.run(HopDistanceProgram(num_hops=3))
        # The run stops after its fourth superstep, before the token gets
        # past vertex 3.
        np.testing.assert_array_equal(gather_values(result, "hops"),
                                      [0, 1, 2, 3, -1, -1])

    @pytest.mark.parametrize("num_supersteps", [1, 4])
    def test_run_lasts_exactly_max_supersteps(self, small_graph, num_supersteps):
        engine = PregelEngine(small_graph, num_workers=3)
        result = engine.run(SuperstepLogProgram(num_supersteps))
        assert result.num_supersteps == num_supersteps
        assert set(result.metrics.phases()) == {f"superstep_{step}"
                                                for step in range(num_supersteps)}
        for partition in result.partitions:
            assert partition.block_state["log"] == [(step, None)
                                                    for step in range(num_supersteps)]

    def test_frontier_rows_delivered_per_superstep(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=2)
        frontier = [{0: np.array([0, 2])}, {1: np.array([1])}]
        result = engine.run(SuperstepLogProgram(3), frontier=frontier)
        # A partition missing from a superstep's schedule gets no rows; a
        # superstep past the end of the schedule runs unrestricted.
        assert result.partitions[0].block_state["log"] == [(0, [0, 2]), (1, []), (2, None)]
        assert result.partitions[1].block_state["log"] == [(0, []), (1, [1]), (2, None)]

    def test_combiner_resolved_per_superstep(self, small_graph):
        assert BlockVertexProgram().combiner_for_superstep(0) is None
        engine = PregelEngine(small_graph, num_workers=4)
        result = engine.run(TwoRoundDegreeProgram())
        assert result.metrics.total("records_out", "superstep_0") == small_graph.num_edges
        # Combined, each sender partition ships one record per distinct
        # destination vertex.
        distinct = sum(np.unique(partition.out_dst).size for partition in engine.partitions)
        assert distinct < small_graph.num_edges
        assert result.metrics.total("records_out", "superstep_1") == distinct

    def test_message_to_unknown_vertex_fails_run(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=2)
        with pytest.raises(ValueError, match="global id -1 is outside"):
            engine.run(StrayMessageProgram())
        # The failed run released its harness session; the engine runs again.
        result = engine.run(DegreeCountProgram())
        np.testing.assert_array_equal(gather_values(result, "degree"),
                                      small_graph.in_degrees())

    def test_program_combiner_reduces_messages(self, small_graph):
        plain_engine = PregelEngine(small_graph, num_workers=2)
        plain = plain_engine.run(DegreeCountProgram())
        combined_engine = PregelEngine(small_graph, num_workers=2)
        combined = combined_engine.run(DegreeCountProgram(combiner=SumCombiner()))
        # Results identical (sum combiner is exact for counting)...
        np.testing.assert_array_equal(gather_values(combined, "degree"),
                                      gather_values(plain, "degree"))
        # ...but no more records cross the wire.
        assert (combined.metrics.total("records_out", "superstep_0")
                <= plain.metrics.total("records_out", "superstep_0"))


class TestMessageBlocks:
    def test_block_validation(self):
        with pytest.raises(ValueError):
            MessageBlock(dst_ids=np.array([1, 2]), payload=np.zeros((3, 2)))

    def test_block_defaults_counts_to_ones(self):
        block = MessageBlock(dst_ids=np.array([1, 2]), payload=np.zeros((2, 3)))
        np.testing.assert_array_equal(block.counts, [1, 1])

    def test_block_take_preserves_type_and_rows(self):
        block = MessageBlock(dst_ids=np.array([1, 2, 3]), payload=np.arange(6.0).reshape(3, 2))
        piece = block.take(np.array([0, 2]))
        np.testing.assert_array_equal(piece.dst_ids, [1, 3])
        np.testing.assert_allclose(piece.payload, [[0.0, 1.0], [4.0, 5.0]])

    def test_block_nbytes_scales_with_rows(self):
        small = MessageBlock(dst_ids=np.array([1]), payload=np.zeros((1, 8)))
        large = MessageBlock(dst_ids=np.arange(10), payload=np.zeros((10, 8)))
        assert large.nbytes() > small.nbytes()

    def test_1d_payload_reshaped(self):
        block = MessageBlock(dst_ids=np.array([0, 1]), payload=np.array([1.0, 2.0]))
        assert block.payload.shape == (2, 1)


class TestCombiners:
    def test_sum_combiner_block(self):
        block = MessageBlock(dst_ids=np.array([5, 5, 7]),
                             payload=np.array([[1.0], [2.0], [4.0]]))
        combined = SumCombiner().combine_block(block)
        assert combined.num_records() == 2
        lookup = dict(zip(combined.dst_ids.tolist(), combined.payload[:, 0].tolist()))
        assert lookup[5] == 3.0
        assert lookup[7] == 4.0

    def test_sum_combiner_accumulates_counts(self):
        block = MessageBlock(dst_ids=np.array([5, 5]), payload=np.ones((2, 2)),
                             counts=np.array([2, 3]))
        combined = SumCombiner().combine_block(block)
        assert combined.counts[0] == 5

    def test_max_combiner_block(self):
        block = MessageBlock(dst_ids=np.array([1, 1]), payload=np.array([[3.0, 1.0], [2.0, 9.0]]))
        combined = MaxCombiner().combine_block(block)
        np.testing.assert_allclose(combined.payload, [[3.0, 9.0]])

    def test_mean_combiner_carries_sum_and_count(self):
        block = MessageBlock(dst_ids=np.array([4, 9, 4, 4]),
                             payload=np.array([[1.0], [5.0], [2.0], [6.0]]))
        combined = MeanCombiner().combine_block(block)
        np.testing.assert_array_equal(combined.dst_ids, [4, 9])
        np.testing.assert_array_equal(combined.counts, [3, 1])
        # The receiver finishes the mean exactly from (partial sum, count).
        np.testing.assert_allclose(combined.payload[:, 0] / combined.counts, [3.0, 5.0])

    def test_combined_destinations_sorted_and_unique(self):
        block = MessageBlock(dst_ids=np.array([8, 3, 8, 1, 3]),
                             payload=np.array([[1.0, 0.0], [2.0, 7.0], [5.0, -1.0],
                                               [0.5, 0.5], [4.0, 6.0]]))
        combined = MaxCombiner().combine_block(block)
        np.testing.assert_array_equal(combined.dst_ids, [1, 3, 8])
        np.testing.assert_allclose(combined.payload, [[0.5, 0.5], [4.0, 7.0], [5.0, 0.0]])
        np.testing.assert_array_equal(combined.counts, [1, 2, 2])

    def test_combiner_for_aggregate_kind(self):
        assert isinstance(combiner_for_aggregate_kind("sum"), SumCombiner)
        assert isinstance(combiner_for_aggregate_kind("mean"), MeanCombiner)
        assert isinstance(combiner_for_aggregate_kind("max"), MaxCombiner)
        assert combiner_for_aggregate_kind("union") is None
        with pytest.raises(ValueError):
            combiner_for_aggregate_kind("median")

    def test_empty_block_passthrough(self):
        block = MessageBlock(dst_ids=np.array([], dtype=np.int64), payload=np.zeros((0, 4)))
        assert SumCombiner().combine_block(block).num_records() == 0
