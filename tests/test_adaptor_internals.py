"""White-box tests for the backend adaptors' internal building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.mapreduce import TaskContext
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph, star_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.mapreduce_adaptor import GNNRoundJob, _combine_messages, _partition_fn
from repro.inference.pregel_adaptor import GNNInferenceProgram
from repro.inference.strategies import build_strategy_plan
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import MessageBlock


@pytest.fixture()
def graph():
    return labeled_community_graph(num_nodes=60, num_classes=3, feature_dim=6,
                                   avg_degree=4.0, seed=2)


@pytest.fixture()
def sage(graph):
    return build_model("sage", graph.feature_dim, 8, 3, num_layers=2, seed=0)


@pytest.fixture()
def gat(graph):
    return build_model("gat", graph.feature_dim, 8, 3, num_layers=2, seed=0)


class TestPartitionFn:
    def test_integer_keys_by_modulo(self):
        assert _partition_fn(13, 4) == 1
        assert _partition_fn(8, 4) == 0

    def test_broadcast_keys_carry_bucket(self):
        assert _partition_fn(("bc", 2), 8) == 2
        assert _partition_fn(("bc", 11), 8) == 3


class TestCombineMessages:
    def test_folds_only_message_records(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        values = [("m", np.ones(8), 1), ("m", np.ones(8) * 3, 1),
                  ("s", np.zeros(8), np.array([1]), None)]
        combined = _combine_messages(sage, plan, 0, 7, values)
        kinds = sorted(value[0] for _, value in combined)
        assert kinds == ["m", "s"]
        message = [value for _, value in combined if value[0] == "m"][0]
        np.testing.assert_allclose(message[1], np.ones(8) * 4)
        assert message[2] == 2

    def test_passthrough_when_partial_gather_disabled(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=False), False)
        values = [("m", np.ones(8), 1), ("m", np.ones(8), 1)]
        combined = _combine_messages(sage, plan, 0, 7, values)
        assert len(combined) == 2

    def test_single_message_kept_as_is(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        combined = _combine_messages(sage, plan, 0, 7, [("m", np.ones(8), 2)])
        assert combined[0][1][2] == 2

    def test_gat_never_combines(self, graph, gat):
        plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        values = [("m", np.ones(gat.layers[0].message_dim), 1)] * 3
        combined = _combine_messages(gat, plan, 0, 7, values)
        assert len(combined) == 3


class TestGNNRoundJob:
    def test_identity_map_for_later_rounds(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        job = GNNRoundJob(sage, plan, None, layer_index=1, num_reducers=4,
                          original_num_nodes=graph.num_nodes)
        records = [(3, ("m", np.ones(8), 1))]
        assert list(job.map_partition(records, TaskContext("map", 0))) == records

    def test_init_round_emits_state_and_messages(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        job = GNNRoundJob(sage, plan, None, layer_index=0, num_reducers=4,
                          original_num_nodes=graph.num_nodes)
        node_id = 0
        neighbors = graph.out_neighbors(node_id)
        records = [(node_id, (graph.node_features[node_id], neighbors, None))]
        emitted = list(job.map_partition(records, TaskContext("map", 0)))
        kinds = [value[0] for _, value in emitted]
        assert kinds.count("s") == 1
        assert kinds.count("m") == neighbors.size

    def test_combiner_flag_follows_plan(self, graph, sage, gat):
        sage_plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        gat_plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        assert GNNRoundJob(sage, sage_plan, None, 0, 4, graph.num_nodes).has_combiner
        assert not GNNRoundJob(gat, gat_plan, None, 0, 4, graph.num_nodes).has_combiner


class TestPregelProgram:
    def test_supersteps_equal_layers_plus_one(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        assert program.max_supersteps() == 3

    def test_combiner_only_for_partial_layers(self, graph, sage, gat):
        sage_plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        program = GNNInferenceProgram(sage, sage_plan)
        assert program.combiner_for_superstep(0) is not None
        assert program.combiner_for_superstep(2) is None     # final superstep sends nothing
        gat_plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        gat_program = GNNInferenceProgram(gat, gat_plan)
        assert gat_program.combiner_for_superstep(0) is None

    def test_setup_partition_caches_local_indices(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        partition = engine.partitions[0]
        program.setup_partition(partition)
        cached = partition.block_state["out_src_local"]
        np.testing.assert_array_equal(partition.node_ids[cached], partition.out_src)

    def test_assemble_messages_empty(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        local_dst, payload, counts = program._assemble_messages(engine.partitions[0], [])
        assert local_dst.size == 0
        assert payload.shape[0] == 0

    def test_assemble_messages_concatenates_blocks(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        partition = engine.partitions[0]
        owned = partition.node_ids[:2]
        blocks = [MessageBlock(dst_ids=np.array([owned[0]]), payload=np.ones((1, 8))),
                  MessageBlock(dst_ids=np.array([owned[1]]), payload=np.zeros((1, 8)))]
        local_dst, payload, counts = program._assemble_messages(partition, blocks)
        assert payload.shape == (2, 8)
        np.testing.assert_array_equal(local_dst, [0, 1])

    def test_star_hub_broadcast_block_used(self):
        """On an out-degree star with broadcast enabled, the hub's partition
        sends a reference-compressed block (far fewer payload bytes than rows)."""
        star = star_graph(200, direction="out", seed=0)
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        base = InferenceSession(model, InferenceConfig(
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=False))).infer(star)
        broadcast = InferenceSession(model, InferenceConfig(
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=False, broadcast=True,
                                      hub_threshold_override=10))).infer(star)
        hub_worker = 0  # node 0 lives on partition 0 with mod-hash partitioning
        assert (broadcast.metrics.per_instance("bytes_out")[hub_worker]
                < base.metrics.per_instance("bytes_out")[hub_worker])
