"""Tests for Tanner-graph partitioning onto PEs."""

import numpy as np
import pytest

from repro.ldpc.matrix import array_code_parity_matrix
from repro.ldpc.partition import (
    Partition,
    clustered_partition,
    interleaved_partition,
    make_partition,
    striped_partition,
)
from repro.ldpc.tanner import TannerGraph


@pytest.fixture(scope="module")
def graph():
    return TannerGraph(array_code_parity_matrix(p=7, j=3, k=6))


ALL_STRATEGIES = ["striped", "interleaved", "clustered"]


class TestPartitionInvariants:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_every_node_assigned(self, graph, strategy):
        partition = make_partition(strategy, graph, num_tasks=16, seed=1)
        assert len(partition.task_of_node) == graph.num_nodes
        assert sum(partition.task_sizes()) == graph.num_nodes

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_task_ids_in_range(self, graph, strategy):
        partition = make_partition(strategy, graph, num_tasks=16, seed=1)
        assert set(partition.task_of_node.values()) <= set(range(16))

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_cut_edges_are_the_edges_between_tasks(self, graph, strategy):
        partition = make_partition(strategy, graph, num_tasks=16, seed=2)
        task = partition.task_of_node
        assert partition.cut_edges() == sum(
            task[v_node] != task[c_node] for v_node, c_node in graph.edges()
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_traffic_matrix_symmetric_in_totals(self, graph, strategy):
        partition = make_partition(strategy, graph, num_tasks=16, seed=3)
        matrix = partition.traffic_matrix()
        # Every cut edge contributes exactly one message in each direction.
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_computation_weights_sum_to_total_degree(self, graph, strategy):
        partition = make_partition(strategy, graph, num_tasks=16, seed=4)
        assert partition.computation_weights().sum() == pytest.approx(2 * graph.num_edges)


class TestSpecificStrategies:
    def test_striped_keeps_contiguous_blocks(self, graph):
        partition = striped_partition(graph, 4)
        # The first quarter of variable nodes must share a task.
        first_quarter = graph.variable_nodes[: graph.n // 4]
        tasks = {partition.task_of_node[node] for node in first_quarter}
        assert len(tasks) == 1

    def test_interleaved_spreads_neighbours(self, graph):
        striped = striped_partition(graph, 16)
        interleaved = interleaved_partition(graph, 16)
        assert interleaved.cut_edges() >= striped.cut_edges()

    def test_clustered_reproducible_with_seed(self, graph):
        a = clustered_partition(graph, 16, seed=9)
        b = clustered_partition(graph, 16, seed=9)
        assert a.task_of_node == b.task_of_node


class TestConstructionErrors:
    def test_unknown_strategy(self, graph):
        with pytest.raises(ValueError):
            make_partition("metis", graph, 16)

    def test_incomplete_assignment_rejected(self, graph):
        assignment = {node: 0 for node in graph.all_nodes()}
        assignment.pop(graph.variable_nodes[0])
        with pytest.raises(ValueError):
            Partition(graph=graph, num_tasks=4, task_of_node=assignment)

    def test_out_of_range_task_rejected(self, graph):
        assignment = {node: 0 for node in graph.all_nodes()}
        assignment[graph.variable_nodes[0]] = 99
        with pytest.raises(ValueError):
            Partition(graph=graph, num_tasks=4, task_of_node=assignment)

    def test_load_imbalance_at_least_one(self, graph):
        partition = striped_partition(graph, 16)
        assert partition.load_imbalance() >= 1.0
