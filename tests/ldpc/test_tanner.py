"""Tests for the Tanner graph."""

import pytest

from repro.ldpc.tanner import TannerNode


class TestTannerNode:
    def test_kinds(self):
        v = TannerNode("v", 3)
        c = TannerNode("c", 1)
        assert v.is_variable
        assert not c.is_variable

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TannerNode("x", 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            TannerNode("v", -1)

    def test_hashable_and_equal(self):
        assert TannerNode("v", 2) == TannerNode("v", 2)
        assert len({TannerNode("v", 2), TannerNode("v", 2), TannerNode("c", 2)}) == 2


class TestTannerGraph:
    @pytest.fixture
    def graph(self, small_code):
        _H, graph = small_code
        return graph

    def test_node_counts(self, graph, small_code):
        H, _ = small_code
        m, n = H.shape
        assert graph.n == n
        assert graph.m == m
        assert graph.num_nodes == n + m
        assert len(graph.all_nodes()) == n + m

    def test_edge_count_matches_ones(self, graph, small_code):
        H, _ = small_code
        assert graph.num_edges == int(H.sum())
        assert len(list(graph.edges())) == graph.num_edges

    def test_adjacency_consistency(self, graph):
        # Every (variable, check) adjacency must appear in both directions.
        for j, checks in enumerate(graph.checks_of_variable):
            for i in checks:
                assert j in graph.variables_of_check[i]

    def test_degree_matches_matrix(self, graph, small_code):
        H, _ = small_code
        for j in range(graph.n):
            assert graph.degree(graph.variable_nodes[j]) == H[:, j].sum()
        for i in range(graph.m):
            assert graph.degree(graph.check_nodes[i]) == H[i, :].sum()

    def test_neighbors_are_opposite_kind(self, graph):
        v = graph.variable_nodes[0]
        assert not any(n.is_variable for n in graph.neighbors(v))
        c = graph.check_nodes[0]
        assert all(n.is_variable for n in graph.neighbors(c))
