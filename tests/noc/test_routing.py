"""Tests for the routing algorithms."""

import pytest

from repro.noc.routing import (
    OddEvenRouting,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    available_algorithms,
    make_routing,
)
from repro.noc.topology import Direction, MeshTopology
from reference import hops


@pytest.fixture
def xy(mesh5):
    return XYRouting(mesh5)


class TestXYRouting:
    def test_arrival(self, xy):
        assert xy.route((2, 2), (2, 2)) == Direction.LOCAL

    def test_x_first(self, xy):
        assert xy.route((0, 0), (3, 3)) == Direction.EAST
        assert xy.route((3, 0), (0, 3)) == Direction.WEST

    def test_y_after_x(self, xy):
        assert xy.route((3, 0), (3, 3)) == Direction.NORTH
        assert xy.route((3, 3), (3, 0)) == Direction.SOUTH

    def test_path_is_minimal(self, xy, mesh5):
        for src in [(0, 0), (2, 3), (4, 4)]:
            for dst in [(4, 0), (0, 4), (1, 1)]:
                path = xy.path(src, dst)
                assert path[0] == src
                assert path[-1] == dst
                assert len(path) - 1 == hops(src, dst)

    def test_path_hops_are_adjacent(self, xy, mesh5):
        path = xy.path((0, 0), (4, 3))
        for a, b in zip(path, path[1:]):
            assert hops(a, b) == 1


class TestYXRouting:
    def test_y_first(self, mesh5):
        yx = YXRouting(mesh5)
        assert yx.route((0, 0), (3, 3)) == Direction.NORTH
        assert yx.route((0, 3), (3, 3)) == Direction.EAST

    def test_reaches_destination(self, mesh5):
        yx = YXRouting(mesh5)
        path = yx.path((4, 4), (0, 0))
        assert path[-1] == (0, 0)
        assert len(path) - 1 == 8


class TestWestFirst:
    def test_west_taken_first(self, mesh5):
        wf = WestFirstRouting(mesh5)
        outputs = wf.candidate_outputs((3, 0), (1, 3))
        assert outputs == [Direction.WEST]

    def test_adaptive_when_no_west(self, mesh5):
        wf = WestFirstRouting(mesh5)
        outputs = wf.candidate_outputs((0, 0), (3, 3))
        assert Direction.EAST in outputs
        assert Direction.NORTH in outputs

    def test_path_terminates(self, mesh5):
        wf = WestFirstRouting(mesh5)
        assert wf.path((4, 0), (0, 4))[-1] == (0, 4)


class TestOddEven:
    def test_reaches_destination_everywhere(self, mesh5):
        oe = OddEvenRouting(mesh5)
        for src in mesh5.coordinates():
            for dst in mesh5.coordinates():
                if src == dst:
                    continue
                path = oe.path(src, dst)
                assert path[-1] == dst
                # Odd-even is minimal in this implementation.
                assert len(path) - 1 == hops(src, dst)

    def test_arrival_is_local(self, mesh5):
        oe = OddEvenRouting(mesh5)
        assert oe.candidate_outputs((1, 1), (1, 1)) == [Direction.LOCAL]


class TestFactory:
    def test_available_algorithms(self):
        assert set(available_algorithms()) == {"xy", "yx", "west-first", "odd-even"}

    def test_make_routing(self, mesh4):
        for name in available_algorithms():
            algorithm = make_routing(name, mesh4)
            assert algorithm.name == name

    def test_unknown_algorithm(self, mesh4):
        with pytest.raises(ValueError):
            make_routing("spiral", mesh4)


class TestDeterminismAndMinimality:
    def test_xy_deterministic_single_candidate(self, mesh5):
        xy = XYRouting(mesh5)
        for src in mesh5.coordinates():
            for dst in mesh5.coordinates():
                candidates = xy.candidate_outputs(src, dst)
                assert len(candidates) == 1

    def test_all_algorithms_reach_all_destinations(self, mesh4):
        for name in available_algorithms():
            algorithm = make_routing(name, mesh4)
            for src in mesh4.coordinates():
                for dst in mesh4.coordinates():
                    if src == dst:
                        continue
                    assert algorithm.path(src, dst)[-1] == dst


MESHES = [(4, 4), (5, 5), (3, 2), (6, 3)]
by_mesh = pytest.mark.parametrize("width,height", MESHES, ids=[f"{w}x{h}" for w, h in MESHES])


def channel_dependencies(topology, outputs):
    """Channel dependency graph: each link ``(u, v)`` -> the links a packet
    holding it may request next, over every destination, where
    ``outputs(current, destination)`` lists the directions a packet may take."""
    graph = {}
    for destination in topology.coordinates():
        for current in topology.coordinates():
            if current == destination:
                continue
            for first in outputs(current, destination):
                nxt = topology.neighbor(current, first)
                graph.setdefault((current, nxt), set())
                if nxt == destination:
                    continue
                for second in outputs(nxt, destination):
                    graph[(current, nxt)].add((nxt, topology.neighbor(nxt, second)))
    return graph


def has_cycle(graph):
    """True when the directed ``graph`` (node -> successors) has a cycle."""
    state = {}
    for root in graph:
        if root in state:
            continue
        state[root] = "open"
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            for successor in successors:
                if state.get(successor) == "open":
                    return True
                if successor not in state:
                    state[successor] = "open"
                    stack.append((successor, iter(graph.get(successor, ()))))
                    break
            else:
                state[node] = "done"
                stack.pop()
    return False


class TestDeadlockFreedom:
    """A wormhole network cannot deadlock when the channel dependency graph
    of its routing function is acyclic (Dally and Seitz)."""

    def test_cycle_check_finds_a_cycle(self):
        ring = {"a": {"b"}, "b": {"c"}, "c": {"a"}}
        assert has_cycle(ring)
        assert not has_cycle({"a": {"b"}, "b": {"c"}, "c": set()})

    @pytest.mark.parametrize("name", available_algorithms())
    @by_mesh
    def test_taken_routes_are_deadlock_free(self, name, width, height):
        """The route each engine and the analytic model follow (the first
        candidate output)."""
        topology = MeshTopology(width, height)
        routing = make_routing(name, topology)
        graph = channel_dependencies(
            topology, lambda current, dst: [routing.route(current, dst)]
        )
        assert not has_cycle(graph)

    @pytest.mark.parametrize("name", ["xy", "yx", "west-first"])
    @by_mesh
    def test_every_candidate_route_is_deadlock_free(self, name, width, height):
        topology = MeshTopology(width, height)
        routing = make_routing(name, topology)
        assert not has_cycle(channel_dependencies(topology, routing.candidate_outputs))


class TestCandidateOutputs:
    @pytest.mark.parametrize("name", available_algorithms())
    @by_mesh
    def test_every_candidate_is_productive(self, name, width, height):
        """Adaptive or not, every output an algorithm offers stays in the mesh
        and takes one hop closer, and ``route`` takes the first of them."""
        topology = MeshTopology(width, height)
        routing = make_routing(name, topology)
        for current in topology.coordinates():
            for destination in topology.coordinates():
                candidates = routing.candidate_outputs(current, destination)
                assert routing.route(current, destination) == candidates[0]
                if current == destination:
                    assert candidates == [Direction.LOCAL]
                    continue
                assert len(set(candidates)) == len(candidates)
                for direction in candidates:
                    nxt = topology.neighbor(current, direction)
                    assert hops(nxt, destination) == hops(current, destination) - 1
