"""Tests for the mesh topology."""

import pytest

from repro.noc.topology import Direction, MeshTopology


class TestConstruction:
    def test_dimensions(self, mesh4):
        assert mesh4.width == 4
        assert mesh4.height == 4
        assert mesh4.num_nodes == 16

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 3)
        with pytest.raises(ValueError):
            MeshTopology(3, -1)

    def test_square_detection(self, mesh4, mesh3x2):
        assert mesh4.is_square
        assert not mesh3x2.is_square

    def test_center(self, mesh5):
        assert mesh5.center == (2, 2)


class TestCoordinateConversion:
    def test_node_id_round_trip(self, mesh5):
        for coord in mesh5.coordinates():
            assert mesh5.coordinate(mesh5.node_id(coord)) == coord

    def test_row_major_order(self, mesh4):
        assert mesh4.node_id((0, 0)) == 0
        assert mesh4.node_id((3, 0)) == 3
        assert mesh4.node_id((0, 1)) == 4
        assert mesh4.node_id((3, 3)) == 15

    def test_out_of_range_coordinate(self, mesh4):
        with pytest.raises(ValueError):
            mesh4.node_id((4, 0))
        with pytest.raises(ValueError):
            mesh4.node_id((0, -1))

    def test_out_of_range_node_id(self, mesh4):
        with pytest.raises(ValueError):
            mesh4.coordinate(16)

    def test_coordinates_cover_all_nodes(self, mesh3x2):
        coords = list(mesh3x2.coordinates())
        assert len(coords) == 6
        assert len(set(coords)) == 6


class TestNeighbors:
    def test_interior_degree(self, mesh4):
        assert len(mesh4.neighbors((1, 1))) == 4

    def test_corner_degree(self, mesh4):
        assert len(mesh4.neighbors((0, 0))) == 2
        assert len(mesh4.neighbors((3, 3))) == 2

    def test_edge_degree(self, mesh4):
        assert len(mesh4.neighbors((1, 0))) == 3

    def test_links_count(self, mesh4, mesh3x2):
        # 2 * (W-1) * H horizontal + 2 * W * (H-1) vertical unidirectional links.
        for mesh in (mesh4, mesh3x2):
            w, h = mesh.width, mesh.height
            links = sum(len(mesh.neighbors(coord)) for coord in mesh.coordinates())
            assert links == 2 * (w - 1) * h + 2 * w * (h - 1)

    def test_neighbors_are_symmetric(self, mesh3x2):
        for coord in mesh3x2.coordinates():
            for neighbor in mesh3x2.neighbors(coord).values():
                assert coord in mesh3x2.neighbors(neighbor).values()

    def test_neighbor_directions(self, mesh4):
        neighbors = mesh4.neighbors((1, 1))
        assert neighbors[Direction.EAST] == (2, 1)
        assert neighbors[Direction.WEST] == (0, 1)
        assert neighbors[Direction.NORTH] == (1, 2)
        assert neighbors[Direction.SOUTH] == (1, 0)

    def test_neighbor_raises_outside(self, mesh4):
        with pytest.raises(ValueError):
            mesh4.neighbor((0, 0), Direction.WEST)

    def test_neighbor_rejects_local(self, mesh4):
        with pytest.raises(ValueError):
            mesh4.neighbor((1, 1), Direction.LOCAL)

    def test_diameter(self, mesh4, mesh5):
        assert mesh4.diameter() == 6
        assert mesh5.diameter() == 8
