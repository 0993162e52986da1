"""Tests for floorplan construction."""

import math

import pytest

from repro.noc.topology import MeshTopology
from repro.thermal.floorplan import Block, Floorplan, block_name_for, mesh_floorplan


class TestBlock:
    def test_area_and_center(self):
        block = Block("b", x=0.0, y=0.0, width=2e-3, height=1e-3)
        assert block.area == pytest.approx(2e-6)
        assert block.center == (1e-3, 0.5e-3)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            Block("b", 0, 0, 0, 1)
        with pytest.raises(ValueError):
            Block("b", 0, 0, 1, -1)

    def test_shared_edge_side_by_side(self):
        a = Block("a", 0, 0, 1.0, 1.0)
        b = Block("b", 1.0, 0, 1.0, 1.0)
        assert a.shared_edge_length(b) == pytest.approx(1.0)
        assert b.shared_edge_length(a) == pytest.approx(1.0)

    def test_shared_edge_stacked(self):
        a = Block("a", 0, 0, 2.0, 1.0)
        b = Block("b", 0.5, 1.0, 1.0, 1.0)
        assert a.shared_edge_length(b) == pytest.approx(1.0)

    def test_no_shared_edge_when_apart(self):
        a = Block("a", 0, 0, 1.0, 1.0)
        b = Block("b", 3.0, 3.0, 1.0, 1.0)
        assert a.shared_edge_length(b) == 0.0

    def test_diagonal_touch_is_not_adjacency(self):
        a = Block("a", 0, 0, 1.0, 1.0)
        b = Block("b", 1.0, 1.0, 1.0, 1.0)
        assert a.shared_edge_length(b) == 0.0


class TestFloorplan:
    def test_requires_blocks(self):
        with pytest.raises(ValueError):
            Floorplan([])

    def test_unique_names(self):
        blocks = [Block("a", 0, 0, 1, 1), Block("a", 1, 0, 1, 1)]
        with pytest.raises(ValueError):
            Floorplan(blocks)

    def test_total_area(self):
        plan = Floorplan([Block("a", 0, 0, 1, 1), Block("b", 1, 0, 2, 1)])
        assert plan.total_area == pytest.approx(3.0)

    def test_bounding_box(self):
        plan = Floorplan([Block("a", 0, 0, 1, 1), Block("b", 1, 0, 1, 2)])
        assert plan.bounding_box == (0, 0, 2, 2)

    def test_adjacency_keys_sorted(self):
        plan = Floorplan([Block("b", 1, 0, 1, 1), Block("a", 0, 0, 1, 1)])
        adjacency = plan.adjacency()
        assert ("a", "b") in adjacency

    def test_overlap_detection(self):
        plan = Floorplan([Block("a", 0, 0, 2, 2), Block("b", 1, 1, 2, 2)])
        with pytest.raises(ValueError):
            plan.validate_no_overlap()

    def test_touching_blocks_do_not_overlap(self):
        plan = Floorplan([Block("a", 0, 0, 1, 1), Block("b", 1, 0, 1, 1)])
        plan.validate_no_overlap()


class TestMeshFloorplan:
    def test_block_per_node(self, mesh4):
        plan = mesh_floorplan(mesh4)
        assert len(plan) == 16

    def test_unit_area_matches_paper(self, mesh4):
        plan = mesh_floorplan(mesh4, unit_area_mm2=4.36)
        for block in plan:
            assert block.area == pytest.approx(4.36e-6, rel=1e-9)

    def test_total_area_scales_with_mesh(self, mesh5):
        plan = mesh_floorplan(mesh5, unit_area_mm2=4.36)
        assert plan.total_area == pytest.approx(25 * 4.36e-6, rel=1e-9)

    def test_block_naming(self, mesh4):
        plan = mesh_floorplan(mesh4)
        assert plan.block(block_name_for((2, 3))).name == "PE_2_3"

    def test_adjacency_count(self, mesh4):
        plan = mesh_floorplan(mesh4)
        # Undirected adjacencies = (W-1)*H + W*(H-1).
        assert len(plan.adjacency()) == 3 * 4 + 4 * 3

    def test_rejects_bad_area(self, mesh4):
        with pytest.raises(ValueError):
            mesh_floorplan(mesh4, unit_area_mm2=0)
