"""Tests for the grid-mode (refined) thermal model."""

import pytest

from repro.chips import all_configurations
from repro.migration.transforms import XYShiftTransform
from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.grid import GridThermalModel, parent_block_name, refine_floorplan
from repro.thermal.hotspot import HotSpotModel


class TestRefineFloorplan:
    def test_cell_count(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=3)
        assert len(refined) == 16 * 9

    def test_resolution_one_is_identity(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=1)
        assert refined.names() == plan.names()

    def test_total_area_preserved(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=4)
        assert refined.total_area == pytest.approx(plan.total_area, rel=1e-9)

    def test_cells_do_not_overlap(self, mesh5):
        refined = refine_floorplan(mesh_floorplan(mesh5), resolution=2)
        refined.validate_no_overlap()

    def test_parent_names_recoverable(self, mesh4):
        refined = refine_floorplan(mesh_floorplan(mesh4), resolution=2)
        parents = {parent_block_name(cell.name) for cell in refined}
        assert parents == set(mesh_floorplan(mesh4).names())

    def test_rejects_bad_resolution(self, mesh4):
        with pytest.raises(ValueError):
            refine_floorplan(mesh_floorplan(mesh4), resolution=0)


class TestGridThermalModel:
    @pytest.fixture(scope="class")
    def grid3(self):
        from repro.noc.topology import MeshTopology

        return GridThermalModel(MeshTopology(4, 4), resolution=3)

    def test_num_cells(self, grid3):
        assert grid3.num_cells == 16 * 9

    def test_uniform_power_nearly_uniform_temperature(self, grid3, mesh4):
        power = {coord: 2.0 for coord in mesh4.coordinates()}
        result = grid3.steady_state(power)
        assert result.peak_celsius - min(result.block_mean_celsius.values()) < 2.0

    def test_hotspot_block_is_hottest(self, grid3, mesh4):
        power = {coord: 1.0 for coord in mesh4.coordinates()}
        power[(2, 1)] = 6.0
        result = grid3.steady_state(power)
        assert result.hottest_block() == "PE_2_1"

    def test_peak_at_least_block_mean(self, grid3, mesh4):
        power = {coord: 1.0 for coord in mesh4.coordinates()}
        power[(1, 1)] = 5.0
        result = grid3.steady_state(power)
        for block in result.block_peak_celsius:
            assert result.block_peak_celsius[block] >= result.block_mean_celsius[block] - 1e-9

    def test_close_to_block_model(self, mesh4):
        """The grid model's block means track the block model's temperatures
        (same physics, finer discretisation)."""
        power = {coord: 1.5 for coord in mesh4.coordinates()}
        power[(3, 2)] = 4.0
        block_model = HotSpotModel(mesh4)
        grid_model = GridThermalModel(mesh4, resolution=2)
        block_temps = block_model.steady_state_by_coord(power)
        grid_means = grid_model.steady_state_by_coord(power, statistic="mean")
        for coord in mesh4.coordinates():
            assert grid_means[coord] == pytest.approx(block_temps[coord], abs=2.5)

    def test_migration_benefit_is_resolution_independent(self):
        """On chips A-E the 3x3-refined grid agrees with the block model on
        the static peak within 1 C and on the X-Y shift reduction (orbit-
        averaged power, migration energy excluded) within 1.5 C."""
        for chip in all_configurations():
            transform = XYShiftTransform(chip.topology)
            mapping = chip.static_mapping
            migrated = dict.fromkeys(chip.topology.coordinates(), 0.0)
            for _ in range(transform.order()):
                mapping = mapping.apply_transform(transform)
                for coord, watts in chip.power_map(mapping).items():
                    migrated[coord] += watts / transform.order()
            static = chip.power_map()
            block = chip.thermal_model
            grid = GridThermalModel(
                chip.topology, resolution=3, package=block.package
            )
            block_peak = block.peak_temperature(static)
            grid_peak = grid.peak_temperature(static)
            block_reduction = block_peak - block.peak_temperature(migrated)
            grid_reduction = grid_peak - grid.peak_temperature(migrated)
            assert grid_peak == pytest.approx(block_peak, abs=1.0), chip.name
            assert grid_reduction == pytest.approx(block_reduction, abs=1.5)
            if block_reduction > 1.0:
                assert grid_reduction > 0.5, chip.name

    def test_grid_reveals_intra_block_gradient(self, mesh4):
        """A hot unit next to cool neighbours shows an internal gradient: its
        peak cell is hotter than its mean."""
        grid_model = GridThermalModel(mesh4, resolution=3)
        power = {coord: 0.5 for coord in mesh4.coordinates()}
        power[(1, 2)] = 6.0
        result = grid_model.steady_state(power)
        assert result.block_peak_celsius["PE_1_2"] > result.block_mean_celsius["PE_1_2"] + 0.05

    def test_by_coord_statistics(self, mesh4):
        grid_model = GridThermalModel(mesh4, resolution=2)
        power = {coord: 2.0 for coord in mesh4.coordinates()}
        peaks = grid_model.steady_state_by_coord(power, statistic="peak")
        means = grid_model.steady_state_by_coord(power, statistic="mean")
        assert set(peaks) == set(mesh4.coordinates())
        for coord in mesh4.coordinates():
            assert peaks[coord] >= means[coord] - 1e-9

    def test_input_validation(self, mesh4):
        grid_model = GridThermalModel(mesh4, resolution=2)
        with pytest.raises(ValueError):
            grid_model.steady_state({(9, 9): 1.0})
        with pytest.raises(ValueError):
            grid_model.steady_state({(0, 0): -1.0})
        with pytest.raises(ValueError):
            GridThermalModel(mesh4, resolution=0)
