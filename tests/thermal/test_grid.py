"""Tests for the thermal model at grid resolution (units meshed into cells)."""

import numpy as np
import pytest

from repro.chips import all_configurations
from repro.migration.transforms import XYShiftTransform
from repro.power.trace import map_to_vector
from repro.thermal.floorplan import mesh_floorplan, parent_block_name, refine_floorplan
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import KELVIN_OFFSET


def _cell_celsius(model, power_by_coord):
    """``(num_units, resolution**2)`` steady cell temperatures in Celsius."""
    row = map_to_vector(model.topology, power_by_coord)
    kelvin = model.solver.steady_state_batch(model.node_power_matrix(row))[0]
    return kelvin[model.unit_nodes] - KELVIN_OFFSET


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


class TestGridResolution:
    @pytest.fixture(scope="class")
    def grid3(self):
        from repro.noc.topology import MeshTopology

        return HotSpotModel(MeshTopology(4, 4), resolution=3)

    def test_num_cells(self, grid3):
        assert grid3.unit_nodes.shape == (16, 9)
        assert len(set(grid3.unit_nodes.ravel())) == 16 * 9

    def test_uniform_power_nearly_uniform_temperature(self, grid3, mesh4):
        power = {coord: 2.0 for coord in mesh4.coordinates()}
        cells = _cell_celsius(grid3, power)
        assert cells.max() - cells.mean(axis=1).min() < 2.0

    def test_hotspot_block_is_hottest(self, grid3, mesh4):
        power = {coord: 1.0 for coord in mesh4.coordinates()}
        power[(2, 1)] = 6.0
        temps = grid3.steady_state_by_coord(power)
        assert max(temps, key=temps.get) == (2, 1)

    def test_peak_at_least_block_mean(self, grid3, mesh4):
        """Each unit reads as its hottest cell, never below its cell mean."""
        power = {coord: 1.0 for coord in mesh4.coordinates()}
        power[(1, 1)] = 5.0
        cells = _cell_celsius(grid3, power)
        peaks = grid3.steady_temperatures(map_to_vector(mesh4, power))[0]
        # The unit-space operator sums in another order than the node solve.
        np.testing.assert_allclose(peaks, cells.max(axis=1), rtol=1e-12, atol=0.0)
        assert (peaks >= cells.mean(axis=1) - 1e-9).all()

    def test_close_to_block_model(self, mesh4):
        """The grid model's cell means track the block model's temperatures
        (same physics, finer discretisation)."""
        power = {coord: 1.5 for coord in mesh4.coordinates()}
        power[(3, 2)] = 4.0
        block_model = HotSpotModel(mesh4)
        grid_model = HotSpotModel(mesh4, resolution=2)
        block_temps = block_model.steady_state_by_coord(power)
        grid_means = _cell_celsius(grid_model, power).mean(axis=1)
        for unit, coord in enumerate(mesh4.coordinates()):
            assert grid_means[unit] == pytest.approx(block_temps[coord], abs=2.5)

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
            grid = HotSpotModel(chip.topology, resolution=3, package=block.package)
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
        grid_model = HotSpotModel(mesh4, resolution=3)
        power = {coord: 0.5 for coord in mesh4.coordinates()}
        power[(1, 2)] = 6.0
        hot = _cell_celsius(grid_model, power)[mesh4.node_id((1, 2))]
        assert hot.max() > hot.mean() + 0.05

    def test_input_validation(self, mesh4):
        grid_model = HotSpotModel(mesh4, resolution=2)
        with pytest.raises(ValueError):
            grid_model.steady_state_by_coord({(9, 9): 1.0})
        with pytest.raises(ValueError):
            grid_model.steady_state_by_coord({(0, 0): -1.0})
        with pytest.raises(ValueError):
            HotSpotModel(mesh4, resolution=0)
