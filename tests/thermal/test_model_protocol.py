"""Tests for the thermal model's array API at block and grid resolution.

``HotSpotModel`` has one array-native interface at every resolution:
multi-RHS steady batches against the precomputed inverse, and sequenced
transients through the closed-form eigenbasis evaluation.  The grid
resolution must pass the same count and oracle-parity guards as the block
resolution — the resolution ablation has no physical reason to be slower.
"""

import numpy as np
import pytest

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import KELVIN_OFFSET

from lu_oracle import LuSolver
from unit_readout import unit_celsius


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture(scope="module")
def block_model(mesh):
    return HotSpotModel(mesh)


@pytest.fixture(scope="module")
def grid_model(mesh):
    return HotSpotModel(mesh, resolution=3)


def _power_rows(mesh, count=5):
    rows = np.ones((count, mesh.num_nodes))
    for index in range(count):
        rows[index, index % mesh.num_nodes] = 4.0 + 0.5 * index
    return rows


def _trace(mesh, count=5, duration=1e-3):
    rows = _power_rows(mesh, count)
    return PowerTrace(mesh, np.full(count, duration), rows)


class TestPowerVector:
    """Per-unit power lands on the unit's die cells (``node_power_matrix``)."""

    def test_known_block(self, block_model, mesh):
        row = np.zeros(mesh.num_nodes)
        row[mesh.node_id((0, 0))] = 2.5
        power = block_model.node_power_matrix(row)[0]
        assert power[block_model.network.block_node_index["PE_0_0"]] == 2.5
        assert power.sum() == pytest.approx(2.5)

    def test_grid_cells_share_unit_power(self, grid_model, mesh):
        rows = _power_rows(mesh)
        power = grid_model.node_power_matrix(rows)
        cells_per_unit = grid_model.resolution**2
        assert np.array_equal(
            power[:, grid_model.unit_nodes],
            np.repeat(rows[:, :, np.newaxis] / cells_per_unit, cells_per_unit, axis=2),
        )
        assert np.allclose(power.sum(axis=1), rows.sum(axis=1), rtol=1e-12)

    def test_unknown_block_rejected(self, block_model, mesh):
        with pytest.raises(ValueError):
            block_model.node_power_matrix(np.ones(mesh.num_nodes + 1))

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_negative_power_rejected(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        row = np.ones(mesh.num_nodes)
        row[mesh.node_id((2, 1))] = -1.0
        with pytest.raises(ValueError):
            model.warm_state(row)


class TestSteadyBatch:
    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_batch_matches_per_map_solves(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        rows = _power_rows(mesh)
        batch = model.steady_temperatures(rows)
        assert batch.shape == (rows.shape[0], mesh.num_nodes)
        coords = list(mesh.coordinates())
        for row_index in range(rows.shape[0]):
            power = {coord: rows[row_index, mesh.node_id(coord)] for coord in coords}
            reference = model.steady_state_by_coord(power)
            for unit_index, coord in enumerate(coords):
                assert batch[row_index, unit_index] == pytest.approx(
                    reference[coord], abs=1e-9
                )

    def test_batch_counts_as_one_solve(self, mesh):
        model = HotSpotModel(mesh)
        before = model.solver.steady_solve_count
        model.steady_temperatures(_power_rows(mesh, count=16))
        assert model.solver.steady_solve_count - before == 1

    def test_batch_rejects_negative_power(self, block_model, mesh):
        rows = _power_rows(mesh)
        rows[0, 0] = -1.0
        with pytest.raises(ValueError):
            block_model.steady_temperatures(rows)

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    @pytest.mark.parametrize(
        "value, match", [(np.nan, "NaN"), (np.inf, "NaN"), (-0.5, "negative")]
    )
    def test_batch_rejects_bad_power_uncounted(self, model_fixture, value, match, mesh, request):
        model = request.getfixturevalue(model_fixture)
        rows = _power_rows(mesh)
        rows[1, 3] = value
        before = model.solver.steady_solve_count
        with pytest.raises(ValueError, match=match):
            model.steady_temperatures(rows)
        assert model.solver.steady_solve_count == before

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_batch_rejects_wrong_row_width(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        with pytest.raises(ValueError, match="units per row"):
            model.steady_temperatures(np.ones((2, mesh.num_nodes + 1)))


class TestSequencedTransient:
    def test_grid_one_eigenbasis_for_every_trace(self, mesh, monkeypatch):
        """The grid resolution takes the one closed form: each trace is one
        eigenbasis evaluation, and the basis is decomposed once per solver."""
        decompositions = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda matrix: decompositions.append(1) or eigh(matrix)
        )
        model = HotSpotModel(mesh, resolution=3)
        trace = _trace(mesh, count=8)
        model.transient_sequence(trace, time_step_s=2e-4)
        assert model.solver.spectral_jump_count == 1
        model.transient_sequence(trace, time_step_s=1e-4)
        assert model.solver.spectral_jump_count == 2
        assert len(decompositions) == 1

    def test_grid_spectral_matches_euler(self, mesh):
        """The closed form on the refined network reproduces the stepped
        implicit-Euler trajectory of the LU oracle to <1e-9."""
        model = HotSpotModel(mesh, resolution=2)
        trace = _trace(mesh, count=6)
        state = model.warm_state(trace.powers.mean(axis=0))
        euler = LuSolver(model.network).transient_sequence(
            trace.durations,
            model.node_power_matrix(trace.powers),
            initial_state=state,
            time_step_s=2e-4,
        )
        spectral = model.transient_sequence(
            trace, initial_state=state, time_step_s=2e-4
        )
        assert np.allclose(unit_celsius(model, euler.samples), spectral.samples, atol=1e-9)
        assert np.allclose(euler.final_state_kelvin, spectral.final_state_kelvin, atol=1e-9)

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_interval_ranges_partition_samples(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        trace = _trace(mesh, count=4)
        result = model.transient_sequence(trace, time_step_s=2e-4)
        assert result.starts[0] == 0
        assert result.stops[-1] == len(result.samples)
        assert np.array_equal(result.starts[1:], result.stops[:-1])

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_unit_readout_shape_and_final_state(self, model_fixture, mesh, request):
        """One Celsius column per unit; the carried node state reads out as
        the last sample."""
        model = request.getfixturevalue(model_fixture)
        trace = _trace(mesh, count=3)
        result = model.transient_sequence(trace, time_step_s=2e-4)
        assert result.samples.shape == (result.stops[-1], mesh.num_nodes)
        assert np.isfinite(result.samples).all()
        assert result.final_state_kelvin.shape == (model.network.num_nodes,)
        assert np.allclose(
            unit_celsius(model, result.final_state_kelvin),
            result.samples[-1],
            rtol=0.0,
            atol=1e-9,
        )

    def test_grid_warm_state_is_the_steady_state(self, grid_model, mesh):
        """The warm start's hottest cell per unit is the steady unit reading."""
        row = _power_rows(mesh)[2]
        warm = grid_model.warm_state(row)
        units = warm[grid_model.unit_nodes].max(axis=1) - KELVIN_OFFSET
        assert np.allclose(units, grid_model.steady_temperatures(row)[0], atol=1e-9)

    def test_grid_warm_state_ambient_offset_shifts_every_node(self, grid_model, mesh):
        """``A @ 1 = G_amb``: an ambient offset raises every node by itself."""
        row = _power_rows(mesh)[2]
        shifted = grid_model.warm_state(row, ambient_offset_kelvin=3.0)
        assert np.allclose(shifted, grid_model.warm_state(row) + 3.0, atol=1e-9)
