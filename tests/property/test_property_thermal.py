"""Property-based tests for the thermal model (hypothesis)."""

import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.chips import get_configuration
from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import KELVIN_OFFSET

# The LU-factorisation solves the dense operators replaced.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "thermal"))
from lu_oracle import LuSolver  # noqa: E402
from unit_readout import unit_celsius  # noqa: E402

# Shared 4x4 model: building the RC network is the expensive part, the solves
# are cheap, so hypothesis examples reuse one instance.
_MESH = MeshTopology(4, 4)
_MODEL = HotSpotModel(_MESH)

power_values = st.floats(min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False)
power_maps = st.lists(power_values, min_size=16, max_size=16)


def _to_map(values):
    return {coord: values[_MESH.node_id(coord)] for coord in _MESH.coordinates()}


class TestSteadyStateProperties:
    @given(values=power_maps)
    @settings(max_examples=40, deadline=None)
    def test_temperatures_never_below_ambient(self, values):
        temps = _MODEL.steady_state_by_coord(_to_map(values))
        assert all(t >= 40.0 - 1e-6 for t in temps.values())

    @given(values=power_maps, scale=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_of_temperature_rise(self, values, scale):
        base = _to_map(values)
        scaled = {coord: watts * scale for coord, watts in base.items()}
        base_peak_rise = _MODEL.peak_temperature(base) - 40.0
        scaled_peak_rise = _MODEL.peak_temperature(scaled) - 40.0
        assert np.isclose(scaled_peak_rise, scale * base_peak_rise, rtol=1e-6, atol=1e-9)

    @given(values=power_maps, extra=st.floats(0.1, 5.0), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_adding_power_never_cools(self, values, extra, data):
        base = _to_map(values)
        target = data.draw(st.sampled_from(list(_MESH.coordinates())))
        hotter = dict(base)
        hotter[target] = hotter[target] + extra
        base_temps = _MODEL.steady_state_by_coord(base)
        hot_temps = _MODEL.steady_state_by_coord(hotter)
        # Every unit's temperature is a non-decreasing function of any unit's power.
        for coord in _MESH.coordinates():
            assert hot_temps[coord] >= base_temps[coord] - 1e-9

    @given(values=power_maps)
    @settings(max_examples=30, deadline=None)
    def test_peak_is_max_of_map(self, values):
        power = _to_map(values)
        temps = _MODEL.steady_state_by_coord(power)
        assert _MODEL.peak_temperature(power) == max(temps.values())


class TestEnergyConservation:
    @given(values=power_maps)
    @settings(max_examples=20, deadline=None)
    def test_heat_flow_to_ambient_matches_input_power(self, values):
        """In steady state, all dissipated power leaves through the sink's
        convection resistance: (T_sink - T_amb) / R_conv == total power."""
        total_power = sum(values)
        network = _MODEL.network
        node_kelvin = _MODEL.solver.steady_state_batch(_MODEL.node_power_matrix(values))[0]
        sink_index = network.num_nodes - 1
        sink_kelvin = node_kelvin[sink_index]
        conduction = network.ambient_conductance[sink_index] * (
            sink_kelvin - network.ambient_kelvin
        )
        assert np.isclose(conduction, total_power, rtol=1e-6, atol=1e-9)


class TestPermutationInvariance:
    @given(values=power_maps, seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_total_rise_bounded_by_uniform_equivalents(self, values, seed):
        """Rearranging the same power values over the die changes the peak but
        never the total dissipated power, so the sink temperature is identical
        and the mean die temperature moves only a little."""
        rng = np.random.default_rng(seed)
        base = _to_map(values)
        permuted_values = rng.permutation(values)
        permuted = _to_map(list(permuted_values))
        base_temps = _MODEL.steady_state_by_coord(base)
        perm_temps = _MODEL.steady_state_by_coord(permuted)
        assert np.isclose(
            np.mean(list(base_temps.values())),
            np.mean(list(perm_temps.values())),
            atol=1.5,
        )


# ----------------------------------------------------------------------
# Generated-input oracle: the model at every resolution against the LU
# solves and the LU-factored implicit-Euler loop.
# ----------------------------------------------------------------------
#: The paper's migration periods, and the served steps (a period over 4 or
#: 8 steps), so draws often share a step size across intervals.
_PERIODS_S = (109e-6, 437.2e-6, 874.4e-6)
_STEPS_S = (109e-6 / 4, 109e-6 / 8)


@lru_cache(maxsize=None)
def _chip_model(chip_name, resolution):
    """One model per (chip, resolution), shared across examples."""
    chip = get_configuration(chip_name)
    return HotSpotModel(
        chip.topology,
        package=chip.thermal_model.package,
        floorplan=chip.thermal_model.floorplan,
        resolution=resolution,
    )


@lru_cache(maxsize=None)
def _lu_oracle(chip_name, resolution):
    return LuSolver(_chip_model(chip_name, resolution).network)


chip_resolutions = st.tuples(st.sampled_from("ABCDE"), st.integers(1, 4))
#: Transient windows stay at resolutions 1-3, where the LU oracle's
#: step-by-step loop is quick.
window_chips = st.tuples(st.sampled_from("ABCDE"), st.integers(1, 3))


def _power_rows(data, model, count):
    """``(count, num_units)`` generated non-negative power rows."""
    return data.draw(arrays(float, (count, model.topology.num_nodes), elements=power_values))


class TestModelOracle:
    @given(
        key=chip_resolutions,
        count=st.integers(1, 4),
        offset=st.floats(-10.0, 10.0),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_steady_matches_lu_oracle(self, key, count, offset, data):
        model = _chip_model(*key)
        oracle = _lu_oracle(*key)
        rows = _power_rows(data, model, count)
        node_rows = model.node_power_matrix(rows)
        kelvin = oracle.steady_state_batch(node_rows)
        expected = kelvin[:, model.unit_nodes].max(axis=-1) - KELVIN_OFFSET
        assert np.allclose(model.steady_temperatures(rows), expected, rtol=1e-10, atol=0.0)
        # The warm state's ambient offset is the same affine boundary term.
        shifted = node_rows[0] + offset * model.network.ambient_conductance
        assert np.allclose(
            model.warm_state(rows[0], ambient_offset_kelvin=offset),
            oracle.steady_state_batch(shifted[np.newaxis, :])[0],
            rtol=1e-10,
            atol=0.0,
        )

    @given(key=chip_resolutions, count=st.integers(1, 4), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_unit_operator_matches_node_solve(self, key, count, data):
        """``rows @ R + T0`` is the node-space solve read at each unit's hottest cell."""
        model = _chip_model(*key)
        rows = _power_rows(data, model, count)
        kelvin = model.solver.steady_state_batch(model.node_power_matrix(rows))
        expected = kelvin[:, model.unit_nodes].max(axis=-1) - KELVIN_OFFSET
        np.testing.assert_allclose(
            model.steady_temperatures(rows), expected, rtol=1e-12, atol=0.0
        )

    @given(
        key=window_chips,
        durations=st.lists(
            st.sampled_from(_PERIODS_S) | st.floats(1e-6, 2e-3), min_size=1, max_size=12
        ),
        shared=st.booleans(),
        time_step_s=st.none() | st.sampled_from(_STEPS_S) | st.floats(2e-5, 1e-3),
        warm=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_window_matches_lu_oracle(self, key, durations, shared, time_step_s, warm, data):
        """The model's transient window against the LU-factored Euler loop.

        Shared steps (every interval one duration, so one ``(dt, steps)``
        table) and mixed ones (default steps differ per duration; an
        explicit step is clamped to short intervals), ambient offsets or
        none, cold or warm start.  The readout an epoch loop reduces -- each
        epoch's peak over its samples (t=0 included), its last row -- and
        the carried node state are within 1e-9 K of the oracle's, and an
        interval's t=0 row is the previous interval's last row exactly.  The
        node-space ``transient_sequence``, the same closed form read out at
        every node, matches the oracle's trajectory too.
        """
        if shared:
            durations = durations[:1] * len(durations)
        model = _chip_model(*key)
        powers = _power_rows(data, model, len(durations))
        node_powers = model.node_power_matrix(powers)
        offsets = data.draw(
            st.none() | arrays(float, len(durations), elements=st.floats(-10.0, 10.0))
        )
        initial = (
            model.warm_state(
                powers.mean(axis=0),
                ambient_offset_kelvin=0.0 if offsets is None else offsets[0],
            )
            if warm
            else None
        )
        window = dict(
            initial_state=initial, time_step_s=time_step_s, ambient_offsets_kelvin=offsets
        )
        result = model.transient_sequence(
            PowerTrace(model.topology, durations, powers), **window
        )
        expected = _lu_oracle(*key).transient_sequence(durations, node_powers, **window)
        assert np.array_equal(result.starts, expected.starts)
        assert np.array_equal(result.stops, expected.stops)
        units = unit_celsius(model, expected.samples)
        bounds = list(zip(expected.starts, expected.stops))
        assert np.allclose(
            [result.samples[a:b].max() for a, b in bounds],
            [units[a:b].max() for a, b in bounds],
            rtol=0.0,
            atol=1e-9,
        )
        last = expected.stops - 1
        assert np.allclose(result.samples[last], units[last], rtol=0.0, atol=1e-9)
        assert np.allclose(result.samples, units, rtol=0.0, atol=1e-9)
        assert np.allclose(
            result.final_state_kelvin, expected.final_state_kelvin, rtol=0.0, atol=1e-9
        )
        if initial is not None:
            assert np.array_equal(result.samples[0], unit_celsius(model, initial))
        # Each interval starts exactly where the previous one ended.
        assert np.array_equal(
            result.samples[result.starts[1:]], result.samples[result.stops[:-1] - 1]
        )
        nodes = model.solver.transient_sequence(durations, node_powers, **window)
        assert np.array_equal(nodes.stops, expected.stops)
        assert np.allclose(nodes.samples, expected.samples, rtol=0.0, atol=1e-9)
        assert np.allclose(
            nodes.final_state_kelvin, expected.final_state_kelvin, rtol=0.0, atol=1e-9
        )
        assert np.array_equal(
            nodes.samples[nodes.starts[1:]], nodes.samples[nodes.stops[:-1] - 1]
        )

    @given(key=chip_resolutions, data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_dict_views_are_the_array_row(self, key, data):
        model = _chip_model(*key)
        row = _power_rows(data, model, 1)[0]
        temps = model.steady_temperatures(row)[0]
        power = dict(zip(model.topology.coordinates(), row.tolist()))
        assert model.peak_temperature(power) == temps.max()
        by_coord = model.steady_state_by_coord(power)
        assert list(by_coord) == list(model.topology.coordinates())
        assert list(by_coord.values()) == temps.tolist()
