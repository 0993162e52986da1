"""Tests for power traces."""

import numpy as np
import pytest

from repro.power.trace import PowerSample, PowerTrace, map_to_vector, vector_to_map


class TestPowerSample:
    def test_totals(self, mesh4, uniform_power4):
        sample = PowerSample(duration_s=1e-3, power_w=uniform_power4)
        assert sample.total_power_w == pytest.approx(32.0)
        assert sample.peak_power_w == pytest.approx(2.0)
        assert sample.energy_j == pytest.approx(32.0 * 1e-3)

    def test_rejects_bad_duration(self, uniform_power4):
        with pytest.raises(ValueError):
            PowerSample(duration_s=0.0, power_w=uniform_power4)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerSample(duration_s=1.0, power_w={(0, 0): -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_duration(self, bad, uniform_power4):
        # NaN passes a `<= 0` gate (all comparisons are False), so the
        # validation must check finiteness explicitly.
        with pytest.raises(ValueError, match="positive and finite"):
            PowerSample(duration_s=bad, power_w=uniform_power4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValueError, match="non-finite or negative"):
            PowerSample(duration_s=1.0, power_w={(0, 0): 1.0, (1, 1): bad})

    def test_as_vector(self, mesh4):
        sample = PowerSample(duration_s=1.0, power_w={(1, 0): 3.0})
        vector = sample.as_vector(mesh4)
        assert vector[mesh4.node_id((1, 0))] == 3.0
        assert vector.sum() == pytest.approx(3.0)


class TestPowerTrace:
    def test_append_and_totals(self, mesh4, uniform_power4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1e-3, uniform_power4)
        trace.add_interval(2e-3, {coord: 1.0 for coord in mesh4.coordinates()})
        assert len(trace) == 2
        assert trace.total_duration_s == pytest.approx(3e-3)
        assert trace.total_energy_j == pytest.approx(32e-3 + 32e-3)
        assert trace.average_power_w == pytest.approx((32e-3 + 32e-3) / 3e-3)

    def test_empty_trace(self, mesh4):
        trace = PowerTrace(mesh4)
        assert trace.total_duration_s == 0.0
        assert trace.average_power_w == 0.0
        assert trace.peak_unit_power() == 0.0

    def test_average_power_per_unit_time_weighted(self, mesh4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1.0, {(0, 0): 4.0})
        trace.add_interval(3.0, {(0, 0): 0.0})
        averages = trace.average_power_per_unit()
        assert averages[(0, 0)] == pytest.approx(1.0)

    def test_as_matrix_shapes(self, mesh4, uniform_power4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1e-3, uniform_power4)
        trace.add_interval(1e-3, uniform_power4)
        durations, powers = trace.as_matrix()
        assert durations.shape == (2,)
        assert powers.shape == (2, 16)

    def test_iteration(self, mesh4, uniform_power4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1e-3, uniform_power4)
        samples = list(trace)
        assert len(samples) == 1
        assert isinstance(samples[0], PowerSample)

    def test_peak_unit_power(self, mesh4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1.0, {(0, 0): 1.0, (1, 1): 5.0})
        trace.add_interval(1.0, {(2, 2): 3.0})
        assert trace.peak_unit_power() == 5.0


class TestArrayNativeTrace:
    def test_from_arrays_round_trip(self, mesh4):
        durations = np.array([1e-3, 2e-3, 3e-3])
        powers = np.arange(3 * 16, dtype=float).reshape(3, 16)
        trace = PowerTrace.from_arrays(mesh4, durations, powers)
        assert len(trace) == 3
        out_durations, out_powers = trace.as_matrix()
        assert np.array_equal(out_durations, durations)
        assert np.array_equal(out_powers, powers)

    def test_from_arrays_validation(self, mesh4):
        with pytest.raises(ValueError):
            PowerTrace.from_arrays(mesh4, np.array([0.0]), np.zeros((1, 16)))
        with pytest.raises(ValueError):
            PowerTrace.from_arrays(mesh4, np.array([1.0]), -np.ones((1, 16)))
        with pytest.raises(ValueError):
            PowerTrace.from_arrays(mesh4, np.array([1.0]), np.zeros((1, 7)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_arrays_rejects_non_finite(self, mesh4, bad):
        """NaN/inf must not slip past the min()-based gates into the solver."""
        with pytest.raises(ValueError, match="positive and finite"):
            PowerTrace.from_arrays(mesh4, np.array([1.0, bad]), np.ones((2, 16)))
        powers = np.ones((2, 16))
        powers[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite or negative"):
            PowerTrace.from_arrays(mesh4, np.array([1.0, 1.0]), powers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_add_interval_rejects_non_finite(self, mesh4, bad):
        trace = PowerTrace(mesh4)
        vector = np.ones(16)
        vector[5] = bad
        with pytest.raises(ValueError, match="non-finite or negative"):
            trace.add_interval(1e-3, vector)
        with pytest.raises(ValueError, match="positive and finite"):
            trace.add_interval(float(bad) if bad is np.inf else np.nan, np.ones(16))
        assert len(trace) == 0  # failed appends must not leave partial rows

    def test_add_interval_accepts_vector(self, mesh4):
        trace = PowerTrace(mesh4)
        vector = np.linspace(0.0, 3.0, 16)
        trace.add_interval(1e-3, vector)
        assert np.array_equal(trace.powers[0], vector)
        assert trace.power_map(0) == vector_to_map(mesh4, vector)

    def test_vector_rejects_negative_and_bad_shape(self, mesh4):
        trace = PowerTrace(mesh4)
        with pytest.raises(ValueError):
            trace.add_interval(1e-3, -np.ones(16))
        with pytest.raises(ValueError):
            trace.add_interval(1e-3, np.ones(9))
        with pytest.raises(ValueError):
            trace.add_interval(0.0, np.ones(16))

    def test_views_are_read_only(self, mesh4, uniform_power4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1e-3, uniform_power4)
        with pytest.raises(ValueError):
            trace.powers[0, 0] = 99.0
        with pytest.raises(ValueError):
            trace.durations[0] = 99.0

    def test_capacity_growth_preserves_rows(self, mesh4):
        trace = PowerTrace(mesh4)
        rows = [np.full(16, float(index)) for index in range(30)]
        for row in rows:
            trace.add_interval(1e-3, row)
        assert len(trace) == 30
        for index, row in enumerate(rows):
            assert np.array_equal(trace.powers[index], row)

    def test_intervals_edge_view(self, mesh4, uniform_power4):
        trace = PowerTrace(mesh4)
        trace.add_interval(1e-3, uniform_power4)
        intervals = trace.intervals()
        assert len(intervals) == 1
        duration, power = intervals[0]
        assert duration == 1e-3
        assert power == uniform_power4

    def test_map_vector_helpers(self, mesh4):
        mapping = {coord: float(mesh4.node_id(coord)) for coord in mesh4.coordinates()}
        vector = map_to_vector(mesh4, mapping)
        assert np.array_equal(vector, np.arange(16.0))
        assert vector_to_map(mesh4, vector) == mapping
        with pytest.raises(ValueError):
            vector_to_map(mesh4, np.zeros(5))
