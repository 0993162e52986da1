"""Tests for power traces: the one constructor and the dict <-> vector helpers.

``tests/property/test_property_trace.py`` draws valid, non-finite, negative
and mis-shaped arrays at random; the parametrized cases here pin each
boundary by name on every run, and pin what the property does not draw: the
empty trace, sequence inputs, shared memory with the caller's arrays and
the dict <-> vector helpers.
"""

import numpy as np
import pytest

from repro.power.trace import PowerTrace, map_to_vector, vector_to_map


def _arrays(count=3, units=16):
    durations = np.linspace(1e-3, 3e-3, count)
    powers = np.arange(count * units, dtype=float).reshape(count, units)
    return durations, powers


class TestPowerTrace:
    def test_round_trip(self, mesh4):
        durations, powers = _arrays()
        trace = PowerTrace(mesh4, durations, powers)
        assert len(trace) == 3
        assert trace.topology is mesh4
        assert trace.durations.shape == (3,)
        assert trace.powers.shape == (3, 16)
        assert np.array_equal(trace.durations, durations)
        assert np.array_equal(trace.powers, powers)

    def test_views_are_read_only(self, mesh4):
        trace = PowerTrace(mesh4, *_arrays())
        with pytest.raises(ValueError):
            trace.powers[0, 0] = 99.0
        with pytest.raises(ValueError):
            trace.durations[0] = 99.0

    def test_views_share_the_callers_memory(self, mesh4):
        """The trace keeps views, not copies, and leaves the caller's
        arrays writeable."""
        durations, powers = _arrays()
        trace = PowerTrace(mesh4, durations, powers)
        assert np.shares_memory(trace.durations, durations)
        assert np.shares_memory(trace.powers, powers)
        assert durations.flags.writeable and powers.flags.writeable

    def test_read_only_input_is_accepted(self, mesh4):
        durations, powers = _arrays()
        durations.flags.writeable = False
        powers.flags.writeable = False
        trace = PowerTrace(mesh4, durations, powers)
        assert np.array_equal(trace.powers, powers)
        assert not durations.flags.writeable and not powers.flags.writeable

    def test_average_vector_is_time_weighted(self, mesh4):
        powers = np.zeros((2, 16))
        powers[0, mesh4.node_id((0, 0))] = 4.0
        powers[:, mesh4.node_id((1, 1))] = 2.0
        average = PowerTrace(mesh4, np.array([1.0, 3.0]), powers).average_vector()
        assert average[mesh4.node_id((0, 0))] == pytest.approx(1.0)
        assert average[mesh4.node_id((1, 1))] == pytest.approx(2.0)
        assert average.sum() == pytest.approx(3.0)

    def test_empty_trace_is_rejected(self, mesh4):
        with pytest.raises(ValueError, match="non-empty"):
            PowerTrace(mesh4, np.zeros(0), np.zeros((0, 16)))

    def test_sequences_become_float_arrays(self, mesh4):
        trace = PowerTrace(mesh4, [1], [list(range(16))])
        assert trace.durations.dtype == trace.powers.dtype == np.float64
        assert np.array_equal(trace.average_vector(), np.arange(16.0))


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_rejects_non_positive_duration(self, mesh4, bad):
        durations, powers = _arrays()
        durations[1] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            PowerTrace(mesh4, durations, powers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_duration(self, mesh4, bad):
        # NaN passes a `<= 0` gate (all comparisons are False) and +inf
        # passes `min() > 0`, so the validation must check finiteness.
        durations, powers = _arrays()
        durations[1] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            PowerTrace(mesh4, durations, powers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_power(self, mesh4, bad):
        """NaN, +-inf and negative watts must not slip into the solver."""
        durations, powers = _arrays()
        powers[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite or negative"):
            PowerTrace(mesh4, durations, powers)

    @pytest.mark.parametrize(
        "durations_shape, powers_shape",
        [
            ((3, 1), (3, 16)),
            ((3,), (3, 15)),
            ((3,), (3, 17)),
            ((3,), (4, 16)),
            ((3,), (48,)),
        ],
        ids=["durations-2d", "too-few-units", "too-many-units", "too-many-rows", "powers-1d"],
    )
    def test_rejects_mismatched_shape(self, mesh4, durations_shape, powers_shape):
        with pytest.raises(ValueError, match="must be"):
            PowerTrace(mesh4, np.ones(durations_shape), np.ones(powers_shape))


class TestMapVectorHelpers:
    def test_map_vector_helpers(self, mesh4):
        mapping = {coord: float(mesh4.node_id(coord)) for coord in mesh4.coordinates()}
        vector = map_to_vector(mesh4, mapping)
        assert np.array_equal(vector, np.arange(16.0))
        assert vector_to_map(mesh4, vector) == mapping
        with pytest.raises(ValueError):
            vector_to_map(mesh4, np.zeros(5))

    def test_missing_coordinates_are_zero(self, mesh4):
        vector = map_to_vector(mesh4, {(1, 0): 3.0})
        assert vector[mesh4.node_id((1, 0))] == 3.0
        assert vector.sum() == 3.0
