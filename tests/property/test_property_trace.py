"""Property-based tests: the one PowerTrace constructor over generated arrays.

Accepted arrays come back equal and read-only while the caller's arrays stay
writeable, and the time-weighted average is ``durations @ powers /
durations.sum()``.  Any NaN, +-inf or negative power, any non-positive or
non-finite duration and any shape mismatch raises ``ValueError``.  The
dict <-> vector helpers round-trip losslessly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace, map_to_vector, vector_to_map

_MESH = MeshTopology(4, 4)
_COORDS = list(_MESH.coordinates())

power_values = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
power_rows = st.lists(power_values, min_size=16, max_size=16)

#: Values every power entry must be rejected for.
bad_powers = st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(
    max_value=0.0, exclude_max=True, allow_infinity=False
)
#: Values every duration must be rejected for (0.0 and -0.0 included).
bad_durations = st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(
    max_value=0.0, allow_infinity=False
)


@st.composite
def trace_arrays(draw):
    """A mesh and a valid ``(durations, powers)`` pair over it."""
    mesh = MeshTopology(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    count = draw(st.integers(1, 8))
    durations = draw(arrays(float, count, elements=st.floats(1e-9, 1e3)))
    powers = draw(
        arrays(float, (count, mesh.num_nodes), elements=st.floats(0.0, 1e3))
    )
    return mesh, durations, powers


def _mismatched_shapes(durations, powers):
    """Every way the two arrays' shapes can disagree with one trace."""
    count, units = powers.shape
    yield durations[:, np.newaxis], powers
    yield durations, np.zeros((count, units + 1))
    yield durations, powers[:, :-1]
    yield durations, np.zeros((count + 1, units))
    yield durations, powers[:-1]
    yield durations, powers.ravel()
    yield np.append(durations, 1.0), powers


class TestConstructor:
    @given(case=trace_arrays())
    @settings(max_examples=60, deadline=None)
    def test_accepted_arrays_come_back_read_only(self, case):
        mesh, durations, powers = case
        trace = PowerTrace(mesh, durations, powers)
        assert len(trace) == len(durations)
        assert np.array_equal(trace.durations, durations)
        assert np.array_equal(trace.powers, powers)
        with pytest.raises(ValueError):
            trace.durations[0] = 1.0
        with pytest.raises(ValueError):
            trace.powers[0, 0] = 1.0
        assert durations.flags.writeable and powers.flags.writeable
        assert np.array_equal(
            trace.average_vector(), durations @ powers / durations.sum()
        )

    @given(case=trace_arrays(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_power_raises(self, case, data):
        mesh, durations, powers = case
        row = data.draw(st.integers(0, powers.shape[0] - 1))
        column = data.draw(st.integers(0, powers.shape[1] - 1))
        powers[row, column] = data.draw(bad_powers)
        with pytest.raises(ValueError, match="non-finite or negative power"):
            PowerTrace(mesh, durations, powers)

    @given(case=trace_arrays(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_duration_raises(self, case, data):
        mesh, durations, powers = case
        durations[data.draw(st.integers(0, len(durations) - 1))] = data.draw(
            bad_durations
        )
        with pytest.raises(ValueError, match="positive and finite"):
            PowerTrace(mesh, durations, powers)

    @given(case=trace_arrays())
    @settings(max_examples=30, deadline=None)
    def test_shape_mismatch_raises(self, case):
        mesh, durations, powers = case
        for bad_durations_s, bad_power_w in _mismatched_shapes(durations, powers):
            with pytest.raises(ValueError, match="must be"):
                PowerTrace(mesh, bad_durations_s, bad_power_w)


def _to_map(values):
    return {coord: values[_MESH.node_id(coord)] for coord in _COORDS}


class TestVectorMapRoundTrip:
    @given(values=power_rows)
    @settings(max_examples=50, deadline=None)
    def test_map_vector_map(self, values):
        mapping = _to_map(values)
        assert vector_to_map(_MESH, map_to_vector(_MESH, mapping)) == mapping

    @given(values=power_rows)
    @settings(max_examples=50, deadline=None)
    def test_vector_map_vector(self, values):
        vector = np.array(values)
        assert np.array_equal(
            map_to_vector(_MESH, vector_to_map(_MESH, vector)), vector
        )
