"""Property-based tests: PowerTrace round-trips arbitrary power maps.

The array-native trace must be a lossless container: dict in, dict out
(modulo zero-fill for missing coordinates), arrays in, arrays out, and the
aggregates must match their dict-loop definitions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace, map_to_vector, vector_to_map

_MESH = MeshTopology(4, 4)
_COORDS = list(_MESH.coordinates())

power_values = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
power_rows = st.lists(power_values, min_size=16, max_size=16)
durations = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)


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


class TestTraceRoundTrip:
    @given(rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_dict_in_dict_out(self, rows):
        trace = PowerTrace(_MESH)
        for duration, values in rows:
            trace.add_interval(duration, _to_map(values))
        assert len(trace) == len(rows)
        for index, (duration, values) in enumerate(rows):
            assert trace.power_map(index) == _to_map(values)
            assert float(trace.durations[index]) == duration
            sample = trace.sample(index)
            assert sample.duration_s == duration
            assert sample.power_w == _to_map(values)

    @given(rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_arrays_in_arrays_out(self, rows):
        dur = np.array([duration for duration, _values in rows])
        powers = np.array([values for _duration, values in rows])
        trace = PowerTrace.from_arrays(_MESH, dur, powers)
        out_durations, out_powers = trace.as_matrix()
        assert np.array_equal(out_durations, dur)
        assert np.array_equal(out_powers, powers)

    @given(rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_bulk(self, rows):
        incremental = PowerTrace(_MESH)
        for duration, values in rows:
            incremental.add_interval(duration, np.array(values))
        bulk = PowerTrace.from_arrays(
            _MESH,
            np.array([duration for duration, _values in rows]),
            np.array([values for _duration, values in rows]),
        )
        assert np.array_equal(incremental.powers, bulk.powers)
        assert np.array_equal(incremental.durations, bulk.durations)


class TestExtendBuilder:
    """The streaming builder: chunked extends == one at-once construction."""

    @given(
        rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=24),
        chunk=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_extend_equals_at_once(self, rows, chunk):
        dur = np.array([duration for duration, _values in rows])
        powers = np.array([values for _duration, values in rows])
        at_once = PowerTrace.from_arrays(_MESH, dur, powers)
        incremental = PowerTrace(_MESH)
        for start in range(0, len(rows), chunk):
            incremental.extend(
                dur[start : start + chunk], powers[start : start + chunk]
            )
        assert np.array_equal(incremental.durations, at_once.durations)
        assert np.array_equal(incremental.powers, at_once.powers)
        assert incremental.total_energy_j == at_once.total_energy_j
        assert np.array_equal(
            incremental.average_vector(), at_once.average_vector()
        )

    @given(rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_extend_interleaves_with_append(self, rows):
        mixed = PowerTrace(_MESH)
        reference = PowerTrace(_MESH)
        for index, (duration, values) in enumerate(rows):
            reference.add_interval(duration, np.array(values))
            if index % 2:
                mixed.extend(np.array([duration]), np.array([values]))
            else:
                mixed.add_interval(duration, np.array(values))
        assert np.array_equal(mixed.durations, reference.durations)
        assert np.array_equal(mixed.powers, reference.powers)

    def test_growth_is_amortised_logarithmic(self):
        # Appending n rows one at a time must reallocate O(log n) times —
        # the guard that keeps unbounded streams from quadratic recopying.
        import math

        trace = PowerTrace(_MESH)
        n = 4096
        for _ in range(n):
            trace.add_interval(1.0, np.zeros(16))
        assert len(trace) == n
        assert trace.growth_count <= math.ceil(math.log2(n)) + 1

    def test_empty_extend_is_a_no_op(self):
        trace = PowerTrace(_MESH)
        trace.extend(np.zeros(0), np.zeros((0, 16)))
        assert len(trace) == 0
        assert trace.growth_count == 0


class TestTraceAggregates:
    @given(rows=st.lists(st.tuples(durations, power_rows), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_aggregates_match_dict_loop(self, rows):
        trace = PowerTrace(_MESH)
        for duration, values in rows:
            trace.add_interval(duration, _to_map(values))

        total_duration = sum(duration for duration, _values in rows)
        total_energy = sum(
            duration * sum(values) for duration, values in rows
        )
        assert trace.total_duration_s == pytest_approx(total_duration)
        assert trace.total_energy_j == pytest_approx(total_energy)

        expected_average = {coord: 0.0 for coord in _COORDS}
        for duration, values in rows:
            mapping = _to_map(values)
            for coord, watts in mapping.items():
                expected_average[coord] += watts * duration / total_duration
        averages = trace.average_power_per_unit()
        for coord in _COORDS:
            assert averages[coord] == pytest_approx(expected_average[coord])

        assert trace.peak_unit_power() == pytest_approx(
            max(max(values) for _duration, values in rows)
        )


def pytest_approx(value, rel=1e-9, abs_tol=1e-12):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs_tol)
