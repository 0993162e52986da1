"""Tests for the steady-state and transient thermal solvers."""

import numpy as np
import pytest

from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.package import ThermalPackage
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver


@pytest.fixture
def solver4(mesh4):
    return ThermalSolver(build_thermal_network(mesh_floorplan(mesh4)))


def _uniform_power(mesh, watts):
    return {f"PE_{x}_{y}": watts for (x, y) in mesh.coordinates()}


class TestSteadyState:
    def test_zero_power_gives_ambient(self, solver4, mesh4):
        result = solver4.steady_state(_uniform_power(mesh4, 0.0))
        assert result.peak_celsius == pytest.approx(40.0, abs=1e-6)
        assert result.spread_celsius == pytest.approx(0.0, abs=1e-9)

    def test_uniform_power_above_ambient(self, solver4, mesh4):
        result = solver4.steady_state(_uniform_power(mesh4, 2.0))
        assert result.peak_celsius > 45.0
        assert result.min_celsius > 40.0
        # A uniform map should be nearly spatially uniform (edge effects only).
        assert result.spread_celsius < 2.0

    def test_linearity_in_power(self, solver4, mesh4):
        one = solver4.steady_state(_uniform_power(mesh4, 1.0))
        two = solver4.steady_state(_uniform_power(mesh4, 2.0))
        rise_one = one.peak_celsius - 40.0
        rise_two = two.peak_celsius - 40.0
        assert rise_two == pytest.approx(2 * rise_one, rel=1e-6)

    def test_hotspot_is_hottest_block(self, solver4, mesh4):
        power = _uniform_power(mesh4, 1.0)
        power["PE_2_1"] = 5.0
        result = solver4.steady_state(power)
        assert result.hottest_block() == "PE_2_1"
        assert result.spread_celsius > 2.0

    def test_superposition(self, solver4, mesh4):
        """The RC network is linear: temperatures superpose (above ambient)."""
        power_a = {"PE_0_0": 3.0}
        power_b = {"PE_3_3": 2.0}
        combined = {"PE_0_0": 3.0, "PE_3_3": 2.0}
        t_a = solver4.steady_state(power_a)
        t_b = solver4.steady_state(power_b)
        t_ab = solver4.steady_state(combined)
        for name in t_ab.block_celsius:
            rise = (t_a.block_celsius[name] - 40.0) + (t_b.block_celsius[name] - 40.0)
            assert t_ab.block_celsius[name] - 40.0 == pytest.approx(rise, rel=1e-6)

    def test_temperature_map_statistics(self, solver4, mesh4):
        result = solver4.steady_state(_uniform_power(mesh4, 2.0))
        assert result.min_celsius <= result.mean_celsius <= result.peak_celsius
        assert set(result.as_dict()) == {f"PE_{x}_{y}" for x, y in mesh4.coordinates()}


class TestTransient:
    def test_starts_at_ambient_and_heats(self, solver4, mesh4):
        result = solver4.transient(_uniform_power(mesh4, 2.0), duration_s=0.005)
        first = result.peak_series()[0]
        last = result.peak_series()[-1]
        assert first == pytest.approx(40.0, abs=0.5)
        assert last > first

    def test_converges_towards_steady_state(self, solver4, mesh4):
        power = _uniform_power(mesh4, 2.0)
        steady = solver4.steady_state(power)
        # Start from the warm state: transient must stay there.
        warm = solver4.warm_state(power)
        result = solver4.transient(power, duration_s=0.01, initial_state=warm)
        assert result.final_map().peak_celsius == pytest.approx(
            steady.peak_celsius, abs=0.05
        )

    def test_cooling_when_power_removed(self, solver4, mesh4):
        power = _uniform_power(mesh4, 3.0)
        warm = solver4.warm_state(power)
        result = solver4.transient(
            _uniform_power(mesh4, 0.0), duration_s=0.02, initial_state=warm
        )
        assert result.peak_series()[-1] < result.peak_series()[0]

    def test_monotone_heating_from_cold(self, solver4, mesh4):
        result = solver4.transient(_uniform_power(mesh4, 2.0), duration_s=0.002)
        peaks = result.peak_series()
        assert np.all(np.diff(peaks) >= -1e-9)

    def test_invalid_duration(self, solver4, mesh4):
        with pytest.raises(ValueError):
            solver4.transient(_uniform_power(mesh4, 1.0), duration_s=0.0)

    def test_invalid_initial_state_shape(self, solver4, mesh4):
        with pytest.raises(ValueError):
            solver4.transient(
                _uniform_power(mesh4, 1.0), duration_s=1e-3, initial_state=np.zeros(3)
            )

    def test_transient_sequence_continuity(self, solver4, mesh4):
        hot = _uniform_power(mesh4, 3.0)
        cool = _uniform_power(mesh4, 1.0)
        result = solver4.transient_sequence([(0.002, hot), (0.002, cool)])
        assert result.times_s[-1] == pytest.approx(0.004, rel=1e-6)
        # Temperatures never jump discontinuously by more than a sane bound
        # between adjacent samples.
        peaks = result.peak_series()
        assert np.max(np.abs(np.diff(peaks))) < 5.0

    def test_transient_sequence_requires_intervals(self, solver4):
        with pytest.raises(ValueError):
            solver4.transient_sequence([])

    def test_record_every_reduces_samples(self, solver4, mesh4):
        dense = solver4.transient(
            _uniform_power(mesh4, 1.0), duration_s=1e-3, time_step_s=1e-5
        )
        sparse = solver4.transient(
            _uniform_power(mesh4, 1.0), duration_s=1e-3, time_step_s=1e-5, record_every=10
        )
        assert len(sparse.times_s) < len(dense.times_s)


def _alternating_intervals(mesh, epochs=41, duration=1e-3):
    hot = _uniform_power(mesh, 3.0)
    cool = _uniform_power(mesh, 1.0)
    return [(duration, hot if epoch % 2 else cool) for epoch in range(epochs)]


class TestPropagatorCache:
    def test_cached_matches_uncached_reference(self, mesh4):
        """Caching must not change the integrated temperatures at all.

        The reference integrates every interval on a fresh solver — one
        step-matrix factorisation per interval, the seed behaviour — with the
        state carried by hand, so agreement within 1e-9 kelvin on every node
        state is the regression bar for the cache.
        """
        network = build_thermal_network(mesh_floorplan(mesh4))
        intervals = _alternating_intervals(mesh4)
        state = None
        series = {name: [] for name in network.block_node_index}
        for duration, power in intervals:
            step = ThermalSolver(network).transient(
                power, duration, initial_state=state
            )
            state = step.final_state_kelvin
            for name, values in step.block_celsius.items():
                series[name].append(values)
        actual = ThermalSolver(network).transient_sequence(intervals)
        assert np.allclose(state, actual.final_state_kelvin, atol=1e-9)
        for name, chunks in series.items():
            assert np.allclose(
                np.concatenate(chunks), actual.block_celsius[name], atol=1e-9
            )

    def test_one_factorization_per_distinct_time_step(self, solver4, mesh4):
        """Regression: a 41-interval sequence with one dt factorises once."""
        assert solver4.step_factorization_count == 0
        solver4.transient_sequence(_alternating_intervals(mesh4), time_step_s=5e-6)
        assert solver4.step_factorization_count == 1
        # Same dt again: still one factorisation.
        solver4.transient(_uniform_power(mesh4, 2.0), duration_s=1e-3, time_step_s=5e-6)
        assert solver4.step_factorization_count == 1
        # A second distinct dt adds exactly one more.
        solver4.transient(_uniform_power(mesh4, 2.0), duration_s=1e-3, time_step_s=1e-5)
        assert solver4.step_factorization_count == 2


class TestSpectralMethod:
    def test_matches_euler_trajectory(self, solver4, mesh4):
        """Spectral sampling reproduces the implicit-Euler iterates to 1e-9."""
        intervals = _alternating_intervals(mesh4, epochs=11)
        euler = solver4.transient_sequence(intervals)
        spectral = solver4.transient_sequence(intervals, method="spectral")
        assert np.allclose(euler.times_s, spectral.times_s)
        assert np.allclose(
            euler.final_state_kelvin, spectral.final_state_kelvin, atol=1e-9
        )
        for name in euler.block_celsius:
            assert np.allclose(
                euler.block_celsius[name], spectral.block_celsius[name], atol=1e-9
            )

    def test_matches_euler_with_record_every(self, solver4, mesh4):
        power = _uniform_power(mesh4, 2.5)
        euler = solver4.transient(
            power, duration_s=2e-3, time_step_s=1e-5, record_every=7
        )
        spectral = solver4.transient(
            power, duration_s=2e-3, time_step_s=1e-5, record_every=7, method="spectral"
        )
        assert np.allclose(euler.times_s, spectral.times_s)
        for name in euler.block_celsius:
            assert np.allclose(
                euler.block_celsius[name], spectral.block_celsius[name], atol=1e-9
            )

    def test_spectral_converges_to_steady_state(self, solver4, mesh4):
        """A horizon far past the package time constant lands on steady state.

        The spectral sampler makes such horizons cheap: 200 coarse implicit
        steps instead of millions of fine ones (the implicit-Euler fixed
        point does not depend on the step size).
        """
        power = _uniform_power(mesh4, 2.0)
        steady = solver4.steady_state(power)
        result = solver4.transient(
            power, duration_s=1e5, time_step_s=500.0, method="spectral"
        )
        assert result.final_map().peak_celsius == pytest.approx(
            steady.peak_celsius, abs=0.05
        )

    def test_unknown_method_rejected(self, solver4, mesh4):
        with pytest.raises(ValueError, match="method"):
            solver4.transient(_uniform_power(mesh4, 1.0), duration_s=1e-3, method="rk4")


class TestSpectralSequenceJump:
    """The vectorised whole-trace spectral path (one eigenbasis transform)."""

    def test_shared_dt_takes_jump_path(self, solver4, mesh4):
        intervals = _alternating_intervals(mesh4, epochs=9)
        solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 1
        assert solver4.transient_sequence_count == 1

    def test_mixed_dt_falls_back_to_loop(self, solver4, mesh4):
        intervals = _alternating_intervals(mesh4, epochs=4)
        intervals.append((7e-3, _uniform_power(mesh4, 1.5)))
        result = solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 0
        assert len(result.interval_ranges) == 5

    def test_euler_never_jumps(self, solver4, mesh4):
        solver4.transient_sequence(_alternating_intervals(mesh4, epochs=5))
        assert solver4.spectral_jump_count == 0

    def test_jump_matches_per_interval_spectral_loop(self, solver4, mesh4):
        """<1e-9 parity with chaining transient(method="spectral") by hand.

        The hand-rolled chain is exactly what transient_sequence did before
        the vectorised jump: one weight projection per interval with state
        carried across boundaries.
        """
        intervals = _alternating_intervals(mesh4, epochs=13)
        jumped = solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 1

        state = None
        looped_blocks = {name: [] for name in solver4.network.block_node_index}
        for duration, power in intervals:
            step = solver4.transient(
                power, duration, initial_state=state, method="spectral"
            )
            state = step.final_state_kelvin
            for name, series in step.block_celsius.items():
                looped_blocks[name].append(series)

        for name, chunks in looped_blocks.items():
            reference = np.concatenate(chunks)
            assert np.allclose(jumped.block_celsius[name], reference, atol=1e-9)
        assert np.allclose(jumped.final_state_kelvin, state, atol=1e-9)

    def test_jump_with_warm_start_and_record_every(self, solver4, mesh4):
        intervals = _alternating_intervals(mesh4, epochs=7)
        warm = solver4.warm_state(_uniform_power(mesh4, 1.2))
        jumped = solver4.transient_sequence(
            intervals, initial_state=warm, record_every=3, method="spectral"
        )
        euler = solver4.transient_sequence(
            intervals, initial_state=warm, record_every=3
        )
        assert np.allclose(jumped.times_s, euler.times_s)
        assert jumped.interval_ranges == euler.interval_ranges
        for name in euler.block_celsius:
            assert np.allclose(
                jumped.block_celsius[name], euler.block_celsius[name], atol=1e-9
            )

    def test_jump_respects_explicit_time_step(self, solver4, mesh4):
        intervals = [
            (1e-3, _uniform_power(mesh4, 2.0)),
            (2e-3, _uniform_power(mesh4, 0.5)),
        ]
        # Different durations but one explicit dt: still eligible to jump.
        jumped = solver4.transient_sequence(
            intervals, time_step_s=2.5e-4, method="spectral"
        )
        assert solver4.spectral_jump_count == 1
        euler = solver4.transient_sequence(intervals, time_step_s=2.5e-4)
        for name in euler.block_celsius:
            assert np.allclose(
                jumped.block_celsius[name], euler.block_celsius[name], atol=1e-9
            )


class TestThreadPrivateFactors:
    """Concurrent solves must never share LU factor memory.

    ``lu_solve`` against shared ``(lu, piv)`` arrays is not reentrant on
    every BLAS build: two threads solving the same chip's factorisation
    concurrently returned corrupted temperatures.  Every solve therefore
    goes through a per-thread private copy of the factor.
    """

    def test_solves_use_a_private_copy(self, solver4):
        private = solver4._a_factor()
        assert private[0] is not solver4._A_factor[0]
        assert private[1] is not solver4._A_factor[1]
        assert np.array_equal(private[0], solver4._A_factor[0])
        assert np.array_equal(private[1], solver4._A_factor[1])

    def test_copy_is_cached_per_thread(self, solver4):
        assert solver4._a_factor()[0] is solver4._a_factor()[0]

    def test_each_thread_gets_its_own_copy(self, solver4):
        import threading

        seen = {}

        def grab(name):
            seen[name] = solver4._a_factor()

        threads = [
            threading.Thread(target=grab, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen[0][0] is not seen[1][0]
        assert np.array_equal(seen[0][0], seen[1][0])

    def test_replaced_factor_refreshes_the_copy(self, solver4):
        stale = solver4._a_factor()
        from scipy.linalg import lu_factor

        solver4._A_factor = lu_factor(solver4._A)
        fresh = solver4._a_factor()
        assert fresh[0] is not stale[0]

    def test_concurrent_batches_match_serial(self, solver4, mesh4):
        import concurrent.futures as cf

        vector = solver4.network.power_vector(_uniform_power(mesh4, 2.0))
        batch = np.vstack([vector * scale for scale in (0.5, 1.0, 1.5)])
        expected = solver4.steady_state_batch(batch)
        for _trial in range(20):
            with cf.ThreadPoolExecutor(max_workers=2) as pool:
                outs = list(
                    pool.map(lambda _i: solver4.steady_state_batch(batch), range(2))
                )
            for out in outs:
                assert np.array_equal(out, expected)

    def test_pickled_solver_recreates_the_thread_store(self, solver4):
        import pickle

        clone = pickle.loads(pickle.dumps(solver4))
        private = clone._a_factor()
        assert np.array_equal(private[0], solver4._A_factor[0])
