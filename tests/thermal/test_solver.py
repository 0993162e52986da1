"""Tests for the steady-state and transient thermal solvers."""

import numpy as np
import pytest

from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.package import KELVIN_OFFSET
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver

from lu_oracle import LuSolver


@pytest.fixture
def solver4(mesh4):
    return ThermalSolver(build_thermal_network(mesh_floorplan(mesh4)))


def _block_power(network, watts_by_block):
    """Node-space power vector with the given watts on named blocks."""
    power = np.zeros(network.num_nodes)
    for name, watts in watts_by_block.items():
        power[network.block_node_index[name]] = watts
    return power


def _uniform_power(mesh, network, watts):
    return _block_power(network, {f"PE_{x}_{y}": watts for (x, y) in mesh.coordinates()})


def _steady(solver, power):
    """Steady node temperatures in kelvin for one node power vector."""
    return solver.steady_state_batch(power[np.newaxis, :])[0]


def _die_celsius(network, kelvin):
    """Block (die-node) temperatures in Celsius along the last axis."""
    return kelvin[..., sorted(network.block_node_index.values())] - KELVIN_OFFSET


def _transient(solver, power, duration_s, **kwargs):
    """One constant-power interval through ``transient_sequence``."""
    return solver.transient_sequence([duration_s], power[np.newaxis, :], **kwargs)


def _peak_series(network, result):
    """Per-sample maximum over the die nodes, in Celsius."""
    return _die_celsius(network, result.samples).max(axis=1)


class TestSteadyState:
    def test_zero_power_gives_ambient(self, solver4, mesh4):
        network = solver4.network
        die = _die_celsius(network, _steady(solver4, _uniform_power(mesh4, network, 0.0)))
        assert die.max() == pytest.approx(40.0, abs=1e-6)
        assert die.max() - die.min() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_power_above_ambient(self, solver4, mesh4):
        network = solver4.network
        die = _die_celsius(network, _steady(solver4, _uniform_power(mesh4, network, 2.0)))
        assert die.max() > 45.0
        assert die.min() > 40.0
        # A uniform map should be nearly spatially uniform (edge effects only).
        assert die.max() - die.min() < 2.0

    def test_linearity_in_power(self, solver4, mesh4):
        network = solver4.network
        one = _die_celsius(network, _steady(solver4, _uniform_power(mesh4, network, 1.0)))
        two = _die_celsius(network, _steady(solver4, _uniform_power(mesh4, network, 2.0)))
        assert two.max() - 40.0 == pytest.approx(2 * (one.max() - 40.0), rel=1e-6)

    def test_hotspot_is_hottest_block(self, solver4, mesh4):
        network = solver4.network
        power = _uniform_power(mesh4, network, 1.0)
        power[network.block_node_index["PE_2_1"]] = 5.0
        kelvin = _steady(solver4, power)
        die = _die_celsius(network, kelvin)
        assert kelvin[network.block_node_index["PE_2_1"]] - KELVIN_OFFSET == die.max()
        assert die.max() - die.min() > 2.0

    def test_superposition(self, solver4, mesh4):
        """The RC network is linear: temperatures superpose (above ambient)."""
        network = solver4.network
        t_a = _steady(solver4, _block_power(network, {"PE_0_0": 3.0}))
        t_b = _steady(solver4, _block_power(network, {"PE_3_3": 2.0}))
        t_ab = _steady(solver4, _block_power(network, {"PE_0_0": 3.0, "PE_3_3": 2.0}))
        ambient = network.ambient_kelvin
        assert np.allclose(t_ab - ambient, (t_a - ambient) + (t_b - ambient), rtol=1e-6)


class TestTransient:
    def test_starts_at_ambient_and_heats(self, solver4, mesh4):
        network = solver4.network
        result = _transient(solver4, _uniform_power(mesh4, network, 2.0), 0.005)
        peaks = _peak_series(network, result)
        assert peaks[0] == pytest.approx(40.0, abs=0.5)
        assert peaks[-1] > peaks[0]

    def test_converges_towards_steady_state(self, solver4, mesh4):
        network = solver4.network
        power = _uniform_power(mesh4, network, 2.0)
        steady = _die_celsius(network, _steady(solver4, power))
        # Start from the warm state: transient must stay there.
        warm = solver4.warm_state(power)
        result = _transient(solver4, power, 0.01, initial_state=warm)
        final = _die_celsius(network, result.final_state_kelvin)
        assert final.max() == pytest.approx(steady.max(), abs=0.05)

    def test_cooling_when_power_removed(self, solver4, mesh4):
        network = solver4.network
        warm = solver4.warm_state(_uniform_power(mesh4, network, 3.0))
        result = _transient(
            solver4, _uniform_power(mesh4, network, 0.0), 0.02, initial_state=warm
        )
        peaks = _peak_series(network, result)
        assert peaks[-1] < peaks[0]

    def test_monotone_heating_from_cold(self, solver4, mesh4):
        network = solver4.network
        result = _transient(solver4, _uniform_power(mesh4, network, 2.0), 0.002)
        assert np.all(np.diff(_peak_series(network, result)) >= -1e-9)

    def test_invalid_duration(self, solver4, mesh4):
        with pytest.raises(ValueError):
            _transient(solver4, _uniform_power(mesh4, solver4.network, 1.0), 0.0)

    def test_invalid_initial_state_shape(self, solver4, mesh4):
        with pytest.raises(ValueError):
            _transient(
                solver4,
                _uniform_power(mesh4, solver4.network, 1.0),
                1e-3,
                initial_state=np.zeros(3),
            )

    def test_transient_sequence_continuity(self, solver4, mesh4):
        network = solver4.network
        hot = _uniform_power(mesh4, network, 3.0)
        cool = _uniform_power(mesh4, network, 1.0)
        result = solver4.transient_sequence([0.002, 0.002], np.vstack([hot, cool]))
        # Default steps of 0.002 / 200 s: each interval's start and 200 steps.
        assert result.starts.tolist() == [0, 201]
        assert result.stops.tolist() == [201, 402]
        # Temperatures never jump discontinuously by more than a sane bound
        # between adjacent samples.
        assert np.max(np.abs(np.diff(_peak_series(network, result)))) < 5.0

    def test_transient_sequence_requires_intervals(self, solver4):
        with pytest.raises(ValueError):
            solver4.transient_sequence([], np.zeros((0, solver4.network.num_nodes)))

    def test_rejects_mis_shaped_power(self, solver4):
        with pytest.raises(ValueError):
            solver4.transient_sequence([1e-3, 1e-3], np.zeros((1, solver4.network.num_nodes)))


def _nan_power(network):
    power = np.ones(network.num_nodes)
    power[3] = np.nan
    return power


_NON_FINITE_CALLS = {
    "steady": lambda solver: solver.steady_state_batch(_nan_power(solver.network)[np.newaxis]),
    "warm state": lambda solver: solver.warm_state(_nan_power(solver.network)),
    "warm state ambient offset": lambda solver: solver.warm_state(
        np.ones(solver.network.num_nodes), ambient_offset_kelvin=np.nan
    ),
    "transient": lambda solver: _transient(solver, _nan_power(solver.network), 1e-3),
    "nan initial state": lambda solver: _transient(
        solver,
        np.ones(solver.network.num_nodes),
        1e-3,
        initial_state=np.full(solver.network.num_nodes, np.nan),
    ),
    "inf power": lambda solver: solver.steady_state_batch(
        np.full((1, solver.network.num_nodes), np.inf)
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_CALLS))
def test_rejects_non_finite_input(solver4, case):
    """NaN or inf input raises instead of yielding NaN temperatures."""
    with pytest.raises(ValueError, match="NaN"):
        _NON_FINITE_CALLS[case](solver4)


@pytest.mark.parametrize(
    "durations, time_step_s, argument",
    [
        ([1e-3, np.nan], None, "durations_s"),
        ([np.inf], None, "durations_s"),
        ([1e-3, -np.inf], None, "durations_s"),
        ([1e-3], 0.0, "time_step_s"),
        ([1e-3], np.nan, "time_step_s"),
        ([1e-3], -1e-4, "time_step_s"),
    ],
)
def test_rejects_bad_interval_arguments(solver4, durations, time_step_s, argument):
    """Non-finite durations and a step that is not positive name the argument."""
    powers = np.ones((len(durations), solver4.network.num_nodes))
    with pytest.raises(ValueError, match=argument):
        solver4.transient_sequence(durations, powers, time_step_s=time_step_s)


def _alternating_intervals(mesh, network, epochs=41, duration=1e-3):
    hot = _uniform_power(mesh, network, 3.0)
    cool = _uniform_power(mesh, network, 1.0)
    powers = np.vstack([hot if epoch % 2 else cool for epoch in range(epochs)])
    return np.full(epochs, duration), powers


class TestSpectralMethod:
    """The closed-form evaluation against the implicit-Euler loop."""

    def test_matches_euler_trajectory(self, solver4, mesh4):
        """The closed form reproduces the LU oracle's Euler iterates to 1e-9."""
        intervals = _alternating_intervals(mesh4, solver4.network, epochs=11)
        euler = LuSolver(solver4.network).transient_sequence(*intervals)
        spectral = solver4.transient_sequence(*intervals)
        assert np.array_equal(euler.starts, spectral.starts)
        assert np.array_equal(euler.stops, spectral.stops)
        assert np.allclose(
            euler.final_state_kelvin, spectral.final_state_kelvin, atol=1e-9
        )
        assert np.allclose(euler.samples, spectral.samples, atol=1e-9)

    def test_spectral_converges_to_steady_state(self, solver4, mesh4):
        """A horizon far past the package time constant lands on steady state.

        The closed form makes such horizons cheap: 200 coarse implicit steps
        cost one table of ``1 - mu^k`` (the implicit-Euler fixed point does
        not depend on the step size).
        """
        network = solver4.network
        power = _uniform_power(mesh4, network, 2.0)
        steady = _die_celsius(network, _steady(solver4, power))
        result = _transient(solver4, power, 1e5, time_step_s=500.0)
        final = _die_celsius(network, result.final_state_kelvin)
        assert final.max() == pytest.approx(steady.max(), abs=0.05)

    def test_sub_femtosecond_interval_deposits_its_energy(self, solver4, mesh4):
        """A 109 us period scaled by 1e-300 is the dt -> 0 limit: start + E / C.

        Its power is ~1e298 W per unit, so its fixed point is astronomically
        hot; the increment form keeps the small rise instead of cancelling
        two huge numbers, and ``C / dt`` never has to be formed.
        """
        network = solver4.network
        duration = 109e-6 * 1e-300
        energy = _uniform_power(mesh4, network, 1e-6)
        start = solver4.warm_state(_uniform_power(mesh4, network, 1.0))
        result = _transient(solver4, energy / duration, duration, initial_state=start)
        expected = start + energy / network.capacitance
        assert np.all(np.isfinite(result.samples))
        assert np.allclose(result.final_state_kelvin, expected, rtol=0.0, atol=1e-9)
        assert np.abs(expected - start).max() > 1e-4


class TestSpectralSequenceJump:
    """Every sequence is one whole-trace eigenbasis evaluation."""

    def test_shared_dt_takes_jump_path(self, solver4, mesh4):
        solver4.transient_sequence(*_alternating_intervals(mesh4, solver4.network, epochs=9))
        assert solver4.spectral_jump_count == 1
        assert solver4.transient_sequence_count == 1

    def test_mixed_dt_takes_one_jump(self, solver4, mesh4):
        """Intervals with different default steps stay in the one closed form."""
        network = solver4.network
        durations, powers = _alternating_intervals(mesh4, network, epochs=4)
        durations = np.append(durations, 7e-3)
        powers = np.vstack([powers, _uniform_power(mesh4, network, 1.5)])
        result = solver4.transient_sequence(durations, powers)
        assert solver4.spectral_jump_count == 1
        assert len(result.starts) == 5
        euler = LuSolver(network).transient_sequence(durations, powers)
        assert np.array_equal(result.starts, euler.starts)
        assert np.array_equal(result.stops, euler.stops)
        assert np.allclose(result.samples, euler.samples, atol=1e-9)

    def test_jump_matches_per_interval_spectral_loop(self, solver4, mesh4):
        """<1e-9 parity with chaining one-interval sequences by hand, and the
        t=0 row of every interval is the previous interval's last row."""
        durations, powers = _alternating_intervals(mesh4, solver4.network, epochs=13)
        jumped = solver4.transient_sequence(durations, powers)
        assert solver4.spectral_jump_count == 1

        state = None
        chunks = []
        for duration, power in zip(durations, powers):
            step = _transient(solver4, power, duration, initial_state=state)
            state = step.final_state_kelvin
            chunks.append(step.samples)

        assert np.allclose(jumped.samples, np.concatenate(chunks), atol=1e-9)
        assert np.allclose(jumped.final_state_kelvin, state, atol=1e-9)
        assert np.array_equal(
            jumped.samples[jumped.starts[1:]], jumped.samples[jumped.stops[:-1] - 1]
        )

    def test_jump_with_warm_start(self, solver4, mesh4):
        network = solver4.network
        intervals = _alternating_intervals(mesh4, network, epochs=7)
        warm = solver4.warm_state(_uniform_power(mesh4, network, 1.2))
        jumped = solver4.transient_sequence(*intervals, initial_state=warm)
        euler = LuSolver(network).transient_sequence(*intervals, initial_state=warm)
        assert np.array_equal(jumped.starts, euler.starts)
        assert np.array_equal(jumped.stops, euler.stops)
        assert np.array_equal(jumped.samples[0], warm)
        assert np.allclose(jumped.samples, euler.samples, atol=1e-9)

    def test_jump_respects_explicit_time_step(self, solver4, mesh4):
        network = solver4.network
        durations = [1e-3, 2e-3]
        powers = np.vstack(
            [_uniform_power(mesh4, network, 2.0), _uniform_power(mesh4, network, 0.5)]
        )
        # Different durations but one explicit dt: different step counts.
        jumped = solver4.transient_sequence(durations, powers, time_step_s=2.5e-4)
        assert solver4.spectral_jump_count == 1
        assert jumped.starts.tolist() == [0, 5]
        assert jumped.stops.tolist() == [5, 14]
        euler = LuSolver(network).transient_sequence(durations, powers, time_step_s=2.5e-4)
        assert np.allclose(jumped.samples, euler.samples, atol=1e-9)


class TestSharedSolverThreads:
    """Concurrent solves on one shared solver equal serial solves.

    A chip configuration, and so its solver, may be shared across threads.
    Every solve is a matrix product that only reads the solver's operators,
    and the lazily built eigenbasis is built under a lock.
    """

    def test_concurrent_batches_match_serial(self, solver4, mesh4):
        import concurrent.futures as cf

        vector = _uniform_power(mesh4, solver4.network, 2.0)
        batch = np.vstack([vector * scale for scale in (0.5, 1.0, 1.5)])
        expected = solver4.steady_state_batch(batch)
        for _trial in range(20):
            with cf.ThreadPoolExecutor(max_workers=2) as pool:
                outs = list(
                    pool.map(lambda _i: solver4.steady_state_batch(batch), range(2))
                )
            for out in outs:
                assert np.array_equal(out, expected)

    def test_concurrent_euler_sequences_match_serial(self, mesh4, monkeypatch):
        """More threads than cores, fast switching, one cold shared solver."""
        import concurrent.futures as cf
        import sys

        network = build_thermal_network(mesh_floorplan(mesh4))
        durations, powers = _alternating_intervals(mesh4, network, epochs=6)
        traces = [
            (durations * stretch, powers * scale)
            for stretch in (1.0, 2.0)
            for scale in (0.5, 1.0, 1.5, 2.0)
        ]
        serial = ThermalSolver(network)
        expected = [serial.transient_sequence(*trace).samples for trace in traces]
        decompositions = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda matrix: decompositions.append(1) or eigh(matrix)
        )
        shared = ThermalSolver(network)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cf.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(shared.transient_sequence, *trace) for trace in traces
                ]
                outs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for out, want in zip(outs, expected):
            assert np.array_equal(out.samples, want)
        # The eigenbasis is decomposed once despite the race.
        assert len(decompositions) == 1
        assert shared.spectral_jump_count == len(traces)

    def test_pickled_solver_gives_identical_results(self, solver4, mesh4):
        import pickle

        clone = pickle.loads(pickle.dumps(solver4))
        network = solver4.network
        batch = np.vstack([_uniform_power(mesh4, network, watts) for watts in (0.5, 2.0)])
        assert np.array_equal(
            clone.steady_state_batch(batch), solver4.steady_state_batch(batch)
        )
        intervals = _alternating_intervals(mesh4, network, epochs=5)
        assert np.array_equal(
            clone.transient_sequence(*intervals).samples,
            solver4.transient_sequence(*intervals).samples,
        )


class TestStepTables:
    """A transient's ``1 - mu^k`` tables are kept on the solver, read-only
    and bounded, and a kept table gives the trajectory a fresh one does."""

    def _trace(self, mesh, network, durations):
        power = _uniform_power(mesh, network, 2.0)
        return np.asarray(durations), np.tile(power, (len(durations), 1))

    def test_a_table_is_built_once_and_read_only(self, mesh4):
        network = build_thermal_network(mesh_floorplan(mesh4))
        solver = ThermalSolver(network)
        durations, powers = self._trace(mesh4, network, [1e-4] * 5)
        first = solver.transient_sequence(durations, powers, time_step_s=2e-5)
        (table,) = solver._step_tables.values()
        assert not table.flags.writeable
        second = solver.transient_sequence(durations, powers, time_step_s=2e-5)
        assert solver._step_tables[(2e-5, 5)] is table
        assert np.array_equal(first.samples, second.samples)
        assert np.array_equal(first.stops, second.stops)

    def test_the_store_is_bounded_and_kept_tables_change_nothing(
        self, mesh4, monkeypatch
    ):
        import repro.thermal.solver as solver_module

        monkeypatch.setattr(solver_module, "MAX_STEP_TABLES", 3)
        network = build_thermal_network(mesh_floorplan(mesh4))
        solver = ThermalSolver(network)
        # Seven step sizes (a period schedule's), twice over.
        durations, powers = self._trace(
            mesh4, network, [1e-4 * (1 + i) for i in range(7)] * 2
        )
        kept = solver.transient_sequence(durations, powers, time_step_s=3e-5)
        assert len(solver._step_tables) == 3
        again = solver.transient_sequence(durations, powers, time_step_s=3e-5)
        fresh = ThermalSolver(network).transient_sequence(
            durations, powers, time_step_s=3e-5
        )
        for result in (again, fresh):
            assert np.array_equal(result.samples, kept.samples)
            assert np.array_equal(result.stops, kept.stops)

    def test_threads_share_the_store(self, mesh4, monkeypatch):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import repro.thermal.solver as solver_module

        monkeypatch.setattr(solver_module, "MAX_STEP_TABLES", 2)
        network = build_thermal_network(mesh_floorplan(mesh4))
        traces = [
            self._trace(mesh4, network, [1e-4 * (1 + index % 5)] * 3)
            for index in range(40)
        ]
        serial = ThermalSolver(network)
        expected = [
            serial.transient_sequence(*trace, time_step_s=3e-5).samples
            for trace in traces
        ]
        shared = ThermalSolver(network)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(
                    pool.map(
                        lambda trace: shared.transient_sequence(
                            *trace, time_step_s=3e-5
                        ).samples,
                        traces,
                        timeout=120,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert len(shared._step_tables) <= 2
