"""Parity suite: the array-native batched pipeline vs the seed per-epoch path.

The seed experiment driver shuttled one ``Dict[Coordinate, float]`` power map
per epoch into the thermal model (one solve per epoch in steady mode, one
one-interval transient per epoch in transient mode).  The batched pipeline
must reproduce those numbers to <1e-9 K on the paper's chip configurations;
the reference implementations below replicate the seed loops on top of the
public dict views and one-interval transients, through the runtime model or
the LU-factored implicit-Euler loop of ``tests/thermal/lu_oracle.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.metrics import ThermalMetrics
from repro.core.policy import PeriodicMigrationPolicy, PolicyContext
from repro.power.trace import PowerTrace, map_to_vector, vector_to_map
from repro.stream import EpochWindow
from repro.thermal.hotspot import HotSpotModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "thermal"))
from lu_oracle import LuSolver  # noqa: E402
from unit_readout import unit_celsius  # noqa: E402

#: Configurations the parity suite pins (both mesh sizes plus the
#: centre-hotspot case where rotation's energy penalty matters).
PARITY_CONFIGURATIONS = ("A", "C", "E")

STEADY = ExperimentSettings(num_epochs=13, mode="steady", settle_epochs=12)
TRANSIENT = ExperimentSettings(
    num_epochs=9, mode="transient", settle_epochs=6, transient_steps_per_epoch=4
)


# ----------------------------------------------------------------------
# Seed-equivalent reference implementations (dict-per-epoch loops)
# ----------------------------------------------------------------------
def _reference_epochs(chip, policy, settings):
    """The seed policy/controller loop: one power dict per epoch."""
    policy.reset()
    controller = RuntimeReconfigurationController(
        chip, include_migration_energy=settings.include_migration_energy
    )
    period_s = policy.period_us * 1e-6
    epochs = []
    for epoch_index in range(settings.num_epochs):
        transform = policy.decide(PolicyContext(epoch_index=epoch_index))
        (row,), (cost,), _ = controller.walk(
            epoch_index, lambda epoch, in_flight: transform, np.array([period_s])
        )
        name = cost.transform_name if cost is not None else None
        power = vector_to_map(chip.topology, row)
        epochs.append((power, cost, name))
    return epochs


def reference_steady(chip, policy, settings, thermal_model=None):
    """The seed steady mode: one solve per epoch plus baseline and average."""
    model = thermal_model or chip.thermal_model
    baseline = ThermalMetrics.from_map(
        model.steady_state_by_coord(chip.power_map())
    )
    epochs = _reference_epochs(chip, policy, settings)
    per_epoch = [
        ThermalMetrics.from_map(model.steady_state_by_coord(power))
        for power, _cost, _name in epochs
    ]
    settle_count = settings.settled_count(len(epochs))
    averaged = {coord: 0.0 for coord in chip.topology.coordinates()}
    for power, _cost, _name in epochs[-settle_count:]:
        for coord, watts in power.items():
            averaged[coord] += watts / settle_count
    settled = ThermalMetrics.from_map(model.steady_state_by_coord(averaged))
    return baseline, per_epoch, settled


def reference_transient(chip, policy, settings, thermal_model=None, engine="closed-form"):
    """The seed transient mode: one one-interval transient per epoch.

    ``engine`` integrates each epoch through the runtime model
    (``"closed-form"``) or the LU-factored Euler loop (``"lu-euler"``).
    """
    model = thermal_model or chip.thermal_model
    oracle = LuSolver(model.network)
    topology = chip.topology
    period_s = policy.period_us * 1e-6
    time_step = period_s / settings.transient_steps_per_epoch
    epochs = _reference_epochs(chip, policy, settings)

    averaged = {coord: 0.0 for coord in topology.coordinates()}
    for power, _cost, _name in epochs:
        for coord, watts in power.items():
            averaged[coord] += watts / len(epochs)
    state = model.warm_state(map_to_vector(topology, averaged))

    peak_by_epoch = []
    per_epoch = []
    for power, _cost, _name in epochs:
        row = map_to_vector(topology, power)
        if engine == "lu-euler":
            result = oracle.transient_sequence(
                [period_s],
                model.node_power_matrix(row),
                initial_state=state,
                time_step_s=time_step,
            )
            series = unit_celsius(model, result.samples)
        else:
            result = model.transient_sequence(
                PowerTrace(topology, [period_s], [row]),
                initial_state=state,
                time_step_s=time_step,
            )
            series = result.samples
        state = result.final_state_kelvin
        final = {
            coord: float(series[-1, idx])
            for idx, coord in enumerate(chip.topology.coordinates())
        }
        peak_by_epoch.append(float(series.max()))
        per_epoch.append(ThermalMetrics.from_map(final))

    settle_count = settings.settled_count(len(epochs))
    settled_peak = float(np.max(peak_by_epoch[-settle_count:]))
    settled_mean = float(
        np.mean([metric.mean_celsius for metric in per_epoch[-settle_count:]])
    )
    return per_epoch, peak_by_epoch, settled_peak, settled_mean


# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_name", PARITY_CONFIGURATIONS)
class TestSteadyParity:
    def test_batched_steady_matches_seed_path(self, config_name):
        chip = get_configuration(config_name)
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip, policy, settings=STEADY).run()

        reference_policy = PeriodicMigrationPolicy(
            chip.topology, "xy-shift", period_us=109.0
        )
        baseline, per_epoch, settled = reference_steady(
            chip, reference_policy, STEADY
        )

        assert result.baseline_peak_celsius == pytest.approx(
            baseline.peak_celsius, abs=1e-9
        )
        assert result.baseline_mean_celsius == pytest.approx(
            baseline.mean_celsius, abs=1e-9
        )
        assert result.settled_peak_celsius == pytest.approx(
            settled.peak_celsius, abs=1e-9
        )
        assert result.settled_mean_celsius == pytest.approx(
            settled.mean_celsius, abs=1e-9
        )
        assert len(result.epochs) == len(per_epoch)
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )
            assert record.thermal.mean_celsius == pytest.approx(
                expected.mean_celsius, abs=1e-9
            )
            for coord, value in expected.per_unit_celsius.items():
                assert record.thermal.per_unit_celsius[coord] == pytest.approx(
                    value, abs=1e-9
                )

    def test_steady_mode_single_batched_solve(self, config_name):
        chip = get_configuration(config_name)
        solver = chip.thermal_model.solver
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        experiment = ThermalExperiment(chip, policy, settings=STEADY)
        solves_before = solver.steady_solve_count
        sequences_before = solver.transient_sequence_count
        experiment.run()
        # One multi-RHS solve for baseline + all epochs + settled average,
        # no transient.
        assert solver.steady_solve_count - solves_before == 1
        assert solver.transient_sequence_count == sequences_before


@pytest.mark.parametrize("config_name", PARITY_CONFIGURATIONS)
@pytest.mark.parametrize("engine", ["closed-form", "lu-euler"])
class TestTransientParity:
    def test_sequenced_transient_matches_seed_path(self, config_name, engine):
        chip = get_configuration(config_name)
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip, policy, settings=TRANSIENT).run()

        reference_policy = PeriodicMigrationPolicy(
            chip.topology, "xy-shift", period_us=109.0
        )
        per_epoch, _peaks, settled_peak, settled_mean = reference_transient(
            chip, reference_policy, TRANSIENT, engine=engine
        )

        assert result.settled_peak_celsius == pytest.approx(settled_peak, abs=1e-9)
        assert result.settled_mean_celsius == pytest.approx(settled_mean, abs=1e-9)
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )
            assert record.thermal.mean_celsius == pytest.approx(
                expected.mean_celsius, abs=1e-9
            )


#: Epoch periods for the mixed-step parity: with 4 steps of 27.25 us per
#: nominal epoch, the scaled epochs take 2-12 steps, and the 0.1 and 0.2
#: epochs are shorter than one step, so they take one step of their own size.
PERIOD_SCALES = np.array([1.0, 0.5, 2.0, 0.1, 1.0, 3.0, 0.2, 1.0, 1.5])


@pytest.mark.parametrize("config_name", PARITY_CONFIGURATIONS)
def test_period_scaled_transient_matches_lu_euler(config_name):
    """Mixed epoch durations go through the one closed form and equal the
    LU-factored Euler loop run epoch by epoch, to <1e-9 C."""
    chip = get_configuration(config_name)
    policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
    window = EpochWindow(num_epochs=TRANSIENT.num_epochs, period_scale=PERIOD_SCALES)
    result = ThermalExperiment(chip, policy, settings=TRANSIENT, schedule=window).run()

    model = chip.thermal_model
    oracle = LuSolver(model.network)
    durations = np.array([109.0 * scale for scale in PERIOD_SCALES.tolist()]) * 1e-6
    rows = np.array(
        [map_to_vector(chip.topology, record.power_map) for record in result.epochs]
    )
    state = model.warm_state(durations @ rows / durations.sum())
    time_step = 109e-6 / TRANSIENT.transient_steps_per_epoch
    peak_by_epoch = []
    for record, duration, row in zip(result.epochs, durations, rows):
        reference = oracle.transient_sequence(
            [duration],
            model.node_power_matrix(row),
            initial_state=state,
            time_step_s=time_step,
        )
        state = reference.final_state_kelvin
        series = unit_celsius(model, reference.samples)
        peak_by_epoch.append(float(series.max()))
        for index, coord in enumerate(chip.topology.coordinates()):
            assert record.thermal.per_unit_celsius[coord] == pytest.approx(
                float(series[-1, index]), abs=1e-9
            )
    assert result.settled_peak_celsius == pytest.approx(
        max(peak_by_epoch[-TRANSIENT.settle_epochs:]), abs=1e-9
    )


class TestTransientGuards:
    def test_one_transient_sequence_no_per_epoch_solves(self, chip_a):
        solver = chip_a.thermal_model.solver
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        experiment = ThermalExperiment(chip_a, policy, settings=TRANSIENT)
        sequences_before = solver.transient_sequence_count
        result = experiment.run()
        # The whole trace goes through one transient_sequence call.
        assert solver.transient_sequence_count - sequences_before == 1
        assert len(result.epochs) == TRANSIENT.num_epochs


class TestGridModelExperiment:
    """The model at grid resolution drives the experiment."""

    def test_steady_experiment_on_grid_model(self, chip_a):
        grid = HotSpotModel(
            chip_a.topology, resolution=2, package=chip_a.thermal_model.package
        )
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(
            chip_a, policy, settings=STEADY, thermal_model=grid
        ).run()

        reference_policy = PeriodicMigrationPolicy(
            chip_a.topology, "xy-shift", period_us=109.0
        )
        baseline, per_epoch, settled = reference_steady(
            chip_a, reference_policy, STEADY, thermal_model=grid
        )
        assert result.baseline_peak_celsius == pytest.approx(
            baseline.peak_celsius, abs=1e-9
        )
        assert result.settled_peak_celsius == pytest.approx(
            settled.peak_celsius, abs=1e-9
        )
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )
        # Grid resolution should agree with the block model to within the
        # discretisation error, not exactly.
        block_result = ThermalExperiment(chip_a, policy, settings=STEADY).run()
        assert result.settled_peak_celsius == pytest.approx(
            block_result.settled_peak_celsius, abs=2.0
        )

    def test_transient_experiment_on_grid_model(self, chip_a):
        grid = HotSpotModel(
            chip_a.topology, resolution=2, package=chip_a.thermal_model.package
        )
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(
            chip_a, policy, settings=TRANSIENT, thermal_model=grid
        ).run()
        assert len(result.epochs) == TRANSIENT.num_epochs
        assert all(e.thermal.peak_celsius > 40.0 for e in result.epochs)
        assert grid.solver.transient_sequence_count == 1
