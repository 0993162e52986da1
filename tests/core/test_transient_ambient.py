"""Parity suite: exact time-varying ambient in transient mode.

The reference implementation is the bluntest possible one: for every epoch,
rebuild the whole thermal network with that epoch's ambient baked into the
package (``ambient_celsius + offset``) and integrate the epoch with a
one-interval ``transient_sequence`` call, carrying the state by hand.  The
batched pipeline — one ``transient_sequence`` call with the per-interval
affine boundary term ``G_amb * (T_amb + dT_i)`` — must reproduce those
trajectories to <1e-9, whether the reference integrates each epoch through
the runtime model or through the LU-factored implicit-Euler loop of
``tests/thermal/lu_oracle.py``, at block and grid resolution, while issuing
zero extra solves.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.metrics import ThermalMetrics
from repro.core.policy import PeriodicMigrationPolicy
from repro.power.trace import PowerTrace, map_to_vector
from repro.stream import EpochWindow
from repro.thermal.hotspot import HotSpotModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "thermal"))
from lu_oracle import LuSolver  # noqa: E402
from unit_readout import unit_celsius  # noqa: E402

NUM_EPOCHS = 8
SETTLE = 6
STEPS_PER_EPOCH = 4
PERIOD_US = 109.0

#: A deliberately unsmooth schedule: ramp, step and a sign change, so the
#: quasi-static shift (the pre-fix behaviour) would be visibly wrong.
OFFSETS = np.array([0.0, 1.5, 3.0, 8.0, 8.0, -2.0, 4.0, 0.5])


SETTINGS = ExperimentSettings(
    num_epochs=NUM_EPOCHS,
    mode="transient",
    settle_epochs=SETTLE,
    transient_steps_per_epoch=STEPS_PER_EPOCH,
)


def _policy(chip):
    return PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=PERIOD_US)


def _model_at_offset(chip, kind: str, offset: float):
    """A thermal model whose *network* is rebuilt at the shifted ambient."""
    package = dataclasses.replace(
        chip.thermal_model.package,
        ambient_celsius=chip.thermal_model.package.ambient_celsius + offset,
    )
    if kind == "hotspot":
        return HotSpotModel(
            chip.topology, package=package, floorplan=chip.thermal_model.floorplan
        )
    return HotSpotModel(chip.topology, resolution=2, package=package)


def _experiment_model(chip, kind: str):
    if kind == "hotspot":
        return chip.thermal_model
    return HotSpotModel(
        chip.topology, resolution=2, package=chip.thermal_model.package
    )


def _reference_rebuilt_networks(chip, kind: str, epoch_power_maps, engine: str):
    """The seed-style loop with the network rebuilt per epoch's ambient.

    ``engine`` integrates each epoch through the rebuilt model
    (``"closed-form"``) or the LU-factored Euler loop on its network
    (``"lu-euler"``).
    """
    period_s = PERIOD_US * 1e-6
    time_step = period_s / STEPS_PER_EPOCH
    coords = list(chip.topology.coordinates())

    averaged = {coord: 0.0 for coord in coords}
    for power in epoch_power_maps:
        for coord, watts in power.items():
            averaged[coord] += watts / len(epoch_power_maps)
    # Warm start at the epoch-0 ambient: the settled regime the run enters at.
    state = _model_at_offset(chip, kind, float(OFFSETS[0])).warm_state(
        map_to_vector(chip.topology, averaged)
    )

    peak_by_epoch = []
    per_epoch = []
    for power, offset in zip(epoch_power_maps, OFFSETS):
        model = _model_at_offset(chip, kind, float(offset))
        row = map_to_vector(chip.topology, power)
        if engine == "lu-euler":
            result = LuSolver(model.network).transient_sequence(
                [period_s],
                model.node_power_matrix(row),
                initial_state=state,
                time_step_s=time_step,
            )
            series = unit_celsius(model, result.samples)
        else:
            result = model.transient_sequence(
                PowerTrace(chip.topology, [period_s], [row]),
                initial_state=state,
                time_step_s=time_step,
            )
            series = result.samples
        state = result.final_state_kelvin
        peak_by_epoch.append(float(series.max()))
        per_epoch.append(
            ThermalMetrics.from_map(
                {coord: float(series[-1, idx]) for idx, coord in enumerate(coords)}
            )
        )

    settle_count = min(SETTLE, len(per_epoch))
    settled_peak = float(np.max(peak_by_epoch[-settle_count:]))
    settled_mean = float(
        np.mean([metric.mean_celsius for metric in per_epoch[-settle_count:]])
    )
    return per_epoch, settled_peak, settled_mean


@pytest.mark.parametrize("kind", ["hotspot", "grid"])
class TestExactAmbientTransient:
    @pytest.mark.parametrize("engine", ["closed-form", "lu-euler"])
    def test_matches_per_epoch_rebuilt_network_reference(self, kind, engine):
        chip = get_configuration("A")
        result = ThermalExperiment(
            chip,
            _policy(chip),
            settings=SETTINGS,
            thermal_model=_experiment_model(chip, kind),
            schedule=EpochWindow(num_epochs=NUM_EPOCHS, ambient_offsets=OFFSETS),
        ).run()

        per_epoch, settled_peak, settled_mean = _reference_rebuilt_networks(
            chip, kind, [record.power_map for record in result.epochs], engine
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
            for coord, value in expected.per_unit_celsius.items():
                assert record.thermal.per_unit_celsius[coord] == pytest.approx(
                    value, abs=1e-9
                )

    def test_still_one_transient_sequence(self, kind):
        chip = get_configuration("A")
        model = _experiment_model(chip, kind)
        solver = model.solver
        sequences_before = solver.transient_sequence_count
        steady_before = solver.steady_solve_count
        jumps_before = solver.spectral_jump_count
        ThermalExperiment(
            chip,
            _policy(chip),
            settings=SETTINGS,
            thermal_model=model,
            schedule=EpochWindow(num_epochs=NUM_EPOCHS, ambient_offsets=OFFSETS),
        ).run()
        # The boundary term is free: baseline + warm start (steady solves)
        # and one sequence evaluated in one eigenbasis pass — identical
        # counts to an ambient-free run.
        assert solver.transient_sequence_count - sequences_before == 1
        assert solver.steady_solve_count - steady_before == 2
        assert solver.spectral_jump_count - jumps_before == 1


class TestQuasiStaticIsGone:
    def test_fast_ambient_step_differs_from_post_hoc_shift(self):
        """A step schedule must NOT equal 'nominal run + per-epoch shift'.

        The RC network low-passes a fast ambient step (the sink time constant
        is much longer than one epoch), so the exact trajectory responds far
        less than the instantaneous quasi-static shift the old pipeline
        applied.  If the two coincide, the boundary term is not being
        integrated.
        """
        chip = get_configuration("A")
        step = np.concatenate([np.zeros(4), np.full(4, 10.0)])

        nominal = ThermalExperiment(
            chip, _policy(chip), settings=SETTINGS
        ).run()
        exact = ThermalExperiment(
            chip,
            _policy(chip),
            settings=SETTINGS,
            schedule=EpochWindow(num_epochs=NUM_EPOCHS, ambient_offsets=step),
        ).run()

        quasi_static_peak = nominal.epochs[4].thermal.peak_celsius + 10.0
        exact_peak = exact.epochs[4].thermal.peak_celsius
        # The die barely moves within one epoch of a +10 C ambient step.
        assert exact_peak < quasi_static_peak - 5.0
        assert exact_peak > nominal.epochs[4].thermal.peak_celsius

    def test_constant_offsets_match_shifted_package(self):
        """A constant schedule must equal a run at the shifted ambient."""
        chip = get_configuration("A")
        offset = 6.5
        shifted_model = _model_at_offset(chip, "hotspot", offset)
        reference = ThermalExperiment(
            chip,
            _policy(chip),
            settings=SETTINGS,
            thermal_model=shifted_model,
        ).run()
        exact = ThermalExperiment(
            chip,
            _policy(chip),
            settings=SETTINGS,
            schedule=EpochWindow(
                num_epochs=NUM_EPOCHS, ambient_offsets=np.full(NUM_EPOCHS, offset)
            ),
        ).run()
        assert exact.settled_peak_celsius == pytest.approx(
            reference.settled_peak_celsius, abs=1e-9
        )
        for ours, theirs in zip(exact.epochs, reference.epochs):
            assert ours.thermal.peak_celsius == pytest.approx(
                theirs.thermal.peak_celsius, abs=1e-9
            )
