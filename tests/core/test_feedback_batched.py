"""Parity suite: the chunked feedback loop vs the seed per-epoch path.

Before the :class:`repro.core.experiment.FeedbackPlan`, threshold/adaptive
policies cost one dict-round-tripped steady solve per epoch plus a
standalone probe of the static pre-experiment power.  The reference
implementations below replicate that seed loop verbatim on the public
dict-view APIs; the batched pipeline must reproduce its trajectories —
decisions, migrations and thermal metrics — to <1e-9 at ``k=1`` across
threshold + adaptive policies, steady + transient modes, and the
block-level + grid thermal models.  Stride ``k>1`` runs are pinned to the
same decision trajectories under constant load, and every run is guarded
to ``ceil(num_epochs / k)`` feedback batches — never a per-epoch solve.
"""

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.core.experiment import ExperimentSettings, FeedbackPlan, ThermalExperiment
from repro.core.metrics import ThermalMetrics
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    PolicyContext,
    ReconfigurationPolicy,
    ThresholdMigrationPolicy,
)
from repro.power.trace import PowerTrace, vector_to_map
from repro.stream import EpochWindow
from repro.thermal.hotspot import HotSpotModel

EPOCHS = 11

STEADY = ExperimentSettings(num_epochs=EPOCHS, mode="steady", settle_epochs=EPOCHS - 1)
TRANSIENT = ExperimentSettings(
    num_epochs=EPOCHS, mode="transient", settle_epochs=6, transient_steps_per_epoch=4
)


def _threshold(chip, trigger=70.0):
    return ThresholdMigrationPolicy(
        chip.topology, "xy-shift", trigger_celsius=trigger, period_us=109.0
    )


def _adaptive(chip):
    return AdaptiveMigrationPolicy(chip.topology, period_us=109.0)


def _grid_model(chip):
    return HotSpotModel(
        chip.topology,
        resolution=2,
        package=chip.thermal_model.package,
        floorplan=chip.thermal_model.floorplan,
    )


# ----------------------------------------------------------------------
# Seed-equivalent reference: per-epoch dict-path feedback loop
# ----------------------------------------------------------------------
def _reference_feedback_epochs(chip, policy, settings, model, ambient=None):
    """The seed feedback loop: probe + one dict-path solve per epoch."""
    policy.reset()
    controller = RuntimeReconfigurationController(
        chip, include_migration_energy=settings.include_migration_energy
    )
    topology = chip.topology
    period_s = policy.period_us * 1e-6

    def feedback(power_vector, epoch_index):
        temps = model.steady_state_by_coord(vector_to_map(topology, power_vector))
        if ambient is not None:
            offset = float(ambient[epoch_index])
            temps = {coord: value + offset for coord, value in temps.items()}
        # The policy reads the dict as a row-major Celsius row.
        return np.array([temps[coord] for coord in topology.coordinates()])

    previous_row = None
    epochs = []
    for epoch_index in range(settings.num_epochs):
        if previous_row is None:
            previous_row = feedback(controller.static_power_vector(), epoch_index)
        context = PolicyContext(epoch_index=epoch_index, unit_celsius=previous_row)
        transform = policy.decide(context)
        (power,), (cost,), _ = controller.walk(
            epoch_index, lambda epoch, in_flight: transform, np.array([period_s])
        )
        name = cost.transform_name if cost is not None else None
        epochs.append((power, cost, name))
        previous_row = feedback(power, epoch_index)
    return epochs


def reference_steady_feedback(chip, policy, settings, model, ambient=None):
    """Seed steady mode on top of the per-epoch feedback loop."""
    epochs = _reference_feedback_epochs(chip, policy, settings, model, ambient)
    per_epoch = [
        ThermalMetrics.from_map(
            model.steady_state_by_coord(vector_to_map(chip.topology, power))
        )
        for power, _cost, _name in epochs
    ]
    settle_count = settings.settled_count(len(epochs))
    settled_power = np.mean([power for power, _c, _n in epochs[-settle_count:]], axis=0)
    settled = ThermalMetrics.from_map(
        model.steady_state_by_coord(vector_to_map(chip.topology, settled_power))
    )
    return epochs, per_epoch, settled


def reference_transient_feedback(chip, policy, settings, model):
    """Seed transient mode on top of the per-epoch feedback loop."""
    epochs = _reference_feedback_epochs(chip, policy, settings, model)
    period_s = policy.period_us * 1e-6
    time_step = period_s / settings.transient_steps_per_epoch
    averaged = np.mean([power for power, _c, _n in epochs], axis=0)
    state = model.warm_state(averaged)

    peak_by_epoch = []
    per_epoch = []
    for power, _cost, _name in epochs:
        result = model.transient_sequence(
            PowerTrace(chip.topology, [period_s], [power]),
            initial_state=state,
            time_step_s=time_step,
        )
        state = result.final_state_kelvin
        series = result.samples
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
    return epochs, per_epoch, settled_peak, settled_mean


def _assert_trajectory_matches(result, reference_epochs):
    assert len(result.epochs) == len(reference_epochs)
    for record, (_power, cost, name) in zip(result.epochs, reference_epochs):
        assert record.transform_applied == name
        assert record.migration_cycles == (cost.cycles if cost else 0)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_factory", [_threshold, _adaptive])
@pytest.mark.parametrize("model_kind", ["hotspot", "grid"])
class TestK1SteadyParity:
    """k=1 must reproduce the seed per-epoch feedback path to <1e-9."""

    def test_matches_seed_feedback_path(self, policy_factory, model_kind):
        chip = get_configuration("A")
        model = chip.thermal_model if model_kind == "hotspot" else _grid_model(chip)
        result = ThermalExperiment(
            chip, policy_factory(chip), settings=STEADY, thermal_model=model
        ).run()

        reference_epochs, per_epoch, settled = reference_steady_feedback(
            chip, policy_factory(chip), STEADY, model
        )
        _assert_trajectory_matches(result, reference_epochs)
        assert result.settled_peak_celsius == pytest.approx(
            settled.peak_celsius, abs=1e-9
        )
        assert result.settled_mean_celsius == pytest.approx(
            settled.mean_celsius, abs=1e-9
        )
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )
            assert record.thermal.mean_celsius == pytest.approx(
                expected.mean_celsius, abs=1e-9
            )


@pytest.mark.parametrize("policy_factory", [_threshold, _adaptive])
@pytest.mark.parametrize("model_kind", ["hotspot", "grid"])
class TestK1TransientParity:
    def test_matches_seed_feedback_path(self, policy_factory, model_kind):
        chip = get_configuration("A")
        model = chip.thermal_model if model_kind == "hotspot" else _grid_model(chip)
        result = ThermalExperiment(
            chip, policy_factory(chip), settings=TRANSIENT, thermal_model=model
        ).run()

        reference_epochs, per_epoch, settled_peak, settled_mean = (
            reference_transient_feedback(chip, policy_factory(chip), TRANSIENT, model)
        )
        _assert_trajectory_matches(result, reference_epochs)
        assert result.settled_peak_celsius == pytest.approx(settled_peak, abs=1e-9)
        assert result.settled_mean_celsius == pytest.approx(settled_mean, abs=1e-9)
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )


class TestK1AmbientParity:
    def test_threshold_sees_offsets_identically(self):
        """Ambient-scheduled feedback matches the seed path at k=1."""
        chip = get_configuration("A")
        ambient = np.linspace(0.0, 5.0, EPOCHS)
        nominal_peak = chip.base_peak_temperature()
        make = lambda: _threshold(chip, trigger=nominal_peak + 2.5)

        result = ThermalExperiment(
            chip,
            make(),
            settings=STEADY,
            schedule=EpochWindow(num_epochs=EPOCHS, ambient_offsets=ambient),
        ).run()
        reference_epochs, _per_epoch, _settled = reference_steady_feedback(
            chip, make(), STEADY, chip.thermal_model, ambient=ambient
        )
        _assert_trajectory_matches(result, reference_epochs)
        # The ramp crosses the trigger mid-run: some epochs migrate, some
        # don't, so the parity actually exercises the offset path.
        names = [record.transform_applied for record in result.epochs]
        assert None in names and "xy-shift" in names


# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride", [2, 4])
@pytest.mark.parametrize("predictor", ["hold", "previous"])
class TestStrideTrajectories:
    """Stride-k runs under constant load keep the k=1 decision trajectory."""

    def test_threshold_decisions_unchanged(self, stride, predictor):
        chip = get_configuration("A")
        reference_epochs = _reference_feedback_epochs(
            chip, _threshold(chip), STEADY, chip.thermal_model
        )
        settings = ExperimentSettings(
            num_epochs=EPOCHS,
            mode="steady",
            settle_epochs=EPOCHS - 1,
            feedback_stride=stride,
            feedback_predictor=predictor,
        )
        result = ThermalExperiment(chip, _threshold(chip), settings=settings).run()
        _assert_trajectory_matches(result, reference_epochs)
        # Identical decisions mean identical power rows, so the settled
        # metrics agree with the per-epoch path bit-for-bit too.
        _epochs, per_epoch, settled = reference_steady_feedback(
            chip, _threshold(chip), STEADY, chip.thermal_model
        )
        assert result.settled_peak_celsius == pytest.approx(
            settled.peak_celsius, abs=1e-9
        )
        for record, expected in zip(result.epochs, per_epoch):
            assert record.thermal.peak_celsius == pytest.approx(
                expected.peak_celsius, abs=1e-9
            )

    def test_adaptive_decisions_unchanged(self, stride, predictor):
        chip = get_configuration("A")
        reference_epochs = _reference_feedback_epochs(
            chip, _adaptive(chip), STEADY, chip.thermal_model
        )
        settings = ExperimentSettings(
            num_epochs=EPOCHS,
            mode="steady",
            settle_epochs=EPOCHS - 1,
            feedback_stride=stride,
            feedback_predictor=predictor,
        )
        result = ThermalExperiment(chip, _adaptive(chip), settings=settings).run()
        _assert_trajectory_matches(result, reference_epochs)


# ----------------------------------------------------------------------
class TestSolveCounts:
    """The acceptance bound: <= ceil(num_epochs / k) + 1 steady solves."""

    @pytest.mark.parametrize("stride", [1, 2, 5, EPOCHS])
    def test_steady_feedback_solve_budget(self, stride):
        chip = get_configuration("A")
        solver = chip.thermal_model.solver
        settings = ExperimentSettings(
            num_epochs=EPOCHS,
            mode="steady",
            settle_epochs=EPOCHS - 1,
            feedback_stride=stride,
        )
        before = solver.steady_solve_count
        experiment = ThermalExperiment(chip, _threshold(chip), settings=settings)
        experiment.run()
        chunks = -(-EPOCHS // stride)
        # ceil(E/k) feedback batches + the one metrics batch, and never more.
        assert solver.steady_solve_count - before == chunks + 1
        assert experiment.feedback_plan.batch_solves == chunks

    @pytest.mark.parametrize("stride", [1, 4])
    def test_transient_feedback_solve_budget(self, stride):
        chip = get_configuration("A")
        solver = chip.thermal_model.solver
        settings = ExperimentSettings(
            num_epochs=EPOCHS,
            mode="transient",
            settle_epochs=6,
            transient_steps_per_epoch=4,
            feedback_stride=stride,
        )
        steady_before = solver.steady_solve_count
        sequences_before = solver.transient_sequence_count
        ThermalExperiment(chip, _threshold(chip), settings=settings).run()
        chunks = -(-EPOCHS // stride)
        # Feedback chunks + baseline + warm start; still exactly one
        # sequenced integration.
        assert solver.steady_solve_count - steady_before == chunks + 2
        assert solver.transient_sequence_count - sequences_before == 1

    def test_probe_rides_the_batch_not_the_dict_path(self, monkeypatch):
        """The epoch-0 probe must not be a standalone dict-path solve."""
        chip = get_configuration("A")
        monkeypatch.setattr(
            chip.thermal_model,
            "steady_state_by_coord",
            lambda *_a, **_k: pytest.fail(
                "feedback took the per-map dict path; the probe and every "
                "refresh must ride the batched steady_temperatures call"
            ),
        )
        result = ThermalExperiment(chip, _threshold(chip), settings=STEADY).run()
        assert result.migrations_performed > 0

    def test_feedback_free_policies_build_no_plan(self):
        from repro.core.policy import PeriodicMigrationPolicy

        chip = get_configuration("A")
        solver = chip.thermal_model.solver
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        before = solver.steady_solve_count
        experiment = ThermalExperiment(chip, policy, settings=STEADY)
        experiment.run()
        assert experiment.feedback_plan is None
        assert solver.steady_solve_count - before == 1


# ----------------------------------------------------------------------
class TestRequiresThermalFeedbackAttribute:
    """Custom policies no longer inherit the feedback path via isinstance."""

    class _CustomSilent(ReconfigurationPolicy):
        name = "custom-silent"

        def decide(self, context):
            # A custom policy that never reads temperatures; before the
            # attribute it silently paid one solve per epoch.
            assert context.unit_celsius is None
            return None

    class _CustomFeedback(ReconfigurationPolicy):
        name = "custom-feedback"
        requires_thermal_feedback = True

        def __init__(self, period_us=109.0):
            super().__init__(period_us)
            self.peaks = []

        def decide(self, context):
            row = context.unit_celsius
            # The row is the plan's carried state: policies cannot write it.
            assert not row.flags.writeable
            self.peaks.append(float(row.max()))
            return None

    def test_custom_policy_defaults_to_no_feedback(self):
        chip = get_configuration("A")
        solver = chip.thermal_model.solver
        before = solver.steady_solve_count
        ThermalExperiment(chip, self._CustomSilent(109.0), settings=STEADY).run()
        # Only the metrics batch: zero feedback solves for a policy that
        # did not opt in.
        assert solver.steady_solve_count - before == 1

    def test_opt_in_policy_receives_metrics(self):
        chip = get_configuration("A")
        policy = self._CustomFeedback()
        ThermalExperiment(chip, policy, settings=STEADY).run()
        assert len(policy.peaks) == EPOCHS
        assert all(peak > 40.0 for peak in policy.peaks)

    def test_builtin_policies_declare_correctly(self):
        from repro.core.policy import NoMigrationPolicy, PeriodicMigrationPolicy

        chip = get_configuration("A")
        assert _threshold(chip).requires_thermal_feedback
        assert _adaptive(chip).requires_thermal_feedback
        assert not NoMigrationPolicy().requires_thermal_feedback
        assert not PeriodicMigrationPolicy(
            chip.topology, "xy-shift"
        ).requires_thermal_feedback


class TestMetricsAtTheReportEdge:
    """Decisions run on Celsius rows; ThermalMetrics is built for reports only."""

    def test_records_off_builds_no_metrics(self, monkeypatch):
        chip = get_configuration("A")
        built = []
        from_vector = ThermalMetrics.from_vector.__func__

        def counting(cls, topology, row):
            built.append(np.array(row))
            return from_vector(cls, topology, row)

        monkeypatch.setattr(ThermalMetrics, "from_vector", classmethod(counting))
        settings = ExperimentSettings(num_epochs=40, mode="transient", settle_epochs=20)
        experiment = ThermalExperiment(chip, _adaptive(chip), settings=settings)
        experiment.prepare(total_epochs=40, collect_records=False)
        experiment.step_window(experiment.schedule, is_last=True)
        result = experiment.finalize()
        assert built == []
        # The baseline is the static power's steady row, as from_vector
        # would report it.
        static = np.array([chip.power_vector()])
        baseline = ThermalMetrics.from_vector(
            chip.topology, chip.thermal_model.steady_temperatures(static)[0]
        )
        assert result.baseline_peak_celsius == baseline.peak_celsius
        assert result.baseline_mean_celsius == baseline.mean_celsius
        assert experiment.feedback_plan.batch_solves == 40

    @pytest.mark.parametrize("mode", ["steady", "transient"])
    @pytest.mark.parametrize("chip_name", ["A", "C", "E"])
    def test_window_figures_equal_the_record_metrics(self, mode, chip_name):
        chip = get_configuration(chip_name)
        settings = ExperimentSettings(num_epochs=12, mode=mode, settle_epochs=6)
        experiment = ThermalExperiment(chip, _adaptive(chip), settings=settings)
        experiment.prepare(total_epochs=12, collect_records=True)
        outcome = experiment.step_window(experiment.schedule, is_last=True)
        metrics = [record.thermal for record in experiment.finalize().epochs]
        assert outcome.epoch_metrics.shape == (12, chip.topology.num_nodes)
        assert outcome.mean_by_epoch.tolist() == [m.mean_celsius for m in metrics]
        if mode == "steady":
            # Transient peaks span each epoch's samples, not its final instant.
            assert outcome.peak_by_epoch.tolist() == [m.peak_celsius for m in metrics]


class TestFeedbackPlanUnit:
    def test_validation(self):
        chip = get_configuration("A")
        with pytest.raises(ValueError, match="stride"):
            FeedbackPlan(chip.thermal_model, stride=0)
        with pytest.raises(ValueError, match="predictor"):
            FeedbackPlan(chip.thermal_model, stride=1, predictor="oracle")

    def test_unprimed_plan_fails_loudly(self):
        chip = get_configuration("A")
        plan = FeedbackPlan(chip.thermal_model, stride=1)
        with pytest.raises(RuntimeError, match="prime"):
            plan.thermal_for(0)

    def test_previous_predictor_reuses_prior_batch_rows(self):
        """Mid-chunk, epoch i is answered by the solved row of i-1-stride."""
        chip = get_configuration("A")
        stride = 3
        plan = FeedbackPlan(chip.thermal_model, stride=stride, predictor="previous")
        rng = np.random.default_rng(3)
        rows = 1.0 + rng.random((2 * stride, chip.topology.num_nodes))
        plan.prime(chip.power_vector())
        plan.thermal_for(0)
        plan.observe(0, rows[:stride])
        # Refresh at the chunk boundary solves rows 0..stride-1.
        fresh = plan.thermal_for(stride)
        expected_last = chip.thermal_model.steady_temperatures(
            rows[stride - 1][np.newaxis, :]
        )[0]
        assert fresh == pytest.approx(expected_last, abs=1e-9)
        plan.observe(stride, rows[stride:])
        # Mid-chunk: epoch stride+1 wants T(rows[stride]); the predictor
        # serves the solved row of epoch (stride+1)-1-stride = 0.
        predicted = plan.thermal_for(stride + 1)
        expected_proxy = chip.thermal_model.steady_temperatures(
            rows[0][np.newaxis, :]
        )[0]
        assert predicted == pytest.approx(expected_proxy, abs=1e-9)
        assert plan.predictions_served == 1
