"""Tests for the end-to-end thermal experiment driver."""

import pytest

from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    ThresholdMigrationPolicy,
)


FAST_STEADY = ExperimentSettings(num_epochs=21, mode="steady", settle_epochs=20)
FAST_TRANSIENT = ExperimentSettings(
    num_epochs=13, mode="transient", settle_epochs=8, transient_steps_per_epoch=4
)


class TestSettingsValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentSettings(mode="magic")

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            ExperimentSettings(num_epochs=0)

    def test_rejects_bad_settle(self):
        with pytest.raises(ValueError):
            ExperimentSettings(num_epochs=10, settle_epochs=11)

    def test_settled_count_override(self):
        settings = ExperimentSettings(num_epochs=10, settle_epochs=4)
        assert settings.settled_count(10) == 4
        default = ExperimentSettings(num_epochs=10)
        assert default.settled_count(10) == 5


class TestStaticBaseline:
    def test_no_migration_changes_nothing(self, chip_a):
        experiment = ThermalExperiment(chip_a, NoMigrationPolicy(), settings=FAST_STEADY)
        result = experiment.run()
        assert result.migrations_performed == 0
        assert result.throughput_penalty == 0.0
        assert result.settled_peak_celsius == pytest.approx(result.baseline_peak_celsius, abs=1e-6)
        assert result.peak_reduction_celsius == pytest.approx(0.0, abs=1e-6)

    def test_baseline_matches_figure1_axis(self, chip_a):
        experiment = ThermalExperiment(chip_a, NoMigrationPolicy(), settings=FAST_STEADY)
        result = experiment.run()
        assert result.baseline_peak_celsius == pytest.approx(85.44, abs=0.01)


class TestPeriodicMigrationSteady:
    def test_xy_shift_reduces_peak_on_A(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        assert result.peak_reduction_celsius > 2.0
        assert result.migrations_performed == FAST_STEADY.num_epochs - 1
        assert 0.0 < result.throughput_penalty < 0.05

    def test_rotation_does_not_help_on_E(self, chip_e):
        """The centre hotspot of configuration E is a fixed point of rotation,
        so rotation gives (at best) marginal reduction there — the paper even
        reports a small increase."""
        policy = PeriodicMigrationPolicy(chip_e.topology, "rotation", period_us=109.0)
        result = ThermalExperiment(chip_e, policy, settings=FAST_STEADY).run()
        assert result.peak_reduction_celsius < 1.0

    def test_migration_energy_raises_mean_temperature(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "rotation", period_us=109.0)
        with_energy = ThermalExperiment(
            chip_a, policy, settings=ExperimentSettings(num_epochs=21, settle_epochs=20)
        ).run()
        without_energy = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "rotation", period_us=109.0),
            settings=ExperimentSettings(
                num_epochs=21, settle_epochs=20, include_migration_energy=False
            ),
        ).run()
        assert with_energy.settled_mean_celsius > without_energy.settled_mean_celsius

    def test_epoch_records_complete(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "x-mirror", period_us=109.0)
        result = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        assert len(result.epochs) == FAST_STEADY.num_epochs
        assert result.epochs[0].transform_applied is None  # skip_first
        assert all(e.transform_applied == "x-mirror" for e in result.epochs[1:])

    def test_result_names_its_run(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        assert result.configuration_name == "A"
        assert result.period_us == 109.0


class TestTransientMode:
    def test_transient_close_to_steady(self, chip_a):
        """With a 109 us period and millisecond-scale die time constants the
        within-period ripple is tiny, so transient and steady estimates of the
        settled peak agree closely (the paper's <0.1 degC observation)."""
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        steady = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        policy2 = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        transient = ThermalExperiment(chip_a, policy2, settings=FAST_TRANSIENT).run()
        assert transient.settled_peak_celsius == pytest.approx(
            steady.settled_peak_celsius, abs=1.0
        )

    def test_transient_records_per_epoch_metrics(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        result = ThermalExperiment(chip_a, policy, settings=FAST_TRANSIENT).run()
        assert len(result.epochs) == FAST_TRANSIENT.num_epochs
        assert all(e.thermal.peak_celsius > 40.0 for e in result.epochs)


class TestOtherPolicies:
    def test_threshold_policy_runs(self, chip_a):
        policy = ThresholdMigrationPolicy(
            chip_a.topology, "xy-shift", trigger_celsius=80.0, period_us=109.0
        )
        result = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        # Baseline peak is ~85 C (> trigger), so migrations must happen.
        assert result.migrations_performed > 0

    def test_threshold_policy_idle_when_cool(self, chip_a):
        policy = ThresholdMigrationPolicy(
            chip_a.topology, "xy-shift", trigger_celsius=150.0, period_us=109.0
        )
        result = ThermalExperiment(chip_a, policy, settings=FAST_STEADY).run()
        assert result.migrations_performed == 0

    def test_adaptive_policy_reduces_peak(self, chip_e):
        policy = AdaptiveMigrationPolicy(chip_e.topology, period_us=109.0)
        result = ThermalExperiment(chip_e, policy, settings=FAST_STEADY).run()
        assert result.peak_reduction_celsius > 0.0
