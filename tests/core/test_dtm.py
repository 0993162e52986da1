"""Tests for the conventional DTM baselines (stop-go, DVFS)."""

import pytest

from repro.core.dtm import (
    DtmComparison,
    DvfsThrottling,
    StopGoThrottling,
    compare_with_migration,
)


class TestStopGoThrottling:
    def test_full_duty_cycle_is_baseline(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        point = dtm.operating_point(1.0)
        assert point.peak_celsius == pytest.approx(chip_a.base_peak_temperature(), abs=1e-6)
        assert point.throughput_fraction == 1.0

    def test_lower_duty_cycle_is_cooler_and_slower(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        full = dtm.operating_point(1.0)
        half = dtm.operating_point(0.5)
        assert half.peak_celsius < full.peak_celsius
        assert half.throughput_penalty == pytest.approx(0.5)

    def test_duty_cycle_for_peak_monotone(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        base = chip_a.base_peak_temperature()
        mild = dtm.duty_cycle_for_peak(base - 2.0)
        aggressive = dtm.duty_cycle_for_peak(base - 8.0)
        assert 0 < aggressive < mild <= 1.0

    def test_duty_cycle_for_peak_achieves_target(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        target = chip_a.base_peak_temperature() - 5.0
        duty = dtm.duty_cycle_for_peak(target)
        assert dtm.operating_point(duty).peak_celsius == pytest.approx(target, abs=0.2)

    def test_target_above_baseline_costs_nothing(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        assert dtm.duty_cycle_for_peak(chip_a.base_peak_temperature() + 5.0) == 1.0

    def test_unreachable_target_rejected(self, chip_a):
        dtm = StopGoThrottling(chip_a)
        with pytest.raises(ValueError):
            dtm.duty_cycle_for_peak(30.0)  # below ambient

    def test_invalid_parameters(self, chip_a):
        with pytest.raises(ValueError):
            StopGoThrottling(chip_a, idle_fraction_of_power=1.0)
        dtm = StopGoThrottling(chip_a)
        with pytest.raises(ValueError):
            dtm.power_map(0.0)
        with pytest.raises(ValueError):
            dtm.power_map(1.5)


class TestOperatingCurves:
    def test_curves_are_monotone_and_dvfs_cools_faster(self, chip_a):
        """Less throughput, lower peak, for both global mechanisms; DVFS
        (with voltage scaling) reaches a lower peak at half throughput."""
        levels = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
        stop_go = StopGoThrottling(chip_a)
        dvfs = DvfsThrottling(chip_a)
        stop_peaks = [stop_go.operating_point(level).peak_celsius for level in levels]
        dvfs_peaks = [dvfs.operating_point(level).peak_celsius for level in levels]
        assert stop_peaks == sorted(stop_peaks, reverse=True)
        assert dvfs_peaks == sorted(dvfs_peaks, reverse=True)
        assert dvfs_peaks[-1] <= stop_peaks[-1]


class TestDvfsThrottling:
    def test_full_frequency_is_baseline(self, chip_a):
        dvfs = DvfsThrottling(chip_a)
        assert dvfs.operating_point(1.0).peak_celsius == pytest.approx(
            chip_a.base_peak_temperature(), abs=1e-6
        )

    def test_voltage_scaling_cools_faster_than_frequency_alone(self, chip_a):
        with_voltage = DvfsThrottling(chip_a, scale_voltage=True)
        without_voltage = DvfsThrottling(chip_a, scale_voltage=False)
        assert (
            with_voltage.operating_point(0.7).peak_celsius
            < without_voltage.operating_point(0.7).peak_celsius
        )

    def test_frequency_for_peak_achieves_target(self, chip_a):
        dvfs = DvfsThrottling(chip_a)
        target = chip_a.base_peak_temperature() - 5.0
        ratio = dvfs.frequency_for_peak(target)
        assert 0 < ratio <= 1.0
        assert dvfs.operating_point(ratio).peak_celsius <= target + 1e-9

    def test_unreachable_target_rejected(self, chip_a):
        dvfs = DvfsThrottling(chip_a)
        with pytest.raises(ValueError):
            dvfs.frequency_for_peak(30.0)

    def test_invalid_parameters(self, chip_a):
        with pytest.raises(ValueError):
            DvfsThrottling(chip_a, leakage_fraction_of_power=1.5)
        with pytest.raises(ValueError):
            DvfsThrottling(chip_a, min_voltage_ratio=0.0)
        dvfs = DvfsThrottling(chip_a)
        with pytest.raises(ValueError):
            dvfs.power_map(0.0)
        with pytest.raises(ValueError):
            dvfs.frequency_for_peak(70.0, resolution=2.0)


class TestComparisonWithMigration:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.chips import get_configuration

        return compare_with_migration(
            get_configuration("A"), scheme="xy-shift", num_epochs=21
        )

    def test_rows_structure(self, comparison):
        rows = comparison.to_rows()
        assert len(rows) == 3
        assert {"technique", "peak_c", "throughput_penalty_pct"} <= set(rows[0])

    def test_migration_much_cheaper_than_global_throttling(self, comparison):
        """The paper's motivating claim: reaching the migrated peak
        temperature by slowing the whole chip costs far more throughput than
        migration does."""
        assert comparison.migration_penalty < 0.05
        assert comparison.stop_go_penalty > 3 * comparison.migration_penalty
        assert comparison.dvfs_penalty > comparison.migration_penalty

    def test_throttling_penalties_reach_the_migrated_peak(self, comparison):
        from repro.chips import get_configuration

        chip = get_configuration("A")
        assert comparison.target_peak_celsius == comparison.migration_peak_celsius
        stop_go = StopGoThrottling(chip).operating_point(
            1.0 - comparison.stop_go_penalty
        )
        assert stop_go.peak_celsius == pytest.approx(
            comparison.target_peak_celsius, abs=0.2
        )
        dvfs = DvfsThrottling(chip).operating_point(1.0 - comparison.dvfs_penalty)
        assert dvfs.peak_celsius <= comparison.target_peak_celsius + 1e-6

    def test_migration_cheapest_on_every_configuration(self):
        from repro.chips import all_configurations

        for chip in all_configurations():
            comparison = compare_with_migration(
                chip, scheme="xy-shift", num_epochs=41
            )
            assert comparison.migration_penalty < 0.05, chip.name
            assert comparison.stop_go_penalty > comparison.migration_penalty
            assert comparison.dvfs_penalty > comparison.migration_penalty

    def test_penalties_in_unit_interval(self, comparison):
        for value in (
            comparison.migration_penalty,
            comparison.stop_go_penalty,
            comparison.dvfs_penalty,
        ):
            assert 0.0 <= value < 1.0
