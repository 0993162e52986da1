"""Tests for the conventional DTM baselines (stop-go, DVFS)."""

import pytest

from repro.core.dtm import DvfsThrottling, StopGoThrottling


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
