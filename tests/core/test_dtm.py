"""Tests for the conventional DTM baselines (stop-go, DVFS)."""

import pytest

from repro.core.dtm import DvfsThrottling, StopGoThrottling
from reference import peak_at_scale


def stop_go_peak(chip, duty_cycle, idle=0.08):
    """Peak under stop-go at ``duty_cycle``: the time-averaged power."""
    return peak_at_scale(chip, duty_cycle + (1.0 - duty_cycle) * idle)


def dvfs_peak(dvfs, frequency_ratio):
    """Peak under DVFS at ``frequency_ratio``: leakage plus scaled dynamic power."""
    leak = dvfs.leakage_fraction_of_power
    scale = leak + (1.0 - leak) * dvfs._power_scale(frequency_ratio)
    return peak_at_scale(dvfs.configuration, scale)


def test_paper_reductions_need_throttling(chip_a):
    """Less throughput, lower peak, for both global mechanisms; DVFS (with
    voltage scaling) reaches a lower peak at half throughput."""
    levels = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
    dvfs = DvfsThrottling(chip_a)
    stop_peaks = [stop_go_peak(chip_a, level) for level in levels]
    dvfs_peaks = [dvfs_peak(dvfs, level) for level in levels]
    assert stop_peaks == sorted(stop_peaks, reverse=True)
    assert dvfs_peaks == sorted(dvfs_peaks, reverse=True)
    assert dvfs_peaks[-1] <= stop_peaks[-1]
    assert stop_peaks[0] == pytest.approx(chip_a.base_peak_temperature(), abs=1e-6)
    assert dvfs_peaks[0] == pytest.approx(chip_a.base_peak_temperature(), abs=1e-6)


class TestStopGoThrottling:
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
        assert stop_go_peak(chip_a, duty) == pytest.approx(target, abs=0.2)

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


class TestDvfsThrottling:
    def test_voltage_scaling_cools_faster_than_frequency_alone(self, chip_a):
        with_voltage = DvfsThrottling(chip_a, scale_voltage=True)
        without_voltage = DvfsThrottling(chip_a, scale_voltage=False)
        assert dvfs_peak(with_voltage, 0.7) < dvfs_peak(without_voltage, 0.7)

    def test_frequency_for_peak_achieves_target(self, chip_a):
        dvfs = DvfsThrottling(chip_a)
        target = chip_a.base_peak_temperature() - 5.0
        ratio = dvfs.frequency_for_peak(target)
        assert 0 < ratio <= 1.0
        assert dvfs_peak(dvfs, ratio) <= target + 1e-9

    def test_unreachable_target_rejected(self, chip_a):
        dvfs = DvfsThrottling(chip_a)
        with pytest.raises(ValueError):
            dvfs.frequency_for_peak(30.0)

    def test_invalid_parameters(self, chip_a):
        with pytest.raises(ValueError):
            DvfsThrottling(chip_a, leakage_fraction_of_power=1.5)
        with pytest.raises(ValueError):
            DvfsThrottling(chip_a, min_voltage_ratio=0.0)
        with pytest.raises(ValueError):
            DvfsThrottling(chip_a).frequency_for_peak(70.0, resolution=2.0)
