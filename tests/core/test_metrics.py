"""Tests for experiment metrics records."""

import numpy as np
import pytest

from repro.core.metrics import (
    EpochRecord,
    ExperimentResult,
    PerformanceMetrics,
    ThermalMetrics,
)


class TestThermalMetrics:
    def test_from_map(self):
        metrics = ThermalMetrics.from_map({(0, 0): 50.0, (1, 0): 70.0, (2, 0): 60.0})
        assert metrics.peak_celsius == 70.0
        assert metrics.min_celsius == 50.0
        assert metrics.mean_celsius == pytest.approx(60.0)
        assert metrics.spread_celsius == pytest.approx(20.0)

    def test_spatial_std(self):
        metrics = ThermalMetrics.from_map({(0, 0): 50.0, (1, 0): 50.0})
        assert metrics.spatial_std_celsius == pytest.approx(0.0)

    def test_empty_per_unit(self):
        metrics = ThermalMetrics(peak_celsius=10, mean_celsius=5, min_celsius=1)
        assert metrics.spatial_std_celsius == 0.0


class TestPerformanceMetrics:
    def test_penalty(self):
        perf = PerformanceMetrics(total_cycles=1000, migration_cycles=16, migrations_performed=2)
        assert perf.throughput_penalty == pytest.approx(0.016)
        assert perf.throughput_fraction == pytest.approx(0.984)
        assert perf.useful_cycles == 984

    def test_zero_cycles(self):
        perf = PerformanceMetrics(total_cycles=0, migration_cycles=0, migrations_performed=0)
        assert perf.throughput_penalty == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceMetrics(total_cycles=10, migration_cycles=20, migrations_performed=1)
        with pytest.raises(ValueError):
            PerformanceMetrics(total_cycles=-1, migration_cycles=0, migrations_performed=0)


def _result(baseline_peak=85.0, settled_peak=80.0, baseline_mean=70.0, settled_mean=70.5):
    thermal = ThermalMetrics.from_map({(0, 0): settled_peak})
    epochs = [
        EpochRecord(
            epoch_index=0,
            transform_applied="xy-shift",
            migration_cycles=100,
            migration_energy_j=1e-6,
            thermal=thermal,
        )
    ]
    return ExperimentResult(
        configuration_name="A",
        scheme_name="periodic-xy-shift",
        period_us=109.0,
        baseline_peak_celsius=baseline_peak,
        baseline_mean_celsius=baseline_mean,
        epochs=epochs,
        performance=PerformanceMetrics(
            total_cycles=54500, migration_cycles=870, migrations_performed=1
        ),
        total_migration_energy_j=1e-6,
        settled_peak_celsius=settled_peak,
        settled_mean_celsius=settled_mean,
    )


class TestExperimentResult:
    def test_peak_reduction_sign_convention(self):
        result = _result(baseline_peak=85.0, settled_peak=80.0)
        assert result.peak_reduction_celsius == pytest.approx(5.0)
        worse = _result(baseline_peak=85.0, settled_peak=86.0)
        assert worse.peak_reduction_celsius == pytest.approx(-1.0)

    def test_mean_increase(self):
        result = _result(baseline_mean=70.0, settled_mean=70.3)
        assert result.mean_increase_celsius == pytest.approx(0.3)

    def test_epoch_record_migrated_flag(self):
        result = _result()
        assert result.epochs[0].migrated

    def test_peak_series(self):
        result = _result(settled_peak=81.0)
        series = result.peak_series()
        assert series.shape == (1,)
        assert series[0] == pytest.approx(81.0)

    def test_summary_dictionary(self):
        summary = _result().summary()
        assert summary["configuration"] == "A"
        assert summary["scheme"] == "periodic-xy-shift"
        assert "peak_reduction_c" in summary
        assert "throughput_penalty" in summary
