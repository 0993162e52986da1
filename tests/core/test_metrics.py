"""Tests for experiment metrics records."""

import numpy as np
import pytest

from repro.core.metrics import (
    EpochColumns,
    EpochRecord,
    ExperimentResult,
    PerformanceMetrics,
    ThermalMetrics,
)
from repro.noc.topology import MeshTopology
from repro.scenarios import get_scenario
from repro.scenarios.compile import run_scenario


class TestThermalMetrics:
    def test_from_vector(self):
        metrics = ThermalMetrics.from_vector(MeshTopology(3, 1), np.array([50.0, 70.0, 60.0]))
        assert metrics.peak_celsius == 70.0
        assert metrics.min_celsius == 50.0
        assert metrics.mean_celsius == pytest.approx(60.0)
        assert metrics.per_unit_celsius == {(0, 0): 50.0, (1, 0): 70.0, (2, 0): 60.0}


class TestPerformanceMetrics:
    def test_penalty(self):
        perf = PerformanceMetrics(total_cycles=1000, migration_cycles=16, migrations_performed=2)
        assert perf.throughput_penalty == pytest.approx(0.016)

    def test_zero_cycles(self):
        perf = PerformanceMetrics(total_cycles=0, migration_cycles=0, migrations_performed=0)
        assert perf.throughput_penalty == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceMetrics(total_cycles=10, migration_cycles=20, migrations_performed=1)
        with pytest.raises(ValueError):
            PerformanceMetrics(total_cycles=-1, migration_cycles=0, migrations_performed=0)


def _result(baseline_peak=85.0, settled_peak=80.0, baseline_mean=70.0, settled_mean=70.5):
    epochs = EpochColumns(
        MeshTopology(1, 1),
        power=np.array([[2.5]]),
        celsius=np.array([[settled_peak]]),
        transforms=["xy-shift"],
        cycles=np.array([100]),
        energy=np.array([1e-6]),
    )
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

    def test_epoch_record_transform(self):
        assert _result().epochs[0].transform_applied == "xy-shift"


class TestRecordsAtTheReportEdge:
    """A result keeps columns; records are built only when read."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"records": 0, "metrics": 0}
        for cls, key in ((EpochRecord, "records"), (ThermalMetrics, "metrics")):
            def counting(self, *args, _init=cls.__init__, _key=key, **kwargs):
                counts[_key] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("name", ["steady-baseline", "pe-fault-transient"])
    def test_unread_records_are_never_built(self, built, name):
        # The baseline and settled figures are a row's max() and mean(), so
        # a run whose records nobody reads builds no metrics at all.
        result = run_scenario(get_scenario(name)).experiment
        assert len(result.epochs) == get_scenario(name).num_epochs
        assert built == {"records": 0, "metrics": 0}

    def test_a_record_is_built_once_on_first_read(self, built):
        result = run_scenario(get_scenario("steady-baseline")).experiment
        record = result.epochs[-1]
        assert built["records"] == 1
        assert result.epochs[len(result.epochs) - 1] is record
        assert record.epoch_index == len(result.epochs) - 1
        assert built["records"] == 1
        assert len(result.epochs[:3]) == 3
        assert built["records"] == 4

    def test_records_read_the_columns(self):
        result = run_scenario(get_scenario("noc-congestion-burst")).experiment
        columns = result.epochs
        topology = columns.topology
        for index, record in enumerate(columns):
            assert record.power_map == dict(
                zip(topology.coordinates(), columns.power[index].tolist())
            )
            assert record.thermal == ThermalMetrics.from_vector(
                topology, columns.celsius[index]
            )
            assert record.transform_applied == columns.transforms[index]
            assert record.migration_cycles == columns.cycles[index]
            assert record.migration_energy_j == columns.energy[index]
        assert columns.celsius.max(axis=1).tolist() == [
            record.thermal.peak_celsius for record in columns
        ]
