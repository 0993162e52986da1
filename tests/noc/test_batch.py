"""Tests for batched latency-curve evaluation on the vector engine."""

import numpy as np
import pytest

from repro.noc.analytic import analytic_model
from repro.noc.batch import default_rate_grid, latency_curve
from repro.noc.simulator import NocSimulator, run_schedules
from repro.noc.topology import MeshTopology
from repro.noc.traffic import make_traffic


class TestRunSchedules:
    def test_lanes_match_individual_runs_exactly(self):
        """Lane independence: a batched run equals one-run-per-schedule."""
        topology = MeshTopology(4, 4)
        schedules = [
            make_traffic("uniform", topology, rate, seed=20 + i).schedule(250)
            for i, rate in enumerate((0.05, 0.12, 0.2))
        ]
        batched = run_schedules(
            topology, schedules, cycles=200, warmup_cycles=50
        )
        for schedule, result in zip(schedules, batched):
            single = NocSimulator(topology).run_traffic(
                _Replay(schedule), cycles=200, warmup_cycles=50
            )
            assert result.cycles == single.cycles
            assert result.stats.latency == single.stats.latency
            assert result.stats.packets_ejected == single.stats.packets_ejected
            assert result.link_flits == single.link_flits
            assert result.router_activity == single.router_activity

    def test_no_drain_keeps_measurement_window(self):
        topology = MeshTopology(4, 4)
        schedules = [make_traffic("uniform", topology, 0.1, seed=1).schedule(150)]
        results = run_schedules(
            topology, schedules, cycles=100, warmup_cycles=50, drain=False
        )
        assert results[0].cycles == 100
        assert not results[0].drained


class _Replay:
    """Traffic source that hands a fixed schedule to ``run_traffic``."""

    def __init__(self, schedule):
        self._schedule = schedule

    def schedule(self, cycles):
        return self._schedule.limited_to(cycles)


class TestLatencyCurve:
    def test_curve_shape_and_monotonic_knee(self):
        topology = MeshTopology(4, 4)
        curve = latency_curve(
            topology, "uniform", cycles=300, warmup_cycles=50, seed=2
        )
        assert curve.num_points == curve.injection_rates.size
        assert curve.avg_latency.shape == curve.injection_rates.shape
        assert len(curve.results) == curve.num_points
        # Latency and delivered throughput grow toward saturation.
        assert curve.avg_latency[-1] > 1.5 * curve.avg_latency[0]
        assert np.all(curve.throughput_flits_per_cycle >= 0)
        assert (
            curve.throughput_flits_per_cycle[0]
            < curve.throughput_flits_per_cycle[-1]
        )

    def test_explicit_rates_and_pattern_kwargs(self):
        topology = MeshTopology(4, 4)
        rates = [0.02, 0.05]
        curve = latency_curve(
            topology,
            "hotspot",
            rates,
            cycles=200,
            warmup_cycles=20,
            seed=3,
            hotspots=[(1, 1)],
        )
        assert curve.num_points == 2
        assert np.array_equal(curve.injection_rates, np.asarray(rates))

    def test_saturation_estimate_tracks_analytic(self):
        topology = MeshTopology(4, 4)
        curve = latency_curve(
            topology, "uniform", cycles=500, warmup_cycles=100, seed=4
        )
        estimate = curve.saturation_estimate()
        sat = analytic_model(topology, "uniform").saturation_rate
        assert 0.5 * sat < estimate <= 1.3 * sat + 1e-9

    def test_default_grid_spans_to_capped_saturation(self):
        topology = MeshTopology(5, 5)
        grid = default_rate_grid(topology, num_points=16)
        sat = analytic_model(topology, "uniform").saturation_rate
        assert grid.size == 16
        assert grid[0] == pytest.approx(0.005)
        assert grid[-1] == pytest.approx(1.3 * sat)
