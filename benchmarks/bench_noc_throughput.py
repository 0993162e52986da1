"""Experiment E6 — NoC substrate characterisation.

The paper's platform is "a modified cycle-accurate NoC simulator".  This
benchmark characterises ours: the full latency/throughput curve of the 4x4
and 5x5 meshes under uniform traffic, plus hotspot and routing-algorithm
comparisons.

The curve is produced by the batched vector engine — every injection rate is
a lane of one :class:`repro.noc.vector.VectorNetwork` run — and timed against
the seed object engine (the test oracle ``tests/noc/object_engine.py``)
replaying *identical* schedules, with an in-bench exact-parity check so the
speedup is never bought with accuracy.  A second
guard compares the measured curve against the closed-form analytic model
below saturation.
"""

import numpy as np
import pytest

import object_engine
import perf_utils
from conftest import print_rows

from repro.noc import (
    MeshTopology,
    NocSimulator,
    analytic_curve,
    default_rate_grid,
    make_traffic,
    run_schedules,
    saturation_rate,
)

MEASURE_CYCLES = 600
WARMUP_CYCLES = 100


def _uniform_schedules(topology, rates, horizon):
    return [
        make_traffic(
            "uniform", topology, injection_rate=float(rate), seed=11 + index
        ).schedule(horizon)
        for index, rate in enumerate(rates)
    ]


@pytest.mark.parametrize("size", [4, 5])
def test_uniform_traffic_latency_curve(benchmark, size):
    topology = MeshTopology(size, size)
    num_points = 8 if perf_utils.SMOKE else 32
    rates = default_rate_grid(topology, num_points=num_points)
    schedules = _uniform_schedules(topology, rates, MEASURE_CYCLES + WARMUP_CYCLES)

    def run_curve():
        return run_schedules(
            topology, schedules, cycles=MEASURE_CYCLES, warmup_cycles=WARMUP_CYCLES
        )

    with perf_utils.timed() as timer:
        results = benchmark.pedantic(run_curve, rounds=1, iterations=1)

    # Baseline: the seed object engine replaying the IDENTICAL schedules.
    with perf_utils.timed() as baseline_timer:
        baseline = [
            object_engine.run_traffic(
                topology,
                schedule,
                cycles=MEASURE_CYCLES,
                warmup_cycles=WARMUP_CYCLES,
                buffer_depth=4,
            )
            for schedule in schedules
        ]

    # Exact parity on identical traffic: same latency stats, same counters.
    for vec, obj in zip(results, baseline):
        assert vec.stats.latency == obj.stats.latency
        assert vec.stats.packets_ejected == obj.stats.packets_ejected
        assert vec.stats.stalled_injections == obj.stats.stalled_injections
        assert vec.link_flits == obj.link_flits

    perf_utils.record_perf(
        f"noc.latency_curve.{size}x{size}",
        timer.seconds,
        throughput=num_points / timer.seconds,
        throughput_unit="operating points/s",
        baseline_wall_s=baseline_timer.seconds,
        baseline="object engine, identical schedules",
        points=num_points,
        engine="vector",
    )

    rows = [
        {
            "mesh": f"{size}x{size}",
            "injection_rate": round(float(rate), 4),
            "avg_latency_cycles": round(result.average_latency, 2),
            "throughput_flits_per_cycle": round(result.throughput_flits_per_cycle, 3),
            "packets_delivered": result.stats.packets_ejected,
        }
        for rate, result in list(zip(rates, results))[:: max(1, num_points // 8)]
    ]
    print_rows(f"Uniform traffic characterisation, {size}x{size} mesh", rows)

    latencies = [result.average_latency for result in results]
    throughputs = [result.throughput_flits_per_cycle for result in results]
    assert latencies[0] <= latencies[-1] + 1.0
    assert throughputs[0] < throughputs[-1]
    # The batched engine must beat the object engine on identical work.
    assert (
        baseline_timer.seconds / timer.seconds
        >= perf_utils.speedup_floor(5.0)
    )


@pytest.mark.parametrize("size", [4, 5])
def test_vector_vs_analytic_agreement(benchmark, size):
    """The closed-form model tracks the event engine below saturation."""
    topology = MeshTopology(size, size)
    sat = saturation_rate(topology, "uniform")
    rates = np.linspace(0.15, 0.8, 4) * sat

    def measure():
        schedules = _uniform_schedules(topology, rates, 1800 + 200)
        return run_schedules(topology, schedules, cycles=1800, warmup_cycles=200)

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    measured = np.array([result.average_latency for result in results])
    analytic = np.array(
        [point.avg_latency for point in analytic_curve(topology, "uniform", rates)]
    )
    errors = np.abs(analytic - measured) / measured
    rows = [
        {
            "injection_rate": round(float(rate), 4),
            "measured_latency": round(float(m), 2),
            "analytic_latency": round(float(a), 2),
            "error_pct": round(float(e) * 100, 1),
        }
        for rate, m, a, e in zip(rates, measured, analytic, errors)
    ]
    print_rows(f"Vector vs analytic latency, {size}x{size} uniform", rows)
    assert errors.max() < 0.12, f"analytic model drifted: {errors.max():.1%}"


def test_hotspot_traffic_congests_more_than_uniform(benchmark):
    """Hotspot traffic at the same injection rate has higher latency, which is
    exactly why a thermal hotspot forms around the hot node's router."""
    topology = MeshTopology(4, 4)

    def run_pair():
        uniform_sim = NocSimulator(topology, buffer_depth=4)
        uniform = uniform_sim.run_traffic(
            make_traffic("uniform", topology, injection_rate=0.12, seed=3),
            cycles=600,
            warmup_cycles=100,
        )
        hotspot_sim = NocSimulator(topology, buffer_depth=4)
        hotspot = hotspot_sim.run_traffic(
            make_traffic(
                "hotspot",
                topology,
                injection_rate=0.12,
                seed=3,
                hotspots=[(2, 2)],
                hotspot_fraction=0.6,
            ),
            cycles=600,
            warmup_cycles=100,
        )
        return uniform, hotspot

    uniform, hotspot = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = [
        {
            "pattern": "uniform",
            "avg_latency_cycles": round(uniform.average_latency, 2),
            "max_router_flits": max(uniform.activity_per_node().values()),
        },
        {
            "pattern": "hotspot (node (2,2))",
            "avg_latency_cycles": round(hotspot.average_latency, 2),
            "max_router_flits": max(hotspot.activity_per_node().values()),
        },
    ]
    print_rows("Uniform vs hotspot traffic (4x4, rate 0.12)", rows)
    assert hotspot.average_latency >= uniform.average_latency
    # The hotspot router sees disproportionately more switching activity.
    assert max(hotspot.activity_per_node().values()) > max(uniform.activity_per_node().values())


def test_routing_algorithm_comparison(benchmark):
    """Deterministic XY against the partially adaptive algorithms."""
    topology = MeshTopology(5, 5)

    def run_algorithms():
        results = {}
        for name in ("xy", "yx", "west-first", "odd-even"):
            simulator = NocSimulator(topology, routing=name, buffer_depth=4)
            traffic = make_traffic("transpose", topology, injection_rate=0.1, seed=5)
            results[name] = simulator.run_traffic(traffic, cycles=500, warmup_cycles=100)
        return results

    results = benchmark.pedantic(run_algorithms, rounds=1, iterations=1)
    rows = [
        {
            "routing": name,
            "avg_latency_cycles": round(result.average_latency, 2),
            "packets_delivered": result.stats.packets_ejected,
        }
        for name, result in results.items()
    ]
    print_rows("Routing algorithm comparison (5x5, transpose traffic)", rows)
    assert all(result.stats.packets_ejected > 0 for result in results.values())
