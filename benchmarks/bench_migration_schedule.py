"""Experiment E8 — congestion-free phased migration.

Section 2.2: transforming groups of PEs in phases keeps the migration traffic
congestion-free and makes the migration time deterministic.  This benchmark
compares the phased schedule against (a) full serialisation and (b) replaying
the migration packets through the cycle-accurate network, and reports the
resulting downtime as a fraction of the 109 us period.
"""

import pytest

import object_engine
import perf_utils
from conftest import print_rows

from repro.migration.scheduler import MigrationScheduler
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform
from repro.migration.unit import MigrationUnit
from repro.noc import NocSimulator


def test_phased_vs_naive_schedule(benchmark, chip_e):
    """Deterministic migration time: phased versus fully serialised."""
    scheduler = MigrationScheduler(chip_e.topology)
    nodes = chip_e.tanner_nodes_per_pe()

    def build_schedules():
        out = {}
        for scheme in FIGURE1_SCHEMES:
            transform = make_transform(scheme, chip_e.topology)
            moves = scheduler.moves_for_transform(transform, nodes)
            out[scheme] = (scheduler.schedule(moves), scheduler.naive_cycles(moves))
        return out

    schedules = benchmark(build_schedules)
    period_cycles = chip_e.block_period_cycles(109.0)
    rows = [
        {
            "scheme": scheme,
            "phases": schedule.num_phases,
            "phased_cycles": schedule.total_cycles,
            "serialised_cycles": naive_cycles,
            "speedup": round(naive_cycles / max(schedule.total_cycles, 1), 2),
            "downtime_pct_of_109us": round(100 * schedule.total_cycles / period_cycles, 2),
        }
        for scheme, (schedule, naive_cycles) in schedules.items()
    ]
    print_rows("Phased (congestion-free) vs serialised migration", rows)

    for scheme, (schedule, naive_cycles) in schedules.items():
        assert schedule.total_cycles <= naive_cycles
        # Downtime stays a small fraction of the shortest period.
        assert schedule.total_cycles < 0.2 * period_cycles


def test_schedule_bound_vs_cycle_accurate_replay(benchmark, chip_e):
    """Replaying the CONFIG packets on the real network confirms the analytic
    schedule is the right order of magnitude (and that nothing deadlocks)."""
    unit = MigrationUnit(chip_e.topology, library=chip_e.library)
    nodes = chip_e.tanner_nodes_per_pe()
    transform = make_transform("xy-shift", chip_e.topology)

    def replay():
        cost = unit.migration_cost(transform, nodes)
        packets = unit.migration_packets(transform, nodes)
        simulator = NocSimulator(chip_e.topology, buffer_depth=8)
        result = simulator.run_packets(packets, drain_limit=1_000_000)
        return cost, result

    with perf_utils.timed() as timer:
        cost, result = benchmark.pedantic(replay, rounds=1, iterations=1)

    # Baseline: the seed object engine draining the same packet batch.
    with perf_utils.timed() as baseline_timer:
        object_result = object_engine.run_packets(
            chip_e.topology,
            unit.migration_packets(transform, nodes),
            buffer_depth=8,
            drain_limit=1_000_000,
        )
    assert result.cycles == object_result.cycles
    assert result.stats.latency == object_result.stats.latency

    perf_utils.record_perf(
        "migration.schedule_replay.xy_shift_E",
        timer.seconds,
        throughput=result.stats.packets_ejected / timer.seconds,
        throughput_unit="packets/s",
        baseline_wall_s=baseline_timer.seconds,
        baseline="object engine, same packet batch",
        engine="vector",
    )
    rows = [
        {"quantity": "analytic phased schedule (cycles)", "value": cost.cycles},
        {"quantity": "cycle-accurate replay (cycles)", "value": result.cycles},
        {"quantity": "packets delivered", "value": result.stats.packets_ejected},
    ]
    print_rows("Analytic schedule vs cycle-accurate replay (X-Y shift on E)", rows)
    assert result.stats.packets_ejected == chip_e.num_units  # xy-shift moves every PE
    assert result.cycles < 4 * max(cost.cycles, 1)


def test_migration_determinism(chip_e):
    """The same transform always produces the identical schedule — the
    property that makes the technique usable in real-time systems."""
    scheduler = MigrationScheduler(chip_e.topology)
    nodes = chip_e.tanner_nodes_per_pe()
    transform = make_transform("rotation", chip_e.topology)
    first = scheduler.schedule_for_transform(transform, nodes)
    second = scheduler.schedule_for_transform(transform, nodes)
    rows = [
        {
            "run": index,
            "phases": schedule.num_phases,
            "total_cycles": schedule.total_cycles,
        }
        for index, schedule in enumerate((first, second), start=1)
    ]
    print_rows("Migration schedule determinism (rotation on E)", rows)
    assert first.total_cycles == second.total_cycles
    assert first.num_phases == second.num_phases
