"""Tests for the serial experiment helpers, alone and on shared chips.

The helpers run in the calling thread, but a caller may run several of them
on threads of its own against one shared chip configuration; the parallel
cases check that such runs reproduce the serial results exactly.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.analysis.runner import run_experiment_grid, run_single_experiment
from repro.analysis.sweep import run_energy_ablation, run_period_sweep
from repro.chips import get_configuration
from repro.core.dtm import compare_with_migration


def _on_threads(task, count=2):
    """Run ``task`` on ``count`` threads released together; their results."""
    barrier = threading.Barrier(count)

    def run():
        barrier.wait()
        return task()

    with ThreadPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(run) for _ in range(count)]
        return [future.result() for future in futures]


class TestExperimentHelpers:
    @pytest.fixture(scope="class")
    def chip(self):
        return get_configuration("A")

    def test_single_experiment_matches_grid_entry(self, chip):
        single = run_single_experiment(chip, "xy-shift", 109.0, mode="steady", num_epochs=5)
        grid = run_experiment_grid(
            [chip], ["xy-shift"], [109.0], mode="steady", num_epochs=5
        )
        assert len(grid) == 1
        assert grid[0].settled_peak_celsius == single.settled_peak_celsius

    def test_grid_order_periods_fastest(self, chip):
        grid = run_experiment_grid(
            [chip], ["xy-shift", "rotation"], [109.0, 437.2], mode="steady", num_epochs=3
        )
        assert [(result.scheme_name, result.period_us) for result in grid] == [
            ("periodic-xy-shift", 109.0),
            ("periodic-xy-shift", 437.2),
            ("periodic-rotation", 109.0),
            ("periodic-rotation", 437.2),
        ]

    def test_parallel_sweep_matches_serial(self, chip):
        kwargs = {"periods_us": (109.0, 437.2), "mode": "steady", "num_epochs": 5}
        serial = run_period_sweep(chip, **kwargs)
        for parallel in _on_threads(partial(run_period_sweep, chip, **kwargs)):
            assert [point.period_us for point in parallel.points] == [
                point.period_us for point in serial.points
            ]
            for expected, actual in zip(serial.points, parallel.points):
                assert actual.throughput_penalty == expected.throughput_penalty
                assert actual.settled_peak_celsius == expected.settled_peak_celsius
                assert (
                    actual.peak_reduction_celsius == expected.peak_reduction_celsius
                )

    def test_parallel_ablation_matches_serial(self, chip):
        serial = run_energy_ablation(chip, num_epochs=5)
        for parallel in _on_threads(partial(run_energy_ablation, chip, num_epochs=5)):
            assert (
                parallel.mean_temperature_penalty_celsius
                == serial.mean_temperature_penalty_celsius
            )
            assert (
                parallel.peak_temperature_penalty_celsius
                == serial.peak_temperature_penalty_celsius
            )

    def test_parallel_dtm_matches_serial(self, chip):
        serial = compare_with_migration(chip, num_epochs=5)
        for parallel in _on_threads(partial(compare_with_migration, chip, num_epochs=5)):
            assert parallel.stop_go_penalty == serial.stop_go_penalty
            assert parallel.dvfs_penalty == serial.dvfs_penalty
            assert parallel.migration_penalty == serial.migration_penalty
