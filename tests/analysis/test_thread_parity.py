"""The paper helpers on threads sharing one chip configuration.

The helpers run in the calling thread, but a caller may run several of them
on threads of its own; every run resolves its chip by name to the same
cached configuration, and the parallel results must equal the serial ones.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.analysis.report import compare_with_migration
from repro.analysis.sweep import run_energy_ablation, run_period_sweep


def _on_threads(task, count=2):
    """Run ``task`` on ``count`` threads released together; their results."""
    barrier = threading.Barrier(count)

    def run():
        barrier.wait()
        return task()

    with ThreadPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(run) for _ in range(count)]
        return [future.result() for future in futures]


class TestThreadParity:
    def test_parallel_sweep_matches_serial(self):
        kwargs = {"periods_us": (109.0, 437.2), "mode": "steady", "num_epochs": 5}
        serial = run_period_sweep("A", **kwargs)
        for parallel in _on_threads(partial(run_period_sweep, "A", **kwargs)):
            assert [point.period_us for point in parallel.points] == [
                point.period_us for point in serial.points
            ]
            for expected, actual in zip(serial.points, parallel.points):
                assert actual.throughput_penalty == expected.throughput_penalty
                assert actual.settled_peak_celsius == expected.settled_peak_celsius
                assert (
                    actual.peak_reduction_celsius == expected.peak_reduction_celsius
                )

    def test_parallel_ablation_matches_serial(self):
        serial = run_energy_ablation("A", num_epochs=5)
        for parallel in _on_threads(partial(run_energy_ablation, "A", num_epochs=5)):
            assert (
                parallel.mean_temperature_penalty_celsius
                == serial.mean_temperature_penalty_celsius
            )
            assert (
                parallel.peak_temperature_penalty_celsius
                == serial.peak_temperature_penalty_celsius
            )

    def test_parallel_dtm_matches_serial(self):
        serial = compare_with_migration("A", num_epochs=5)
        for parallel in _on_threads(partial(compare_with_migration, "A", num_epochs=5)):
            assert parallel.stop_go_penalty == serial.stop_go_penalty
            assert parallel.dvfs_penalty == serial.dvfs_penalty
            assert parallel.migration_penalty == serial.migration_penalty
