"""Experiment C1 — the campaign engine's cache, resume and shard economics.

A 100+-job campaign (2 cheap steady scenarios x all 5 chips x 5 schemes x
2 feedback strides) is run three ways:

* **cold** — empty cache, every job evaluated (``campaign.sweep.cold``);
* **warm** — same campaign re-run against the populated directory: the
  journal replays everything, **zero** scenario evaluations are performed
  (guarded by the run's own counter *and* the shared thermal solvers'
  solve counters, which must not move), and the acceptance floor asserts
  the warm run is at least 20x faster (``campaign.sweep.warm``);
* **sharded** — a fresh directory with its own cache, evaluated on 2
  worker processes: bit-identical results to the serial run
  (``campaign.sweep.sharded``).

Structural guards (zero evaluations, bit-identical payloads, resume
exactness) hold in ``--smoke`` mode too; only wall-clock floors are waived.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

import perf_utils
from conftest import print_rows

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import manifest
from repro.chips import all_configurations
from repro.scenarios import ScenarioSpec
from repro.scenarios.patterns import BurstPattern, ConstantPattern


def _cheap_scenario(name, load):
    return ScenarioSpec(
        name=name,
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=6,
        settle_epochs=3,
        load=load,
    )


def _fleet_spec():
    return CampaignSpec(
        name="fleet-sweep",
        scenarios=(
            _cheap_scenario("flat", ConstantPattern(1.0)),
            _cheap_scenario(
                "bursty", BurstPattern(base=1.0, peak=1.3, start_epoch=2, length=2)
            ),
        ),
        configurations=("A", "B", "C", "D", "E"),
        schemes=("xy-shift", "right-shift", "rotation", "x-mirror", "xy-mirror"),
        feedback_strides=(1, 2),
        description="the >= 100-job acceptance campaign",
    )


def _solve_counts():
    return {
        chip.name: chip.thermal_model.solver.steady_solve_count
        for chip in all_configurations()
    }


@pytest.fixture(scope="module")
def workdir():
    directory = Path(tempfile.mkdtemp(prefix="bench-campaign-"))
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def test_cold_warm_campaign(workdir):
    """Cold evaluates all 100 jobs; warm replays them with zero evaluations."""
    spec = _fleet_spec()
    assert len(spec.expand()) >= 100

    with perf_utils.timed() as cold_timer:
        cold = run_campaign(spec, workdir / "fleet", n_jobs=1)
    assert cold.evaluated == len(cold.jobs) >= 100
    assert cold.cache_hits == 0 and cold.resumed == 0

    counts_before = _solve_counts()
    with perf_utils.timed() as warm_timer:
        warm = run_campaign(spec, workdir / "fleet", n_jobs=1)

    # The acceptance guards: a warm re-run performs zero scenario
    # evaluations — by its own accounting and by the shared solvers'.
    assert warm.evaluated == 0
    assert warm.resumed == len(warm.jobs)
    assert _solve_counts() == counts_before
    assert [r.to_dict() for r in warm.results] == [r.to_dict() for r in cold.results]

    speedup = cold_timer.seconds / max(warm_timer.seconds, 1e-9)
    assert speedup >= perf_utils.speedup_floor(20.0), (
        f"warm campaign only {speedup:.1f}x faster than cold"
    )

    perf_utils.record_perf(
        "campaign.sweep.cold",
        cold_timer.seconds,
        throughput=len(cold.jobs) / cold_timer.seconds,
        throughput_unit="jobs/s",
        jobs=len(cold.jobs),
        evaluated=cold.evaluated,
    )
    perf_utils.record_perf(
        "campaign.sweep.warm",
        warm_timer.seconds,
        throughput=len(warm.jobs) / max(warm_timer.seconds, 1e-9),
        throughput_unit="jobs/s",
        baseline_wall_s=cold_timer.seconds,
        jobs=len(warm.jobs),
        evaluated=warm.evaluated,
        cache_hits=warm.cache_hits,
        resumed=warm.resumed,
    )
    print_rows(
        "campaign cold vs warm",
        [
            {
                "run": "cold",
                "jobs": len(cold.jobs),
                "evaluated": cold.evaluated,
                "wall_ms": round(cold_timer.seconds * 1e3, 1),
            },
            {
                "run": "warm",
                "jobs": len(warm.jobs),
                "evaluated": warm.evaluated,
                "wall_ms": round(warm_timer.seconds * 1e3, 1),
                "speedup": round(speedup, 1),
            },
        ],
    )


def test_sharded_campaign_bit_identical(workdir):
    """Two worker processes produce byte-for-byte the serial results."""
    spec = _fleet_spec()
    serial = run_campaign(spec, workdir / "fleet", n_jobs=1)  # cached by now

    with perf_utils.timed() as sharded_timer:
        sharded = run_campaign(spec, workdir / "fleet-sharded", n_jobs=2)
    assert sharded.workers == 2
    assert sharded.evaluated == len(sharded.jobs)
    assert [r.to_dict() for r in sharded.results] == [
        r.to_dict() for r in serial.results
    ]

    perf_utils.record_perf(
        "campaign.sweep.sharded",
        sharded_timer.seconds,
        throughput=len(sharded.jobs) / max(sharded_timer.seconds, 1e-9),
        throughput_unit="jobs/s",
        jobs=len(sharded.jobs),
        evaluated=sharded.evaluated,
        cache_hits=sharded.cache_hits,
        n_jobs=2,
        executor="process",
    )


def test_interrupted_campaign_resumes_exactly(workdir):
    """Dropping the journal tail re-runs only the lost jobs."""
    spec = _fleet_spec()
    complete = run_campaign(spec, workdir / "fleet", n_jobs=1)
    journal = manifest.journal_path(workdir / "fleet").read_text()
    lines = journal.splitlines(keepends=True)
    keep = len(lines) // 2

    interrupted = workdir / "fleet-killed"
    manifest.bind_directory(interrupted, spec)
    # Half the journal plus the torn line a kill leaves mid-write; the
    # killed run had no cache directory of its own.
    manifest.journal_path(interrupted).write_text(
        "".join(lines[:keep]) + lines[keep][:30]
    )
    resumed = run_campaign(spec, interrupted, n_jobs=1)
    assert resumed.resumed == keep
    assert resumed.evaluated == len(resumed.jobs) - keep
    assert [r.to_dict() for r in resumed.results] == [
        r.to_dict() for r in complete.results
    ]
