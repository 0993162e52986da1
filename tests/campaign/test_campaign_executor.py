"""End-to-end campaign execution: cache, resume, sharding, dry runs."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import CampaignSpec, ResultCache, campaign_status, run_campaign
from repro.campaign import executor as executor_module
from repro.campaign import manifest
from repro.chips import get_configuration

from test_campaign_spec import cheap_scenario

#: The real job evaluation, captured before any test patches the module.
_EVALUATE = executor_module._evaluate_payload


def _fail_first_job(workdir, spec_payload, job_id, axes, index, **kwargs):
    """Campaign task that fails grid job 0 once two other jobs are journaled.

    Module level, so worker processes can unpickle it under both the fork
    and the spawn start method.  Every call first leaves a marker file
    named after its job in ``workdir``, which tells the test which jobs
    ever started; the campaign directory is ``workdir / "camp"``.
    """
    (workdir / "started" / str(index)).touch()
    if index != 0:
        time.sleep(0.1)
        return _EVALUATE(spec_payload, job_id, axes, index, **kwargs)
    journal = manifest.journal_path(workdir / "camp")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if journal.exists() and journal.read_text().count("\n") >= 2:
            break
        time.sleep(0.01)
    raise RuntimeError("injected worker failure")


def _square(value):
    return value * value


def _reject(value):
    raise ValueError(f"rejected {value}")


def grid_spec(name="grid", scenarios=None, **overrides):
    params = dict(
        name=name,
        scenarios=scenarios or (cheap_scenario("s1"), cheap_scenario("s2")),
        configurations=("A", "B"),
        schemes=("xy-shift", "rotation"),
    )
    params.update(overrides)
    return CampaignSpec(**params)


def result_payloads(run):
    return [result.to_dict() for result in run.results]


class TestColdRun:
    def test_evaluates_every_job_and_reports(self, tmp_path):
        spec = grid_spec()
        run = run_campaign(spec, tmp_path / "camp")
        assert run.evaluated == len(run.jobs) == 8
        assert run.cache_hits == 0 and run.resumed == 0
        assert all(result is not None for result in run.results)
        assert run.report is not None and run.report.jobs == 8
        assert manifest.load_report(tmp_path / "camp") == run.report.to_dict()
        assert len(manifest.load_journal(tmp_path / "camp")) == 8

    def test_duplicate_job_ids_refused_before_touching_disk(self, tmp_path):
        # Two scenarios named alike would share one journal line and one
        # result, even with different periods.
        spec = CampaignSpec(
            name="twins",
            scenarios=(cheap_scenario("twin"), cheap_scenario("twin", period_us=874.4)),
        )
        with pytest.raises(ValueError, match="twin@A/xy-shift/fs1/euler"):
            run_campaign(spec, tmp_path / "camp")
        assert not (tmp_path / "camp").exists()


class TestWarmRun:
    def test_zero_evaluations_and_bit_identical_results(self, tmp_path):
        spec = grid_spec()
        cold = run_campaign(spec, tmp_path / "camp")
        solver = get_configuration("A").thermal_model.solver
        solves_before = solver.steady_solve_count
        warm = run_campaign(spec, tmp_path / "camp")
        assert warm.evaluated == 0
        assert warm.resumed == len(warm.jobs)
        # The hard guarantee: a warm re-run performs no scenario
        # evaluations — the shared chip's solver counters do not move.
        assert solver.steady_solve_count == solves_before
        assert result_payloads(warm) == result_payloads(cold)

    def test_fresh_directory_shared_cache_hits_everything(self, tmp_path):
        spec = grid_spec()
        shared = tmp_path / "shared-cache"
        cold = run_campaign(spec, tmp_path / "one", cache_root=shared)
        warm = run_campaign(spec, tmp_path / "two", cache_root=shared)
        assert warm.evaluated == 0
        assert warm.cache_hits == len(warm.jobs)
        assert warm.resumed == 0
        assert result_payloads(warm) == result_payloads(cold)

    def test_overlapping_campaign_shares_cache_entries(self, tmp_path):
        shared = tmp_path / "shared-cache"
        run_campaign(grid_spec(), tmp_path / "one", cache_root=shared)
        # A differently shaped campaign whose grid overlaps on (s1, A/B x
        # xy-shift): those four cells must be cache hits.
        overlap = CampaignSpec(
            name="overlap",
            scenarios=(cheap_scenario("s1"),),
            configurations=("A", "B"),
            schemes=("xy-shift", "right-shift"),
        )
        run = run_campaign(overlap, tmp_path / "two", cache_root=shared)
        assert run.cache_hits == 2
        assert run.evaluated == 2


class TestAppends:
    def test_journal_and_pack_lines_share_each_result_text(self, tmp_path):
        run_campaign(grid_spec(), tmp_path / "camp")
        journal = manifest.journal_path(tmp_path / "camp").read_text().splitlines()
        pack = pack_path(tmp_path / "camp" / "cache").read_text().splitlines()
        assert len(journal) == len(pack) == 8
        for journal_line, pack_line in zip(journal, pack):
            result = json.dumps(json.loads(pack_line)["result"])
            assert pack_line.endswith(', "result": ' + result + "}")
            assert journal_line.endswith(', "result": ' + result + "}")

    def test_journal_opened_once_per_run_and_closed(self, tmp_path, monkeypatch):
        handles = []
        real_open = manifest.open_journal

        def recorded(directory):
            handles.append(real_open(directory))
            return handles[-1]

        monkeypatch.setattr(manifest, "open_journal", recorded)
        shared = tmp_path / "shared"
        run_campaign(grid_spec(), tmp_path / "one", cache_root=shared)
        warm = run_campaign(grid_spec(), tmp_path / "two", cache_root=shared)
        assert warm.cache_hits == len(warm.jobs)
        run_campaign(grid_spec(), tmp_path / "two", dry_run=True)
        assert len(handles) == 2
        assert all(handle.closed for handle in handles)

        def broken(*args, **kwargs):
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(executor_module, "_evaluate_payload", broken)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run_campaign(grid_spec(), tmp_path / "three")
        assert len(handles) == 3 and handles[-1].closed


    def test_journal_parsed_once_per_run(self, tmp_path, monkeypatch):
        from repro import storage

        parsed = []
        real = storage.read_journal

        def counted(path, **kwargs):
            if Path(path).name == manifest.JOURNAL_FILENAME:
                parsed.append(path)
            return real(path, **kwargs)

        monkeypatch.setattr(storage, "read_journal", counted)
        monkeypatch.setattr(manifest, "read_journal", counted)
        run_campaign(grid_spec(), tmp_path / "camp")
        rerun = run_campaign(grid_spec(), tmp_path / "camp")
        assert rerun.resumed == len(rerun.jobs)
        assert len(parsed) == 2


class TestInvalidation:
    def test_scenario_edit_invalidates_only_its_jobs(self, tmp_path):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "camp")
        edited = grid_spec(
            scenarios=(cheap_scenario("s1"), cheap_scenario("s2", num_epochs=7))
        )
        rerun = run_campaign(edited, tmp_path / "camp")
        # Only s2's 4 cells re-run; s1's replay from the journal.
        assert rerun.evaluated == 4
        assert rerun.resumed == 4
        assert all(job.axes["scenario"] == "s2"
                   for job, result in zip(rerun.jobs, rerun.results)
                   if job.job_id not in
                   {j.job_id for j in spec.expand()})

    def test_code_fingerprint_change_invalidates_everything(
        self, tmp_path, monkeypatch
    ):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "camp")
        monkeypatch.setattr(
            executor_module, "code_fingerprint", lambda root=None: "0" * 64
        )
        rerun = run_campaign(spec, tmp_path / "camp")
        assert rerun.evaluated == len(rerun.jobs)
        assert rerun.resumed == 0

    def test_different_campaign_name_refused(self, tmp_path):
        run_campaign(grid_spec(), tmp_path / "camp")
        with pytest.raises(ValueError, match="belongs to campaign"):
            run_campaign(grid_spec(name="imposter"), tmp_path / "camp")


def pack_path(cache_root):
    """The one pack a single run wrote under ``cache_root``."""
    (pack,) = ResultCache(cache_root).directory.glob("*.jsonl")
    return pack


class TestResume:
    def test_killed_campaign_resumes_exactly(self, tmp_path):
        spec = grid_spec()
        complete = run_campaign(spec, tmp_path / "full")
        # Replay the first 3 journal lines plus a torn 4th into a fresh
        # directory, and the first 3 pack lines plus the 4th without its
        # newline into its cache: each file cut as a kill cuts it.
        journal = manifest.journal_path(tmp_path / "full").read_text()
        lines = journal.splitlines(keepends=True)
        pack = pack_path(tmp_path / "full" / "cache").read_text()
        pack_lines = pack.splitlines(keepends=True)
        interrupted = tmp_path / "killed"
        manifest.bind_directory(interrupted, spec)
        manifest.journal_path(interrupted).write_text(
            "".join(lines[:3]) + lines[3][:20]
        )
        torn_pack = ResultCache(interrupted / "cache").directory / "pack-torn.jsonl"
        torn_pack.parent.mkdir(parents=True)
        torn_pack.write_text("".join(pack_lines[:3]) + pack_lines[3][:-1])
        resumed = run_campaign(spec, interrupted)
        assert resumed.resumed == 3
        assert resumed.cache_hits == 0
        assert resumed.evaluated == len(resumed.jobs) - 3
        assert result_payloads(resumed) == result_payloads(complete)
        status = campaign_status(interrupted)
        assert status["completed"] == len(resumed.jobs)
        assert status["pending"] == 0

    def test_unterminated_final_line_counts_as_pending_everywhere(self, tmp_path):
        # A kill that lands after an entry's JSON but before its newline:
        # status and a dry run must count that job as pending, because the
        # real run cuts the line off and evaluates the job again.
        spec = grid_spec(configurations=("A", "B"), schemes=("xy-shift",),
                         scenarios=(cheap_scenario("s1"),))
        directory = tmp_path / "camp"
        run_campaign(spec, directory)
        journal = manifest.journal_path(directory)
        journal.write_bytes(journal.read_bytes()[:-1])
        status = campaign_status(directory)
        forecast = run_campaign(
            spec, directory, cache_root=tmp_path / "c1", dry_run=True
        )
        real = run_campaign(spec, directory, cache_root=tmp_path / "c2")
        assert (real.evaluated, real.resumed) == (1, 1)
        assert forecast.forecast_evaluations == real.evaluated
        assert status["completed"] == real.resumed

    def test_status_of_partial_campaign(self, tmp_path):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "full")
        journal = manifest.journal_path(tmp_path / "full").read_text()
        partial = tmp_path / "partial"
        manifest.bind_directory(partial, spec)
        manifest.journal_path(partial).write_text(
            "".join(journal.splitlines(keepends=True)[:5])
        )
        status = campaign_status(partial)
        assert status["jobs"] == 8
        assert status["completed"] == 5
        assert status["pending"] == 3


def journal_results(directory):
    """The journal's result payloads as a multiset (canonical JSON, sorted)."""
    return sorted(
        json.dumps(entry["result"], sort_keys=True)
        for entry in manifest.load_journal(directory)
    )


class TestSharding:
    @pytest.fixture
    def tracer(self):
        obs.enable()
        obs.start_tracing(clear=True)
        yield obs.get_tracer()
        obs.disable()
        obs.stop_tracing()
        obs.get_registry().reset()
        obs.get_tracer().clear()

    def test_sharded_results_bit_identical_to_serial(self, tmp_path, tracer):
        spec = grid_spec()
        serial = run_campaign(spec, tmp_path / "serial", n_jobs=1)
        tracer.clear()
        sharded = run_campaign(spec, tmp_path / "sharded", n_jobs=2)
        assert sharded.workers == 2
        assert sharded.evaluated == len(sharded.jobs)
        assert result_payloads(sharded) == result_payloads(serial)
        # Completion order may differ between the two journals.
        assert journal_results(tmp_path / "sharded") == journal_results(
            tmp_path / "serial"
        )
        # Worker spans were merged onto the parent's timeline.
        job_spans = [e for e in tracer.events() if e.name == "campaign.job"]
        assert len(job_spans) == sharded.evaluated
        assert all(span.pid != os.getpid() for span in job_spans)
        entries = manifest.load_journal(tmp_path / "sharded")
        assert all("telemetry" in entry for entry in entries)

    def test_worker_failure_cancels_pending_jobs_and_keeps_the_journal(
        self, tmp_path, monkeypatch
    ):
        spec = grid_spec(feedback_strides=(1, 2))
        total = len(spec.expand())
        (tmp_path / "started").mkdir()
        monkeypatch.setattr(
            executor_module, "_evaluate_payload", partial(_fail_first_job, tmp_path)
        )
        with pytest.raises(RuntimeError, match="injected worker failure") as failure:
            run_campaign(spec, tmp_path / "camp", n_jobs=2)
        # The task's own exception, not a BrokenProcessPool (a RuntimeError
        # subclass).
        assert type(failure.value) is RuntimeError
        # Jobs still queued when the failure surfaced never started.
        assert len(list((tmp_path / "started").iterdir())) < total
        journaled = manifest.load_journal(tmp_path / "camp")
        assert len(journaled) >= 2

        monkeypatch.undo()
        rerun = run_campaign(spec, tmp_path / "camp")
        assert rerun.resumed == len(journaled)
        assert rerun.evaluated == total - len(journaled)
        serial = run_campaign(spec, tmp_path / "serial")
        assert result_payloads(rerun) == result_payloads(serial)

    @pytest.mark.parametrize("n_jobs", [0, -2, "auto", None, 2.0, True, "2"])
    def test_invalid_n_jobs_rejected_before_touching_disk(self, tmp_path, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_campaign(grid_spec(), tmp_path / "camp", n_jobs=n_jobs)
        assert not (tmp_path / "camp").exists()

    def test_all_cpus_request_takes_one_worker_per_cpu(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=-1)
        assert run.workers == 2
        assert run.evaluated == len(run.jobs)

    def test_workers_capped_by_pending_evaluations(self, tmp_path):
        spec = grid_spec(configurations=("A",), schemes=("xy-shift",))
        run = run_campaign(spec, tmp_path / "camp", n_jobs=8)
        assert run.evaluated == len(run.jobs) == 2
        assert run.workers == 2

    def test_single_pending_job_runs_inline(self, tmp_path, tracer):
        spec = grid_spec(
            scenarios=(cheap_scenario("s1"),),
            configurations=("A",),
            schemes=("xy-shift",),
        )
        run = run_campaign(spec, tmp_path / "camp", n_jobs=4)
        assert run.workers == 1
        job_spans = [e for e in tracer.events() if e.name == "campaign.job"]
        assert [span.pid for span in job_spans] == [os.getpid()]

    def test_warm_rerun_starts_no_workers(self, tmp_path):
        spec = grid_spec()
        cold = run_campaign(spec, tmp_path / "camp")
        warm = run_campaign(spec, tmp_path / "camp", n_jobs=2)
        assert warm.evaluated == 0
        assert warm.resumed == len(warm.jobs)
        assert warm.workers == 1
        assert result_payloads(warm) == result_payloads(cold)

    def test_sharded_run_resumes_a_killed_campaign(self, tmp_path):
        spec = grid_spec()
        complete = run_campaign(spec, tmp_path / "full")
        lines = manifest.journal_path(tmp_path / "full").read_text().splitlines(
            keepends=True
        )
        interrupted = tmp_path / "killed"
        manifest.bind_directory(interrupted, spec)
        manifest.journal_path(interrupted).write_text("".join(lines[:3]))
        resumed = run_campaign(spec, interrupted, n_jobs=2)
        assert resumed.resumed == 3
        assert resumed.evaluated == len(resumed.jobs) - 3
        assert resumed.workers == 2
        assert result_payloads(resumed) == result_payloads(complete)
        assert journal_results(interrupted) == journal_results(tmp_path / "full")

    def test_sharded_run_without_telemetry_journals_none(self, tmp_path):
        obs.disable()
        run = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=2)
        assert run.workers == 2
        assert run.telemetry is None
        entries = manifest.load_journal(tmp_path / "camp")
        assert len(entries) == len(run.jobs)
        assert not any("telemetry" in entry for entry in entries)


class TestCompleted:
    """The fan-out under ``run_campaign``: inline in order, or a process pool."""

    def test_inline_yields_in_task_order(self):
        tasks = [partial(_square, value) for value in range(5)]
        assert list(executor_module._completed(tasks, 1)) == [
            (index, index * index) for index in range(5)
        ]

    def test_inline_failure_runs_nothing_after_it(self):
        ran = []

        def record(value):
            ran.append(value)
            return value

        tasks = [partial(record, 0), partial(_reject, 1), partial(record, 2)]
        with pytest.raises(ValueError, match="rejected 1"):
            list(executor_module._completed(tasks, 1))
        assert ran == [0]

    def test_pool_yields_every_index_once(self):
        tasks = [partial(_square, value) for value in range(6)]
        pairs = list(executor_module._completed(tasks, 2))
        assert sorted(pairs) == [(index, index * index) for index in range(6)]
        assert multiprocessing.active_children() == []

    def test_pool_reraises_the_task_exception_and_reaps_workers(self):
        tasks = [partial(_square, 0), partial(_reject, 1), partial(_square, 2)]
        with pytest.raises(ValueError, match="rejected 1") as failure:
            list(executor_module._completed(tasks, 2))
        assert type(failure.value) is ValueError
        assert multiprocessing.active_children() == []

    def test_closed_iterator_shuts_the_pool_down(self):
        tasks = [partial(_square, value) for value in range(8)]
        iterator = executor_module._completed(tasks, 2)
        next(iterator)
        iterator.close()
        assert multiprocessing.active_children() == []


class TestImports:
    def test_inline_campaign_never_loads_multiprocessing(self, tmp_path):
        """Only a sharded run pays for importing the process pool."""
        script = (
            "import sys\n"
            "from repro.campaign import CampaignSpec, run_campaign\n"
            "from repro.scenarios import ScenarioSpec\n"
            "scenario = ScenarioSpec(name='s', configuration='A', "
            "scheme='xy-shift', mode='steady', num_epochs=4, settle_epochs=2)\n"
            "run = run_campaign(CampaignSpec(name='c', scenarios=(scenario,)), "
            "sys.argv[1])\n"
            "assert run.evaluated == 1\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "camp")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestDryRun:
    def test_dry_run_touches_nothing(self, tmp_path):
        spec = grid_spec()
        directory = tmp_path / "camp"
        forecast = run_campaign(spec, directory, dry_run=True)
        assert forecast.forecast_evaluations == len(forecast.jobs)
        assert forecast.evaluated == 0
        assert not directory.exists()

    def test_dry_run_starts_no_workers(self, tmp_path):
        forecast = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=2, dry_run=True)
        assert forecast.workers == 1
        assert forecast.forecast_evaluations == len(forecast.jobs)
        assert not (tmp_path / "camp").exists()

    def test_dry_run_forecasts_cache_hits(self, tmp_path):
        spec = grid_spec()
        directory = tmp_path / "camp"
        run_campaign(spec, directory)
        edited = grid_spec(
            scenarios=(cheap_scenario("s1"), cheap_scenario("s2", num_epochs=9))
        )
        journal_before = manifest.journal_path(directory).read_text()
        tree_before = sorted(directory.rglob("*"))
        forecast = run_campaign(edited, directory, dry_run=True)
        assert forecast.resumed == 4
        assert forecast.forecast_evaluations == 4
        # Read-only: journal and spec file untouched, no pack created.
        assert manifest.journal_path(directory).read_text() == journal_before
        assert manifest.load_spec(directory) == spec
        assert sorted(directory.rglob("*")) == tree_before
