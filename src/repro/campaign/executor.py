"""Sharded, resumable, cache-aware campaign execution.

:func:`run_campaign` drives one campaign directory end to end:

1. **Expand** the spec into its deterministic job grid and compute every
   job's content-addressed key (spec canonical JSON x code fingerprint).
2. **Replay** the directory's journal: entries whose recorded key still
   matches replay for free — an interrupted campaign resumes exactly where
   it was killed, and a spec or code edit silently invalidates only the
   affected lines.
3. **Probe the cache** for the remainder: warm re-runs of unchanged
   campaigns are pure cache lookups, performing *zero* scenario
   evaluations.
4. **Evaluate** the misses, inline or sharded over worker processes.  Each
   result is serialized once and that text appended, the moment the job
   completes, to the run's cache pack and to the journal (held open for the
   run), each line flushed as it lands, so a kill at any point loses at
   most the in-flight jobs.  Job ids are unique (:meth:`CampaignSpec.expand`
   rejects duplicates), so every miss has its own key.
5. **Report**: per-axis marginals, written to ``report.json``.

``n_jobs`` is 1 (the default: jobs run inline, in grid order), a worker
count N, or -1 for every CPU.  Sharded jobs run in a one-shot process pool
and come back as JSON payloads, so their results are bit-identical to the
inline run's.  This is the package's only fan-out: a campaign grid is the
one workload whose independent jobs have been measured to gain from it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import counter as _obs_counter
from ..obs import enable as _obs_enable
from ..obs import enabled as _obs_enabled
from ..obs import get_logger
from ..obs import get_registry as _obs_registry
from ..obs import get_tracer as _obs_tracer
from ..obs import span as _obs_span
from ..obs import start_tracing as _obs_start_tracing
from ..obs import timer as _obs_timer
from ..storage import code_fingerprint
from . import manifest
from .cache import ResultCache, job_cache_key
from .report import CampaignReport, build_report
from .spec import CampaignJob, CampaignSpec, JobResult, evaluate_job

_LOG = get_logger("campaign")

# Campaign telemetry: how each job was satisfied (journal replay, cache hit,
# fresh evaluation) plus the per-evaluation wall time.
_OBS_REPLAYS = _obs_counter("campaign.journal_replays")
_OBS_CACHE_HITS = _obs_counter("campaign.cache_hits")
_OBS_EVALUATIONS = _obs_counter("campaign.evaluations")
_OBS_JOB_TIME = _obs_timer("campaign.job")


@dataclass
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    directory: Path
    jobs: List[CampaignJob]
    #: Results in job (grid) order; ``None`` only for dry-run misses.
    results: List[Optional[JobResult]]
    #: Scenario evaluations actually performed (0 on a warm re-run).
    evaluated: int
    #: Jobs satisfied from the content-addressed cache this invocation.
    cache_hits: int
    #: Jobs replayed from the directory's journal (a resumed campaign).
    resumed: int
    #: Pending evaluations a ``--dry-run`` would have executed.
    forecast_evaluations: int
    dry_run: bool
    wall_s: float
    report: Optional[CampaignReport] = None
    #: Worker processes the evaluations ran on (1: inline).
    workers: int = 1
    #: Registry snapshot (``TelemetrySummary.to_dict()``) taken at the end of
    #: the run; None while telemetry is disabled.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result is not None)


def _evaluate_payload(
    spec_payload: Dict[str, object],
    job_id: str,
    axes: Dict[str, object],
    index: int,
    collect_telemetry: bool = False,
    parent_pid: Optional[int] = None,
    stream_window: Optional[int] = None,
) -> Tuple[Dict[str, object], float, Optional[Dict[str, object]]]:
    """Worker: rebuild the job from plain JSON data, run it, time it.

    Takes only JSON-serialisable arguments so the same callable crosses
    process boundaries (sharded execution) and runs inline identically —
    which is what makes sharded output bit-identical to serial: both paths
    produce the result *as its JSON payload*.

    With ``collect_telemetry`` the worker also returns a meta dict: its pid,
    the job's counter/timer deltas (a scope over this job alone), and — only
    when running in a *different* process than ``parent_pid``, whose
    registry/tracer state the fork or spawn did not share — the span events
    recorded during the job, serialised so the parent can merge them onto
    the shared timeline.  Inline jobs skip the event capture: their spans
    already land in the parent's tracer.
    """
    from ..scenarios.spec import ScenarioSpec

    fresh_process = parent_pid is not None and os.getpid() != parent_pid
    if collect_telemetry and fresh_process and not _obs_enabled():
        _obs_enable()
        _obs_start_tracing()
    started = time.perf_counter()
    job = CampaignJob(
        index=index,
        job_id=job_id,
        spec=ScenarioSpec.from_dict(spec_payload),
        axes=dict(axes),
        stream_window=stream_window,
    )
    meta: Optional[Dict[str, object]] = None
    if collect_telemetry:
        tracer = _obs_tracer()
        mark = tracer.mark()
        with _obs_registry().scoped() as scope:
            with _obs_span("campaign.job", job_id=job_id):
                result = evaluate_job(job)
        meta = {"pid": os.getpid(), "telemetry": scope.to_dict(), "events": []}
        if fresh_process:
            meta["events"] = [
                event.to_dict() for event in tracer.events_since(mark)
            ]
            # Workers run many jobs and never export; drop the captured
            # events so the worker-side buffer stays bounded.
            tracer.clear()
    else:
        result = evaluate_job(job)
    return result.to_dict(), time.perf_counter() - started, meta


def _retarget(payload: Dict[str, object], job: CampaignJob) -> Dict[str, object]:
    """A cached payload re-labelled for ``job``.

    Another campaign may have published the same key under another id (e.g.
    one that swept the migration style this campaign leaves unswept).
    """
    if payload.get("job_id") == job.job_id and payload.get("axes") == job.axes:
        return payload
    relabelled = dict(payload)
    relabelled["job_id"] = job.job_id
    relabelled["axes"] = dict(job.axes)
    return relabelled


def compute_job_keys(jobs: List[CampaignJob]) -> Dict[str, str]:
    """``job_id -> content-addressed cache key`` for an expanded grid."""
    fingerprint = code_fingerprint()
    return {
        job.job_id: job_cache_key(
            job.spec,
            fingerprint,
            variant=(
                f"stream:w{job.stream_window}"
                if job.stream_window is not None
                else None
            ),
        )
        for job in jobs
    }


def _worker_count(n_jobs: int) -> int:
    """Worker processes for an ``n_jobs`` request: N >= 1, or -1 for all CPUs."""
    valid = isinstance(n_jobs, int) and not isinstance(n_jobs, bool)
    if not valid or (n_jobs < 1 and n_jobs != -1):
        raise ValueError(
            f"n_jobs must be a positive worker count or -1 (all CPUs), not {n_jobs!r}"
        )
    return (os.cpu_count() or 1) if n_jobs == -1 else n_jobs


def _completed(
    tasks: Sequence[Callable[[], Any]], workers: int
) -> Iterator[Tuple[int, Any]]:
    """Run ``tasks``, yielding ``(index, result)`` as each one completes.

    One worker runs them inline, in order.  More share a one-shot process
    pool.  When a task raises, every task that has not started is cancelled,
    the running ones finish, and the task's own exception reaches the caller.
    """
    if workers == 1:
        for index, task in enumerate(tasks):
            yield index, task()
        return
    # Imported here so the inline path never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # The platform's default start method: on Linux, forked workers inherit
    # the imported package and built chip configurations, while spawned
    # ones re-import both and made a 100-job campaign twice as slow as
    # inline (docs/performance.md).  The package runs no work on threads of
    # its own; a threaded caller can pick "spawn" with
    # multiprocessing.set_start_method.
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(task): index for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            yield futures[future], future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_campaign(
    spec: CampaignSpec,
    directory: Union[str, Path],
    n_jobs: int = 1,
    cache_root: Optional[Union[str, Path]] = None,
    dry_run: bool = False,
) -> CampaignRun:
    """Execute (or forecast, with ``dry_run``) a campaign in a directory.

    ``n_jobs`` is 1 to evaluate inline, N to shard the evaluations over N
    worker processes, or -1 for one worker per CPU; anything else raises
    :class:`ValueError` before the directory is touched.

    ``cache_root`` defaults to ``<directory>/cache``; pointing several
    campaign directories at one shared cache root lets overlapping grids
    reuse each other's results.  A dry run touches nothing on disk — it
    expands the grid, replays the journal read-only and probes the cache,
    returning the exact evaluation forecast a real run would execute.
    """
    workers = _worker_count(n_jobs)
    with _obs_span("campaign.run", campaign=spec.name, dry_run=dry_run):
        return _run_campaign(spec, directory, workers, cache_root, dry_run)


def _run_campaign(
    spec: CampaignSpec,
    directory: Union[str, Path],
    workers: int,
    cache_root: Optional[Union[str, Path]],
    dry_run: bool,
) -> CampaignRun:
    started = time.perf_counter()
    directory = Path(directory)
    jobs = spec.expand()
    keys = compute_job_keys(jobs)

    if dry_run:
        entries = manifest.load_journal(directory)
    else:
        manifest.bind_directory(directory, spec)
        entries = manifest.repair_journal(directory)
    replayed = manifest.replay_journal(entries, keys)

    results: Dict[str, JobResult] = {}
    resumed = 0
    for job_id, entry in replayed.items():
        payload = entry.get("result")
        if isinstance(payload, dict):
            results[job_id] = JobResult.from_dict(payload)
            resumed += 1
    if resumed:
        _OBS_REPLAYS.add(resumed)
        _LOG.info("campaign %s: replayed %d job(s) from journal", spec.name, resumed)

    cache = ResultCache(Path(cache_root) if cache_root is not None else directory / "cache")
    journal = None if dry_run else manifest.open_journal(directory)
    cache_hits = 0
    evaluated = 0
    pending: List[CampaignJob] = []
    try:
        for job in jobs:
            if job.job_id in results:
                continue
            payload = cache.get(keys[job.job_id])
            if payload is None:
                pending.append(job)
                continue
            payload = _retarget(payload, job)
            results[job.job_id] = JobResult.from_dict(payload)
            cache_hits += 1
            _OBS_CACHE_HITS.add()
            if journal is not None:
                manifest.append_journal_entry(
                    journal,
                    {
                        "job_id": job.job_id,
                        "key": keys[job.job_id],
                        "from_cache": True,
                        "wall_s": 0.0,
                    },
                    json.dumps(payload, allow_nan=False),
                )

        if dry_run or not pending:
            workers = 1
        else:
            workers = min(workers, len(pending))
            collect = _obs_enabled()
            _LOG.info(
                "campaign %s: evaluating %d job(s) on %d worker(s)",
                spec.name,
                len(pending),
                workers,
            )
            tasks = [
                partial(
                    _evaluate_payload,
                    job.spec.to_dict(),
                    job.job_id,
                    job.axes,
                    job.index,
                    collect_telemetry=collect,
                    parent_pid=os.getpid(),
                    stream_window=job.stream_window,
                )
                for job in pending
            ]
            for index, (payload, wall_s, meta) in _completed(tasks, workers):
                evaluated += 1
                _OBS_EVALUATIONS.add()
                _OBS_JOB_TIME.record(wall_s)
                job_telemetry: Optional[Dict[str, object]] = None
                if meta is not None:
                    job_telemetry = meta.get("telemetry")  # type: ignore[assignment]
                    events = meta.get("events")
                    if events and meta.get("pid") != os.getpid():
                        _obs_tracer().add_serialized(events)  # type: ignore[arg-type]
                job = pending[index]
                key = keys[job.job_id]
                text = cache.put(key, payload)
                results[job.job_id] = JobResult.from_dict(payload)
                entry = {
                    "job_id": job.job_id,
                    "key": key,
                    "from_cache": False,
                    "wall_s": wall_s,
                }
                if job_telemetry:
                    entry["telemetry"] = job_telemetry
                manifest.append_journal_entry(journal, entry, text)
    finally:
        cache.close()
        if journal is not None:
            journal.close()

    ordered: List[Optional[JobResult]] = [results.get(job.job_id) for job in jobs]
    telemetry: Optional[Dict[str, object]] = None
    if _obs_enabled():
        snapshot = _obs_registry().snapshot()
        if not snapshot.empty:
            telemetry = snapshot.to_dict()
    report: Optional[CampaignReport] = None
    if not dry_run:
        complete = [result for result in ordered if result is not None]
        report = build_report(spec.name, complete)
        report_payload = report.to_dict()
        if telemetry is not None:
            report_payload["telemetry"] = telemetry
        manifest.write_report(directory, report_payload)

    return CampaignRun(
        spec=spec,
        directory=directory,
        jobs=jobs,
        results=ordered,
        evaluated=evaluated,
        cache_hits=cache_hits,
        resumed=resumed,
        forecast_evaluations=len(pending),
        dry_run=dry_run,
        wall_s=time.perf_counter() - started,
        report=report,
        workers=workers,
        telemetry=telemetry,
    )


def campaign_status(directory: Union[str, Path]) -> Dict[str, object]:
    """Resumable-state summary of an existing campaign directory."""
    directory = Path(directory)
    spec = manifest.load_spec(directory)
    jobs = spec.expand()
    keys = compute_job_keys(jobs)
    journal_entries = manifest.load_journal(directory)
    replayed = manifest.replay_journal(journal_entries, keys)
    done = sum(1 for job in jobs if job.job_id in replayed)
    return {
        "campaign": spec.name,
        "directory": str(directory),
        "jobs": len(jobs),
        "completed": done,
        "pending": len(jobs) - done,
        "journal_entries": len(journal_entries),
        "stale_entries": len(journal_entries) - len(replayed)
        if len(journal_entries) >= len(replayed)
        else 0,
        "has_report": manifest.report_path(directory).exists(),
    }
