"""The benchmark's workloads: seeded inputs, closed-loop rounds, output checks.

Every workload is one client in a closed loop: the next unit of work starts
only after the previous one completed.  A *round* is the repeating block of
units the driver times (a registry pass, a served stream, a cold campaign, a
journal-replay re-run).  Outputs are checked after each round, outside the
timed region, against the goldens stored in ``perfbench/goldens`` and against
the run's own first round (simulated statistics are deterministic, so they
must repeat exactly).

The program is always called through module attributes looked up at call
time, so the layer tracer's rebinding (``perfbench/layers.py``) is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: Campaign grid: four registry scenarios x chips A-E x the five Figure-1
#: schemes = 100 jobs.  ``steady-baseline`` x schemes is Figure 1.
CAMPAIGN_SCENARIOS = ("steady-baseline", "burst-overload", "pe-fault-transient", "hotspot-attack")
CAMPAIGN_CONFIGURATIONS = ("A", "B", "C", "D", "E")

#: Journal-replay re-runs of each cold campaign (one takes ~6-8 ms, so a
#: rate needs many).
REPLAY_RERUNS = 20

#: Served stream: windows of 8 epochs, 500 windows, chip A, adaptive policy,
#: transient thermal mode, a checkpoint after every window.
SERVE_WINDOWS = 500
SERVE_WINDOW_EPOCHS = 8
SERVE_ARGS = ("-c", "A", "-s", "adaptive", "--mode", "transient")
#: Load-modulation random walk (per PE, per epoch) and ambient offset walk.
SERVE_LOAD_STEP = 0.03
SERVE_LOAD_RANGE = (0.6, 1.4)
SERVE_AMBIENT_STEP_C = 0.15
SERVE_AMBIENT_RANGE_C = (-5.0, 5.0)

#: Floats agree within this (relative and absolute); integers exactly.
TOLERANCE = 1e-9


@dataclass
class Round:
    """One timed round: its wall time, latency samples and checked units."""

    #: Seconds of every timed call in the round (the traced wall).
    wall_s: float
    #: Units whose output was checked.
    units: int
    latencies_ms: List[float]
    failures: List[str] = field(default_factory=list)
    #: Units whose output was wrong (a unit may carry several messages).
    failed_units: int = 0
    #: (work, seconds) the throughput is taken over; None: (units, wall_s).
    throughput: Optional[Tuple[float, float]] = None
    #: Secondary rates, printed but not gated: name -> (work, seconds).
    rates: Dict[str, Tuple[float, float]] = field(default_factory=dict)


def mismatches(actual, expected, path: str = "") -> List[str]:
    """Differences between two JSON-like values (floats within TOLERANCE)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        found: List[str] = []
        for key in expected:
            found.extend(mismatches(actual[key], expected[key], f"{path}.{key}"))
        return found
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        found = []
        for index, (left, right) in enumerate(zip(actual, expected)):
            found.extend(mismatches(left, right, f"{path}[{index}]"))
        return found
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_golden(name: str) -> Dict[str, object]:
    return json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))


def _plain(value):
    """JSON round trip: numpy scalars become Python floats/ints."""
    return json.loads(json.dumps(value))


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    #: What one throughput unit counts.
    unit = ""
    #: What one latency sample times.
    latency_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def config(self) -> Dict[str, object]:
        """The full configuration the fingerprint is taken over."""
        raise NotImplementedError

    def first_round(self) -> Round:
        """The cold round that ends set-up (verified like any other)."""
        return self.run_round()

    def setup_unit(self) -> None:
        """What a fresh process runs to reach its first completed unit."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def one_time_checks(self) -> List[Optional[str]]:
        """Checks run once after the first round: None, or why one failed."""
        return []

    def report_lines(self) -> List[str]:
        return []

    def golden_payload(self) -> Dict[str, object]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def scenario_record(result) -> Dict[str, object]:
    """Everything checked of one ``ScenarioResult``, at full precision."""
    experiment = result.experiment
    record = {
        "row": result.to_row(),
        "baseline_peak_celsius": experiment.baseline_peak_celsius,
        "baseline_mean_celsius": experiment.baseline_mean_celsius,
        "settled_peak_celsius": experiment.settled_peak_celsius,
        "settled_mean_celsius": experiment.settled_mean_celsius,
        "throughput_penalty": experiment.throughput_penalty,
        "migrations": experiment.migrations_performed,
        "migration_energy_j": experiment.total_migration_energy_j,
        "epochs": len(experiment.epochs),
        "ambient_offset_min_celsius": result.ambient_offset_min_celsius,
        "ambient_offset_max_celsius": result.ambient_offset_max_celsius,
        "decoder": None,
        "noc": None,
    }
    if result.decoder is not None:
        record["decoder"] = {
            "mean_iterations": result.decoder.mean_iterations,
            "success_rate": result.decoder.success_rate,
            "throughput_factor": result.decoder.throughput_factor,
        }
    if result.noc is not None:
        record["noc"] = {
            "mean_latency_cycles": result.noc.mean_latency_cycles,
            "peak_latency_cycles": result.noc.peak_latency_cycles,
            "saturated_epochs": result.noc.saturated_epochs,
            "saturation_rate": result.noc.saturation_rate,
            "peak_injection_rate": result.noc.peak_injection_rate,
        }
    return _plain(record)


class RegistryWorkload(Workload):
    """Warm passes over every registry scenario through ``run_scenario``.

    The seed shuffles each pass's scenario order; results are keyed by
    scenario name, so the goldens hold for every seed.
    """

    name = "registry"
    unit = "scenarios"
    latency_unit = "run_scenario call"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import repro.scenarios.compile as compile_module
        from repro.scenarios import all_scenarios

        self._compile = compile_module
        self.specs = all_scenarios()
        self._rng = random.Random(seed)
        self._golden: Optional[Dict[str, object]] = None
        self.records: Dict[str, Dict[str, object]] = {}

    def config(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "seed": self.seed,
            "round": "one pass over every scenario, seeded order",
            "scenarios": sorted(
                (json.loads(spec.canonical_json()) for spec in self.specs),
                key=lambda spec: spec["name"],
            ),
        }

    def _pass(self, specs) -> Round:
        run_scenario = self._compile.run_scenario
        clock = time.perf_counter
        results = []
        latencies = []
        errors: Dict[str, str] = {}
        began = clock()
        for spec in specs:
            start = clock()
            try:
                results.append((spec.name, run_scenario(spec)))
            except Exception as error:  # a failed unit, reported below
                errors[spec.name] = f"{spec.name}: {type(error).__name__}: {error}"
                results.append((spec.name, None))
            latencies.append((clock() - start) * 1e3)
        wall = clock() - began
        round_ = Round(wall_s=wall, units=len(specs), latencies_ms=latencies)
        if self._golden is None:
            self._golden = load_golden(self.name)
        for name, result in results:
            if result is None:
                round_.failures.append(errors[name])
                round_.failed_units += 1
                continue
            record = scenario_record(result)
            if name in self._golden:
                found = mismatches(record, self._golden[name], name)
            else:
                found = [f"{name}: no golden"]
            previous = self.records.setdefault(name, record)
            if record != previous:
                found.append(f"{name}: differs from this run's first result")
            if found:
                round_.failures.extend(found)
                round_.failed_units += 1
        return round_

    def first_round(self) -> Round:
        return self._pass(self.specs)

    def setup_unit(self) -> None:
        run_scenario = self._compile.run_scenario
        for spec in self.specs:
            run_scenario(spec)

    def run_round(self) -> Round:
        order = list(self.specs)
        self._rng.shuffle(order)
        return self._pass(order)

    def golden_payload(self) -> Dict[str, object]:
        run_scenario = self._compile.run_scenario
        return {spec.name: scenario_record(run_scenario(spec)) for spec in self.specs}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_input_lines(seed: int, num_units: int) -> List[str]:
    """The seeded JSONL stream: a per-PE load walk plus an ambient walk."""
    rng = np.random.default_rng(seed)
    low, high = SERVE_LOAD_RANGE
    cold, hot = SERVE_AMBIENT_RANGE_C
    load = np.ones(num_units)
    ambient = 0.0
    lines = []
    for window in range(SERVE_WINDOWS):
        rows = []
        offsets = []
        for _ in range(SERVE_WINDOW_EPOCHS):
            load = np.clip(load + rng.normal(0.0, SERVE_LOAD_STEP, num_units), low, high)
            ambient = float(np.clip(ambient + rng.normal(0.0, SERVE_AMBIENT_STEP_C), cold, hot))
            rows.append([round(float(value), 6) for value in load])
            offsets.append(round(ambient, 6))
        record = {
            "num_epochs": SERVE_WINDOW_EPOCHS,
            "start_epoch": window * SERVE_WINDOW_EPOCHS,
            "load_modulation": rows,
            "ambient_offsets": offsets,
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    return lines


class _LineClock(io.TextIOBase):
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: List[str] = []
        self.stamps: List[float] = []
        self._pending = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" in text:
            now = time.perf_counter()
            *complete, self._pending = (self._pending + text).split("\n")
            self.lines.extend(complete)
            self.stamps.extend([now] * len(complete))
        else:
            self._pending += text
        return len(text)


@contextlib.contextmanager
def _without_disk_flush():
    """Checkpoints are written and read back, but ``os.fsync`` does nothing.

    This stands in for putting the checkpoint directory on tmpfs, where a
    flush costs nothing: the benchmark times the checkpoint's serialisation
    and write, not the flush latency of a shared disk.  It may only write
    inside its checkout, which need not be on tmpfs.
    """
    flush = os.fsync
    os.fsync = lambda descriptor: None
    try:
        yield
    finally:
        os.fsync = flush


#: Window-record fields that are host timings, not simulated statistics.
_TIMING_FIELDS = ("lag_s",)


class ServeWorkload(Workload):
    """In-process ``repro serve --input FILE ... --checkpoint DIR`` streams."""

    name = "serve"
    unit = "epochs"
    latency_unit = "served window (emitted line to emitted line)"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import repro.cli as cli
        from repro.chips import get_configuration

        self._cli = cli
        lines = serve_input_lines(seed, get_configuration("A").topology.num_nodes)
        self.input_path = workdir / "serve-input.jsonl"
        self.input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._lines = lines
        self._runs = 0
        self.reference: Optional[List[Dict[str, object]]] = None
        self.final: Optional[Dict[str, object]] = None

    def config(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "seed": self.seed,
            "round": "one served stream of every window",
            "argv": ["serve", "--input", "FILE", *SERVE_ARGS, "--checkpoint", "DIR"],
            "windows": SERVE_WINDOWS,
            "window_epochs": SERVE_WINDOW_EPOCHS,
            "load_step": SERVE_LOAD_STEP,
            "load_range": list(SERVE_LOAD_RANGE),
            "ambient_step_c": SERVE_AMBIENT_STEP_C,
            "ambient_range_c": list(SERVE_AMBIENT_RANGE_C),
        }

    def _serve(self, input_path: Path, checkpoint: Path):
        """Run the CLI once; (exit code, window lines, stamps, began)."""
        argv = [
            "serve", "--input", str(input_path), *SERVE_ARGS,
            "--checkpoint", str(checkpoint),
        ]
        capture = _LineClock()
        began = time.perf_counter()
        with contextlib.redirect_stdout(capture), _without_disk_flush():
            code = self._cli.main(argv)
        return code, capture.lines, capture.stamps, began

    def _fresh_dir(self, label: str) -> Path:
        # Directories are never reused; the work directory goes at exit.
        path = self.workdir / label
        if path.exists():
            raise RuntimeError(f"{path} already exists")
        return path

    @staticmethod
    def _parse(lines: List[str]):
        records = [json.loads(line) for line in lines if line.strip()]
        windows = [record for record in records if not record.get("final")]
        finals = [record for record in records if record.get("final")]
        return windows, (finals[0] if len(finals) == 1 else None)

    @staticmethod
    def _simulated(record: Dict[str, object]) -> Dict[str, object]:
        return {key: value for key, value in record.items() if key not in _TIMING_FIELDS}

    def _check_final(self, final: Dict[str, object]) -> List[str]:
        golden = load_golden(self.name)
        found = mismatches(
            final["baseline_peak_c"], golden["baseline_peak_c"], "final.baseline_peak_c"
        )
        expected = golden["finals"].get(str(self.seed))
        if expected is not None:
            found.extend(mismatches(final, expected, "final"))
        return found

    def run_round(self) -> Round:
        self._runs += 1
        checkpoint = self._fresh_dir(f"serve-checkpoint-{self._runs}")
        try:
            code, lines, stamps, began = self._serve(self.input_path, checkpoint)
        except Exception as error:  # the whole stream failed
            return Round(
                wall_s=0.0, units=SERVE_WINDOWS, latencies_ms=[],
                failures=[f"serve: {type(error).__name__}: {error}"],
                failed_units=SERVE_WINDOWS,
            )
        wall = stamps[-1] - began if stamps else 0.0
        window_stamps = [began] + stamps[:-1]
        latencies = [
            (after - before) * 1e3 for before, after in zip(window_stamps, stamps[:-1])
        ]
        round_ = Round(
            wall_s=wall, units=SERVE_WINDOWS, latencies_ms=latencies,
            throughput=(SERVE_WINDOWS * SERVE_WINDOW_EPOCHS, wall),
        )
        windows, final = self._parse(lines)
        if code != 0 or final is None or len(windows) != SERVE_WINDOWS:
            round_.failures.append(
                f"serve: exit {code}, {len(windows)} window records, final {final!r}"
            )
            round_.failed_units = SERVE_WINDOWS
            return round_
        simulated = [self._simulated(record) for record in windows]
        if self.reference is None:
            # The first stream is the reference later streams must repeat;
            # its own checks are the goldens and the stream's invariants.
            found = self._check_final(final)
            last = simulated[-1]
            epochs = SERVE_WINDOWS * SERVE_WINDOW_EPOCHS
            if last["windows"] != SERVE_WINDOWS or last["epochs"] != epochs:
                found.append(f"serve: summary counts {last['windows']}/{last['epochs']}")
            if not all(record["checkpointed"] for record in simulated):
                found.append("serve: a window was not checkpointed")
            if found:
                round_.failures.extend(found)
                round_.failed_units = 1
            self.reference = simulated
            self.final = final
            return round_
        for index, (record, expected) in enumerate(zip(simulated, self.reference)):
            if record != expected:
                round_.failures.append(f"serve: window {index} differs from the first stream")
                round_.failed_units += 1
        if final != self.final:
            round_.failures.append("serve: final record differs from the first stream")
            round_.failed_units += 1
        return round_

    def setup_unit(self) -> None:
        head = self.workdir / "serve-head.jsonl"
        head.write_text(self._lines[0] + "\n", encoding="utf-8")
        code, lines, _stamps, _began = self._serve(head, self._fresh_dir("serve-head"))
        if code != 0 or len(lines) != 2:
            raise RuntimeError(f"serve of one window failed: exit {code}, {lines!r}")

    def one_time_checks(self) -> List[Optional[str]]:
        """Resume == uninterrupted: stop at half the stream, then resume."""
        if self.reference is None:
            return ["serve resume: the first stream failed, nothing to compare"]
        half = SERVE_WINDOWS // 2
        head = self.workdir / "serve-half.jsonl"
        head.write_text("\n".join(self._lines[:half]) + "\n", encoding="utf-8")
        checkpoint = self._fresh_dir("serve-resume")
        code, _lines, _stamps, _began = self._serve(head, checkpoint)
        if code != 0:
            return [f"serve resume: first half exited {code}"]
        code, lines, _stamps, _began = self._serve(self.input_path, checkpoint)
        windows, final = self._parse(lines)
        resumed = [self._simulated(record) for record in windows]
        if code != 0 or final != self.final or resumed != self.reference[half:]:
            return ["serve resume: resumed stream differs from the uninterrupted one"]
        return [None]

    def golden_payload(self) -> Dict[str, object]:
        path = GOLDENS / f"{self.name}.json"
        payload = (
            json.loads(path.read_text(encoding="utf-8"))
            if path.exists()
            else {"baseline_peak_c": None, "finals": {}}
        )
        code, lines, _stamps, _began = self._serve(
            self.input_path, self._fresh_dir("serve-golden")
        )
        _windows, final = self._parse(lines)
        if code != 0 or final is None:
            raise RuntimeError("serve failed while recording goldens")
        payload["baseline_peak_c"] = final["baseline_peak_c"]
        payload["finals"][str(self.seed)] = final
        return payload


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class CampaignWorkload(Workload):
    """Cold 100-job campaigns, serial (``n_jobs=1``), each in a new directory.

    After each cold campaign the same campaign is re-run
    :data:`REPLAY_RERUNS` times: every job then replays from the journal.
    Throughput and latency are the cold campaign's; the replay rate is
    printed beside them.  The seed permutes the configuration and scheme
    axes, which reorders the grid's expansion; job ids, cache keys and
    results do not depend on the order.
    """

    name = "campaign"
    unit = "cold jobs"
    latency_unit = "cold job (journaled evaluation time)"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import repro.campaign.executor as executor
        import repro.campaign.manifest as manifest
        from repro.campaign import CampaignSpec
        from repro.migration.transforms import FIGURE1_SCHEMES

        self._executor = executor
        self._manifest = manifest
        rng = random.Random(seed)
        configurations = list(CAMPAIGN_CONFIGURATIONS)
        schemes = list(FIGURE1_SCHEMES)
        rng.shuffle(configurations)
        rng.shuffle(schemes)
        self.spec = CampaignSpec(
            name="perfbench",
            scenarios=CAMPAIGN_SCENARIOS,
            configurations=tuple(configurations),
            schemes=tuple(schemes),
        )
        self._golden: Optional[Dict[str, object]] = None
        self._runs = 0
        #: job id -> result payload of this run's first cold campaign.
        self.cold: Optional[Dict[str, Dict[str, object]]] = None

    def config(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "seed": self.seed,
            "round": "one cold campaign in a new directory, then replay re-runs",
            "campaign": self.spec.to_dict(),
            "n_jobs": 1,
            "replay_reruns": REPLAY_RERUNS,
        }

    def _fresh_dir(self) -> Path:
        # A new directory per round; all are removed after the timed loop,
        # so no deletion competes with a timed round for the disk.
        self._runs += 1
        return self.workdir / f"campaign-{self._runs}"

    def _run(self, directory: Path):
        began = time.perf_counter()
        run = self._executor.run_campaign(self.spec, directory, n_jobs=1)
        return run, time.perf_counter() - began

    def _check(self, run, evaluated: int) -> List[str]:
        if self._golden is None:
            self._golden = load_golden(self.name)
        found = []
        if run.evaluated != evaluated or run.resumed != len(run.jobs) - evaluated:
            found.append(
                f"campaign: {run.evaluated} evaluated and {run.resumed} replayed "
                f"of {len(run.jobs)} jobs"
            )
        for job, result in zip(run.jobs, run.results):
            if result is None:
                found.append(f"{job.job_id}: no result")
                continue
            payload = result.to_dict()
            expected = self._golden.get(job.job_id)
            if expected is None:
                found.append(f"{job.job_id}: no golden")
            else:
                found.extend(mismatches(payload, expected, job.job_id))
            if self.cold is not None and payload != self.cold.get(job.job_id):
                found.append(f"{job.job_id}: differs from this run's first campaign")
        return found

    def setup_unit(self) -> None:
        self._run(self._fresh_dir())

    def run_round(self) -> Round:
        directory = self._fresh_dir()
        jobs = len(self.spec.expand())
        try:
            cold, cold_s = self._run(directory)
            replays = [self._run(directory) for _ in range(REPLAY_RERUNS)]
        except Exception as error:
            return Round(
                wall_s=0.0, units=jobs, latencies_ms=[],
                failures=[f"campaign: {type(error).__name__}: {error}"],
                failed_units=jobs,
            )
        replay_s = sum(seconds for _, seconds in replays)
        entries = self._manifest.load_journal(directory)
        round_ = Round(
            wall_s=cold_s + replay_s,
            units=jobs * (1 + REPLAY_RERUNS),
            latencies_ms=[
                float(entry["wall_s"]) * 1e3
                for entry in entries
                if not entry.get("from_cache")
            ],
            throughput=(jobs, cold_s),
            rates={"replay_jobs_per_s": (jobs * REPLAY_RERUNS, replay_s)},
        )
        if self.cold is None:
            self.cold = {
                job.job_id: result.to_dict()
                for job, result in zip(cold.jobs, cold.results)
                if result is not None
            }
        for run, evaluated in [(cold, jobs)] + [(run, 0) for run, _ in replays]:
            found = self._check(run, evaluated)
            if found:
                round_.failures.extend(found)
                round_.failed_units += min(jobs, len(found))
        return round_

    def report_lines(self) -> List[str]:
        """Figure-1 error: average reductions of the steady-baseline slice."""
        from repro.chips import PAPER_AVERAGE_REDUCTIONS

        if not self.cold:
            return []
        lines = []
        for scheme, paper in PAPER_AVERAGE_REDUCTIONS.items():
            reductions = [
                payload["peak_reduction_celsius"]
                for payload in self.cold.values()
                if payload["axes"]["scenario"] == "steady-baseline"
                and payload["axes"]["scheme"] == scheme
            ]
            mean = sum(reductions) / len(reductions)
            lines.append(
                f"figure1 {scheme}: average reduction {mean:.4f} C over "
                f"{len(reductions)} chips, paper {paper:.2f} C, error {mean - paper:+.4f} C"
            )
        return lines

    def golden_payload(self) -> Dict[str, object]:
        run, _seconds = self._run(self._fresh_dir())
        return {
            job.job_id: result.to_dict() for job, result in zip(run.jobs, run.results)
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        RegistryWorkload,
        ServeWorkload,
        CampaignWorkload,
    )
}
