"""End-to-end, layer-attributed benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload registry --seed 1 --seconds 10
    python3 perfbench/run.py --workload serve --trace 1       # per-layer table

Workloads (``perfbench/workloads.py``): ``registry``, ``serve`` and
``campaign``.  Each runs in one serial process with
the BLAS pools pinned to one thread.  Set-up time is the median over fresh
processes of the time from launch to the workload's first completed unit.
The timed loop then repeats rounds for ``--seconds``; every round's outputs
are checked.  With ``--trace 1`` rounds alternate between untraced and
traced (``perfbench/layers.py``), and the traced ones give the per-layer
table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when any unit failed.  ``--record-goldens`` rewrites the workload's
goldens from the current program instead of benchmarking it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch directories live inside the checkout and are removed on exit.
WORK_ROOT = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("registry", "serve", "campaign")
#: Latency samples per block of :func:`block_percentile`.
BLOCK_SAMPLES = 200
#: Fresh processes timed for set-up; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: statfs(2) magic numbers of the file systems the work directory may be on.
_FILESYSTEMS = {
    0x01021994: "tmpfs",
    0xEF53: "ext4",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced rounds and report per-layer metrics")
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite the workload's goldens instead of benchmarking")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def filesystem_type(path: Path) -> str:
    """File system the path lives on, from statfs(2) (Linux only)."""
    import ctypes

    if not sys.platform.startswith("linux"):
        return "unknown"
    libc = ctypes.CDLL(None, use_errno=True)
    statfs = libc.statfs
    statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    statfs.restype = ctypes.c_int
    buffer = ctypes.create_string_buffer(256)
    if statfs(os.fsencode(str(path)), buffer) != 0:
        return "unknown"
    # f_type is the first field of struct statfs.
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return _FILESYSTEMS.get(magic, hex(magic))


def fingerprint(config: Dict[str, object]) -> str:
    import hashlib

    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def block_percentile(runs: List[List[float]], q: float) -> float:
    """Median over blocks of consecutive samples of each block's percentile.

    Rounds are joined into blocks of at least :data:`BLOCK_SAMPLES`, enough
    for ten samples beyond the 95th percentile.  A few stretches of host
    noise then move one block's tail, not the reported one.
    """
    blocks: List[List[float]] = []
    current: List[float] = []
    for values in runs:
        current.extend(values)
        if len(current) >= BLOCK_SAMPLES:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1].extend(current)
        else:
            blocks.append(current)
    return statistics.median(percentile(block, q) for block in blocks)


def figures(results, scales: List[float]) -> Dict[str, float]:
    """Throughput, latency percentiles and secondary rates of timed rounds.

    Each round's times are multiplied by its scale (1.0 for raw figures).
    """
    rates: Dict[str, List[float]] = {"throughput": []}
    for result, scale in zip(results, scales):
        work, seconds = result.throughput or (result.units, result.wall_s)
        rates["throughput"].append(work / (seconds * scale))
        for name, (work, seconds) in result.rates.items():
            rates.setdefault(name, []).append(work / (seconds * scale))
    latencies = [
        [value * scale for value in result.latencies_ms]
        for result, scale in zip(results, scales)
    ]
    values = {name: statistics.median(series) for name, series in rates.items()}
    values["latency_ms_p50"] = block_percentile(latencies, 50)
    values["latency_ms_p95"] = block_percentile(latencies, 95)
    return values


# ----------------------------------------------------------------------
def setup_probe(args: argparse.Namespace, workdir: Path) -> int:
    """Child process: reach the workload's first completed unit, say so."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, workdir).setup_unit()
    print("ready", flush=True)
    return 0


def measure_setup(args: argparse.Namespace, speed) -> List[float]:
    """Launch-to-first-unit seconds of fresh processes, one at a time.

    A calibration point precedes each process and follows the last one, so
    the host speed over the whole set-up phase is known.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.calibrate(force=True)
        began = time.perf_counter()
        process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - began
            process.stdout.read()
            code = process.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} before its first unit")
        samples.append(elapsed)
    speed.calibrate(force=True)
    return samples


def environment(workdir: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "work_dir_fs": filesystem_type(workdir),
    }


def print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def run_workload(args: argparse.Namespace, workdir: Path) -> int:
    from hostspeed import HostSpeed
    from layers import DERIVED_UNITS, LAYERS, LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    identity = fingerprint(workload.config())
    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  fingerprint={identity}")
    env = environment(workdir)
    print("environment: " + "  ".join(f"{key}={value}" for key, value in env.items()))

    speed = HostSpeed()
    setup_began = time.perf_counter()
    setup_samples = measure_setup(args, speed)
    setup_scale = speed.scale(setup_began, time.perf_counter())
    rounds = [workload.first_round()]
    check_results = workload.one_time_checks()
    checks = len(check_results)
    check_failures = [message for message in check_results if message is not None]

    tracer = LayerTracer() if args.trace else None
    untraced = []
    traced = []
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline
        or not untraced
        or (tracer is not None and not traced)
    ):
        speed.calibrate()
        began = time.perf_counter()
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        try:
            result = workload.run_round()
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(
            (result, (began, time.perf_counter()))
        )
    speed.calibrate(force=True)
    rounds.extend(result for result, _ in untraced + traced)

    attempted = sum(result.units for result in rounds) + checks
    failed = sum(result.failed_units for result in rounds) + len(check_failures)
    failures = [message for result in rounds for message in result.failures]
    failures.extend(check_failures)
    for line in workload.report_lines():
        print(line)

    # Host-speed-scaled figures (see hostspeed.py); raw ones are printed too.
    scales = [speed.scale(*span) for _, span in untraced]
    results = [result for result, _ in untraced]
    scaled = figures(results, scales)
    raw = figures(results, [1.0] * len(results))
    raw["setup_s"] = statistics.median(setup_samples)
    samples = sum(len(result.latencies_ms) for result in results)
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; host-speed kernel "
          f"median {speed.kernel_ms():.3f} ms over {len(speed.points)} points")
    metrics: Dict[str, Dict[str, object]] = {}
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples) * setup_scale, "unit": "s"},
            "throughput": {"value": scaled["throughput"], "unit": "units/s"},
            "latency_ms_p50": {"value": scaled["latency_ms_p50"], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        notes = {
            "setup_s": f"median of {len(setup_samples)} fresh processes",
            "throughput": f"{workload.unit}/s, median of {len(untraced)} rounds",
            "latency_ms_p50": f"per {workload.latency_unit}, {samples} samples",
            "latency_ms_p95": f"per {workload.latency_unit}, {samples} samples",
        }
        rows = [["metric", "value", "unit", "raw", ""]]
        for name, metric in metrics.items():
            rows.append([
                name, f"{metric['value']:.6g}", str(metric["unit"]),
                f"{raw[name]:.6g}" if name in raw else "", notes.get(name, ""),
            ])
        # Printed, not gated: their run-to-run spread on a contended host
        # exceeds any bound the benchmark may set (see README.md).
        for name in scaled:
            if name not in metrics:
                unit = "ms" if name.startswith("latency") else "units/s"
                rows.append([name, f"{scaled[name]:.6g}", unit, f"{raw[name]:.6g}",
                             notes.get(name, "") + " (printed only, not gated)"])
    else:
        traced_ns = int(sum(result.wall_s for result, _ in traced) * 1e9)
        count = len(traced)
        table = tracer.layer_table(traced_ns, count)
        rows = [["layer", "self_ms/round", "share", "calls/round"]]
        for row in table:
            rows.append([row["layer"], f"{row['self_ms']:.3f}",
                         f"{100 * row['share']:.1f}%", f"{row['calls']:.1f}"])
            metrics[f"{row['layer']}.self_ms"] = {"value": row["self_ms"], "unit": "ms"}
            if row["layer"] in LAYERS:
                metrics[f"{row['layer']}.calls"] = {"value": row["calls"], "unit": "count"}
        for name, value in tracer.derived_counters(count).items():
            metrics[name] = {"value": value, "unit": DERIVED_UNITS[name]}
        traced_ms = statistics.median(
            result.wall_s * speed.scale(*span) for result, span in traced
        ) * 1e3
        untraced_ms = statistics.median(
            result.wall_s * scale for result, scale in zip(results, scales)
        ) * 1e3
        metrics["trace.wall_ms"] = {"value": traced_ms, "unit": "ms"}
        metrics["trace.untraced_wall_ms"] = {"value": untraced_ms, "unit": "ms"}
        metrics["trace.overhead_pct"] = {
            "value": 100 * (traced_ms / untraced_ms - 1), "unit": "%"
        }
    print_table(rows)
    if tracer is not None:
        print(f"round wall (median, host-speed scaled): traced {traced_ms:.3f} ms, "
              f"untraced {untraced_ms:.3f} ms, tracing overhead "
              f"{metrics['trace.overhead_pct']['value']:+.2f}%")
        print("counters: " + "  ".join(
            f"{name}={value:.6g}" for name, value in tracer.derived_counters(count).items()
        ))
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} units failed)")
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def record_goldens(args: argparse.Namespace, workdir: Path) -> int:
    from workloads import GOLDENS, WORKLOADS

    payload = WORKLOADS[args.workload](args.seed, workdir).golden_payload()
    GOLDENS.mkdir(exist_ok=True)
    path = GOLDENS / f"{args.workload}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process, then one combined result."""
    combined: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print()
        worst = max(worst, completed.returncode)
        if not lines:
            failed += 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}/{metric}"] = value
    print(json.dumps({
        "correct": failed == 0 and worst == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return worst or (1 if failed else 0)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Pin the BLAS pools before numpy is first imported (workloads import it).
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        if args.record_goldens:
            return record_goldens(args, workdir)
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
