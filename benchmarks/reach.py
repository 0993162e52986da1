"""Every function of ``src/repro`` is entered by a surface, or says why not.

The script starts a profiler before ``repro`` is first imported, then drives
every ``repro`` command in process: the paper commands, the scenario
registry, campaigns, streams and telemetry, plus the paths a plain run of
each command would miss (every routing, traffic pattern, pattern kind and
transform; checkpoint compaction; an in-flight plan resumed from its
checkpoint; a sharded, traced campaign; a pickled chip).  Then it runs every
example.  It lists each ``def`` under ``src/repro`` (nested ones included)
that none of them entered.

It exits 1 on an unentered function that :data:`ALLOWLIST` does not cover,
and on an allowlist entry that a surface entered or that names nothing in
``src/repro``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pickle
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: Qualified name of a function, or of a class (covering everything defined
#: in it), that no surface enters -> why it stays in ``src/``.
ALLOWLIST: Dict[str, str] = {
    "repro.core.controller.RuntimeReconfigurationController.apply_migration": (
        "one-epoch controller API the controller tests step with; to be "
        "folded into one-epoch walk calls"
    ),
    "repro.core.controller.RuntimeReconfigurationController.advance_plan": (
        "one-epoch controller API the controller tests step with; to be "
        "folded into one-epoch walk calls"
    ),
    "repro.core.controller.RuntimeReconfigurationController.migration_in_progress": (
        "one-epoch controller API the controller tests step with; to be "
        "folded into one-epoch walk calls"
    ),
    "repro.core.controller._fixed": (
        "the one-epoch API's single-stage walk"
    ),
    "repro.core.controller.RuntimeReconfigurationController.io_translator": (
        "the paper's Section 2.3 I/O address translation"
    ),
    "repro.migration.io_interface.IoAddressTranslator": (
        "the paper's Section 2.3 I/O address translation"
    ),
    "repro.noc.flit.Packet": (
        "the packets the paper's I/O address translation rewrites"
    ),
    "repro.core.metrics.EpochColumns.__eq__": (
        "value equality of a run's epochs, on which the dataclass equality of "
        "ExperimentResult and ScenarioResult rests; the parity suites compare "
        "whole results"
    ),
    "repro.migration.unit.PlanMemo.__len__": (
        "the plan memo's inspection API, which the plan-memo and orbit-memo "
        "suites read for lowering counts and LRU order"
    ),
    "repro.migration.unit.PlanMemo.keys": (
        "the plan memo's inspection API, which the plan-memo and orbit-memo "
        "suites read for lowering counts and LRU order"
    ),
    "repro.obs.core.disable": (
        "the off switch of the telemetry the CLI turns on once per process; "
        "in-process callers (the test fixtures) restore a clean state with it"
    ),
    "repro.obs.core.TelemetryRegistry.disable": (
        "the registry side of repro.obs.disable"
    ),
    "repro.obs.core.TelemetryRegistry.reset": (
        "zeroes the registry between in-process runs (the test fixtures)"
    ),
    "repro.obs.trace.stop_tracing": (
        "the off switch of the span buffer the CLI turns on once per process; "
        "in-process callers (the test fixtures) restore a clean state with it"
    ),
    "repro.obs.core.TelemetryScope._time": (
        "a task scope's share of a timer record, which keeps a scope's "
        "counters/timers dict whole; the one timer today (campaign.job) is "
        "recorded outside any scope"
    ),
    "repro.thermal.solver.ThermalSolver.steady_state_batch": (
        "node-space view read by the thermal solver suite and the LU-oracle "
        "parity tests"
    ),
    "repro.thermal.solver.ThermalSolver.transient_sequence": (
        "node-space view read by the thermal solver suite and the LU-oracle "
        "parity tests"
    ),
}

Key = Tuple[str, int, str]


# ----------------------------------------------------------------------
# The profiler: every code object entered, in this process and its forks
# ----------------------------------------------------------------------
_entered: Set[object] = set()
_parent = os.getpid()
#: Directory a forked worker appends its newly entered functions to, one
#: file per pid: a pool worker leaves through ``os._exit``, and
#: ``multiprocessing`` clears its finalizer registry in each child.
_spill: Optional[Path] = None


def _profile(frame, event, arg) -> None:
    if event != "call":
        return
    code = frame.f_code
    if code in _entered:
        return
    _entered.add(code)
    if _spill is not None and os.getpid() != _parent and code.co_filename.endswith(".py"):
        with open(_spill / f"{os.getpid()}.tsv", "a", encoding="utf-8") as handle:
            handle.write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")


def _entered_keys() -> Set[Key]:
    keys = {
        (code.co_filename, code.co_firstlineno, code.co_name) for code in list(_entered)
    }
    for path in _spill.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, first, name = line.split("\t")
            keys.add((filename, int(first), name))
    resolved: Dict[str, str] = {}
    found = set()
    for filename, first, name in keys:
        if filename not in resolved:
            resolved[filename] = str(Path(filename).resolve())
        found.add((resolved[filename], first, name))
    return found


# ----------------------------------------------------------------------
# The inventory: every def under src/repro
# ----------------------------------------------------------------------
def _is_abstract(node: ast.AST) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", "")) == "abstractmethod"
        for decorator in node.decorator_list
    )


def inventory() -> Dict[Key, str]:
    """(file, first line, name) -> qualified name of every ``def``.

    The first line is the one ``co_firstlineno`` reports: a decorated
    function's first decorator.  An ``@abstractmethod`` declaration is left
    out: its body never runs by design, and the overrides it declares are
    listed in its place.
    """
    functions: Dict[Key, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        filename = str(path.resolve())

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_abstract(child):
                        continue
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    qualname = prefix + child.name
                    functions[(filename, first, child.name)] = f"{module}.{qualname}"
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return functions


def covering_entry(qualname: str) -> str:
    """The allowlist entry naming ``qualname`` or a scope enclosing it, or ''."""
    for entry in ALLOWLIST:
        if qualname == entry or qualname.startswith(entry + "."):
            return entry
    return ""


# ----------------------------------------------------------------------
# The drive
# ----------------------------------------------------------------------
#: One JSON example of every scenario pattern kind.
PATTERN_EXAMPLES: Dict[str, Dict[str, object]] = {
    "constant": {"kind": "constant", "value": 1.1},
    "step": {"kind": "step", "before": 1.0, "after": 1.2, "step_epoch": 3},
    "ramp": {"kind": "ramp", "start": 0.9, "end": 1.2, "end_epoch": 6},
    "burst": {"kind": "burst", "base": 1.0, "peak": 1.3, "start_epoch": 2, "length": 2},
    "diurnal": {"kind": "diurnal", "mean": 1.0, "amplitude": 0.2, "period_epochs": 6.0},
    "duty-cycle": {
        "kind": "duty-cycle", "on_value": 1.2, "off_value": 0.8,
        "on_epochs": 2, "off_epochs": 1,
    },
    "wall-clock": {
        "kind": "wall-clock",
        "inner": {"kind": "ramp", "start": 1.0, "end": 1.2, "end_epoch": 4},
        "inner_step_s": 1e-4,
    },
    "hotspot": {"kind": "hotspot", "center": [1, 1], "peak": 1.5},
    "fault": {"kind": "fault", "units": [[0, 0]], "level": 0.5, "start_epoch": 2},
    "sum": {"kind": "sum", "terms": [{"kind": "constant", "value": 0.5}] * 2},
    "product": {"kind": "product", "factors": [{"kind": "constant", "value": 1.1}] * 2},
}

#: Extra arguments of each NoC traffic pattern.
TRAFFIC_ARGUMENTS: Dict[str, Dict[str, object]] = {
    "uniform": {},
    "hotspot": {"hotspots": [[1, 1]], "hotspot_fraction": 0.3},
    "transpose": {},
    "bit-complement": {},
    "neighbor": {},
}


class Driver:
    """Runs ``repro`` commands in process with their output captured."""

    def __init__(self, work: Path):
        from repro import cli

        self.cli = cli
        self.work = work

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(self, *argv: str, status: int = 0) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        if code != status:
            raise SystemExit(
                f"repro {' '.join(argv)} exited {code}, expected {status}\n"
                f"{err.getvalue()}"
            )
        return out.getvalue()

    def spec(self, name: str, edit) -> str:
        payload = json.loads(self.run("scenario", "run", name, "--show-spec"))
        edit(payload)
        return self.write(f"spec-{len(os.listdir(self.work))}.json", json.dumps(payload))

    def run_spec(self, name: str, edit, status: int = 0) -> None:
        self.run("scenario", "run", "--spec", self.spec(name, edit), status=status)


def windows(count: int, epochs: int, units: int, start: int = 0) -> str:
    lines = []
    for index in range(count):
        lines.append(json.dumps({
            "num_epochs": epochs,
            "start_epoch": start + index * epochs,
            "load_modulation": [[1.0 + 0.01 * ((index + row) % 5)] * units
                                for row in range(epochs)],
            "ambient_offsets": [0.5 * (index % 3)] * epochs,
        }))
    return "\n".join(lines) + "\n"


def drive_paper_commands(d: Driver) -> None:
    d.run("chips")
    d.run("--csv", "chips")
    d.run("figure1", "-C", "A", "E")
    d.run("--csv", "figure1", "-C", "B")
    d.run("experiment", "--epochs", "9")
    d.run("experiment", "-c", "C", "--grid", "2", "--epochs", "6", "--mode", "transient")
    d.run("experiment", "-c", "B", "-s", "adaptive", "--feedback-stride", "3",
          "--feedback-predictor", "previous", "--epochs", "9")
    d.run("experiment", "--migration-style", "fluid", "--epochs", "12")
    d.run("experiment", "-c", "E", "--migration-style", "batched",
          "--no-migration-energy", "--mode", "transient", "--epochs", "8")
    d.run("experiment", "-s", "static", "--epochs", "4")
    from repro.migration.transforms import available_transforms

    for name in available_transforms():
        d.run("experiment", "-s", name, "--epochs", "5")
    d.run("sweep", "--periods", "50", "109", "--epochs", "6")
    d.run("sweep", "-c", "E", "--mode", "transient", "--periods", "109", "--epochs", "6")
    d.run("ablation", "--epochs", "6")
    d.run("dtm", "--epochs", "6")


def drive_scenarios(d: Driver) -> None:
    from repro.noc.routing import available_algorithms
    from repro.scenarios import all_scenarios
    from repro.scenarios.patterns import _PATTERN_KINDS
    from repro.scenarios.spec import NOC_TRAFFIC_PATTERNS

    d.run("scenario", "list")
    d.run("--csv", "scenario", "list")
    for spec in all_scenarios():
        d.run("scenario", "run", spec.name)
        d.run("scenario", "run", spec.name, "--show-spec")
    d.run("--csv", "scenario", "run", "adaptive-diurnal", "--feedback-stride", "4",
          "--feedback-predictor", "previous")
    d.run("scenario", "run", "steady-baseline", "--migration-style", "batched",
          "--migration-units-per-epoch", "3")
    d.run("scenario", "compare")
    d.run("--csv", "scenario", "compare", "steady-baseline", "adaptive-diurnal",
          "--feedback-stride", "2")
    d.run("scenario", "run", "--spec", d.path("missing.json"), status=1)

    def noc(routing: str, traffic: str):
        def edit(spec):
            spec["noc"]["routing"] = routing
            spec["noc"]["traffic"] = traffic
            spec["noc"]["traffic_kwargs"] = TRAFFIC_ARGUMENTS[traffic]
            spec.update(num_epochs=8, settle_epochs=4)
        return edit

    for routing in available_algorithms():
        d.run_spec("noc-congestion-burst", noc(routing, "uniform"))
    assert set(TRAFFIC_ARGUMENTS) == set(NOC_TRAFFIC_PATTERNS), NOC_TRAFFIC_PATTERNS
    for traffic in NOC_TRAFFIC_PATTERNS:
        d.run_spec("noc-congestion-burst", noc("xy", traffic))
    assert set(PATTERN_EXAMPLES) == set(_PATTERN_KINDS), sorted(_PATTERN_KINDS)
    for pattern in PATTERN_EXAMPLES.values():
        def edit(spec, pattern=pattern):
            spec.update(load=pattern, num_epochs=8, settle_epochs=4)
        d.run_spec("steady-baseline", edit)
    # A refused spec takes the one-line error path.
    d.run_spec("steady-baseline", lambda spec: spec.update(num_epochs="4"), status=1)


def drive_campaigns(d: Driver) -> None:
    plain = d.write("plain.json", json.dumps({
        "name": "plain",
        "scenarios": ["steady-baseline", "pe-fault-transient", "threshold-under-burst"],
        "configurations": ["A", "B"],
        "schemes": ["xy-shift", "rotation"],
    }))
    wide = d.write("wide.json", json.dumps({
        "name": "wide",
        "description": "every axis",
        "scenarios": [
            "adaptive-diurnal",
            {"name": "inline", "configuration": "C", "num_epochs": 8,
             "load": PATTERN_EXAMPLES["burst"]},
        ],
        "schemes": ["adaptive", "xy-shift"],
        "feedback_strides": [1, 4],
        "thermal_methods": ["euler", "spectral"],
        "migration_styles": ["sudden", "fluid"],
    }))
    streamed = d.write("streamed.json", json.dumps({
        "name": "streamed",
        "scenarios": ["diurnal-load", "ambient-swing-transient"],
        "stream_windows": [8, 5],
    }))
    cache = d.path("cache")
    d.run("--trace", d.path("campaign.trace.json"), "-v", "campaign", "run",
          "-S", plain, "-d", d.path("campaigns/plain"), "--n-jobs", "2")
    d.run("campaign", "run", "-S", plain, "-d", d.path("campaigns/plain"))
    d.run("campaign", "run", "-S", wide, "-d", d.path("campaigns/wide"), "--dry-run")
    d.run("campaign", "run", "-S", wide, "-d", d.path("campaigns/wide"), "--cache", cache)
    d.run("--csv", "campaign", "run", "-S", wide, "-d", d.path("campaigns/wide-2"),
          "--cache", cache)
    d.run("--csv", "campaign", "run", "-S", wide, "-d", d.path("campaigns/wide-3"),
          "--dry-run")
    d.run("campaign", "run", "-S", streamed, "-d", d.path("campaigns/streamed"))
    d.run("campaign", "list", "--root", d.path("campaigns"))
    d.run("campaign", "status", "-d", d.path("campaigns/wide"))
    d.run("campaign", "report", "-d", d.path("campaigns/wide"))
    d.run("--csv", "campaign", "report", "-d", d.path("campaigns/streamed"))
    d.run("campaign", "run", "-S", d.write("bad.json", "[]"),
          "-d", d.path("campaigns/bad"), status=1)
    d.run("obs", "validate", d.path("campaign.trace.json"))
    d.run("obs", "summary", d.path("campaign.trace.json"))
    d.run("--csv", "obs", "summary", d.path("campaigns/plain/report.json"))


def drive_streams(d: Driver) -> None:
    from repro.chips import get_configuration

    units = get_configuration("A").topology.num_nodes
    d.run("--trace", d.path("serve.trace.json"), "serve", "diurnal-load", "--window", "8",
          "--checkpoint", d.path("serve"))
    d.run("serve", "diurnal-load", "--window", "8", "--checkpoint", d.path("serve"))
    d.run("obs", "summary", d.path("serve.trace.json"))
    # A fluid plan cut mid-flight by --max-epochs, then resumed.
    d.run("serve", "fluid-under-burst", "--window", "4", "--max-epochs", "6",
          "--checkpoint", d.path("staged"))
    d.run("serve", "fluid-under-burst", "--window", "4", "--checkpoint", d.path("staged"))
    d.run("serve", "period-schedule-diurnal", "--window", "8",
          "--migration-style", "batched", "--migration-units-per-epoch", "3")
    d.run("serve", "snr-fade", "--window", "16")
    # More windows than the journal keeps: its saves compact.
    many = d.write("many.jsonl", windows(70, 1, units))
    d.run("serve", "--input", many, "-c", "A", "-s", "xy-shift",
          "--checkpoint", d.path("many"))
    d.run("serve", "--input", many, "-c", "A", "-s", "xy-shift",
          "--checkpoint", d.path("many"))
    # Transient adaptive and threshold streams, checkpointed and resumed.
    few = d.write("few.jsonl", windows(4, 4, units))
    for scheme, extra in (("adaptive", ()), ("threshold-xy-shift", ("--trigger", "60"))):
        for _ in range(2):
            d.run("serve", "--input", few, "-c", "A", "-s", scheme, "--mode", "transient",
                  "--migration-style", "fluid", *extra,
                  "--checkpoint", d.path(f"serve-{scheme}"))
    # An input cut short by --max-epochs mid-window.
    d.run("serve", "--input", few, "-c", "A", "--max-epochs", "6")
    # A stream killed after its third window, then resumed on an input that
    # ends there: nothing is left to step, so the settled regime is computed
    # at finalize.
    d.run("serve", "--input", few, "-c", "A", "--checkpoint", d.path("killed"))
    journal = Path(d.path("killed")) / "checkpoints.jsonl"
    journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:-1]))
    shorter = d.write("shorter.jsonl", "".join(Path(few).read_text().splitlines(True)[:3]))
    d.run("serve", "--input", shorter, "-c", "A", "--checkpoint", d.path("killed"))
    d.run("serve", "--input", d.write("empty.jsonl", ""), "-c", "A", status=1)
    d.run("serve", "--input", d.write("bad.jsonl", '{"num_epochs": 2.5}\n'), "-c", "A",
          status=1)


def drive_pickle() -> None:
    from repro.chips import get_configuration

    chip = get_configuration("A")
    pickle.loads(pickle.dumps(chip))


def drive_examples() -> None:
    for example in sorted(EXAMPLES.glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


# ----------------------------------------------------------------------
def main() -> int:
    global _spill
    functions = inventory()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        work = Path(tmp)
        _spill = work / "spill"
        _spill.mkdir()
        threading.setprofile(_profile)
        sys.setprofile(_profile)
        try:
            driver = Driver(work)
            drive_paper_commands(driver)
            drive_scenarios(driver)
            drive_campaigns(driver)
            drive_streams(driver)
            drive_pickle()
            drive_examples()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        entered = _entered_keys()

    unreached = sorted(
        (name, key) for key, name in functions.items() if key not in entered
    )
    unlisted = [(name, key) for name, key in unreached if not covering_entry(name)]
    covered = {covering_entry(name) for name, _ in unreached} - {""}
    reached_entries = sorted(
        {covering_entry(name) for key, name in functions.items() if key in entered}
        - {""}
    )
    unknown = sorted(
        entry
        for entry in ALLOWLIST
        if not any(covering_entry(name) == entry for name in functions.values())
    )
    print(
        f"{len(functions)} functions under src/repro: {len(functions) - len(unreached)} "
        f"entered, {len(unreached) - len(unlisted)} unentered under "
        f"{len(covered)} allowlist entries"
    )
    for name, (filename, first, _) in unlisted:
        where = Path(filename).relative_to(ROOT)
        print(f"unreached: {name} ({where}:{first})")
    for entry in reached_entries:
        print(f"allowlisted but entered: {entry}")
    for entry in unknown:
        print(f"allowlisted but not in src/repro: {entry}")
    return 1 if unlisted or reached_entries or unknown else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
