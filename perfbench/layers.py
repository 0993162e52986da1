"""Host time attributed to the program's layers, measured from outside it.

Each layer is a set of public callables of the ``repro`` package.
:meth:`LayerTracer.install` rebinds every one of them -- on its class, or in
every loaded ``repro`` module that imported it -- to a wrapper that records a
span around the call.  A layer's self time is its spans' duration minus the
time covered by spans nested inside them; the wall time no span covers is
``other``.  :meth:`LayerTracer.uninstall` restores the originals, so untraced
rounds run the unmodified program.

A few layers also read counters the program already keeps (migration-cost
cache hits, feedback refreshes, thermal solver counts, checkpoint sizes,
result-cache hits); those reads happen inside the layer's own span.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps
from typing import Callable, Dict, List, Tuple

#: (layer, callables) -- each callable is "module:function" or
#: "module:Class.method".  The order is the table's row order.
LAYER_TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("noc", (
        "repro.migration.plan:congestion_factor",
        "repro.scenarios.noc_cost:rate_noc_latencies",
    )),
    ("migration", (
        "repro.core.controller:RuntimeReconfigurationController.apply_migration",
        "repro.core.controller:RuntimeReconfigurationController.begin_plan",
        "repro.core.controller:RuntimeReconfigurationController.advance_plan",
    )),
    ("power", (
        "repro.core.controller:RuntimeReconfigurationController.epoch_power_vector",
    )),
    ("core.metrics", ("repro.core.metrics:ThermalMetrics.from_vector",)),
    ("core.experiment", (
        "repro.core.experiment:ThermalExperiment.__init__",
        "repro.core.experiment:ThermalExperiment.prepare",
        "repro.core.experiment:ThermalExperiment.step_window",
        "repro.core.experiment:ThermalExperiment.finalize",
    )),
    # Expanded at install time to every policy class that defines decide().
    ("core.policy", ("repro.core.policy:ReconfigurationPolicy.decide",)),
    ("core.feedback", ("repro.core.experiment:FeedbackPlan.thermal_for",)),
    ("thermal", (
        "repro.thermal.hotspot:HotSpotModel.steady_temperatures",
        "repro.thermal.hotspot:HotSpotModel.transient_sequence",
        "repro.thermal.hotspot:HotSpotModel.warm_state",
        "repro.thermal.hotspot:HotSpotModel.unit_series",
    )),
    ("scenarios.compile", (
        "repro.scenarios.compile:compile_scenario",
        "repro.scenarios.compile:compile_window",
    )),
    ("ldpc", ("repro.scenarios.compile:decoder_effort",)),
    ("stream.window", ("repro.stream.window:EpochWindow.from_json_line",)),
    ("stream.checkpoint", ("repro.stream.checkpoint:CheckpointStore.save",)),
    ("stream.summary", (
        "repro.stream.summary:RollingSummary.observe_window",
        "repro.stream.summary:RollingSummary.observe_decoder",
        "repro.stream.summary:RollingSummary.observe_noc",
        "repro.stream.summary:RollingSummary.snapshot",
    )),
    ("campaign.cache", (
        "repro.campaign.cache:ResultCache.get",
        "repro.campaign.cache:ResultCache.put",
    )),
    ("campaign.manifest", (
        "repro.campaign.manifest:append_journal_entry",
        "repro.campaign.manifest:replay_journal",
        "repro.campaign.manifest:write_report",
    )),
    ("campaign.executor", ("repro.campaign.executor:run_campaign",)),
)

LAYERS: Tuple[str, ...] = tuple(layer for layer, _ in LAYER_TARGETS)

#: Counters read at layer boundaries (raw totals; ratios are derived).
COUNTERS: Tuple[str, ...] = (
    "migration.cache_hits",
    "migration.cache_misses",
    "core.feedback.refreshes",
    "core.feedback.decisions",
    "thermal.steady_solves",
    "thermal.transient_sequences",
    "thermal.spectral_jumps",
    "stream.checkpoint.appended_bytes",
    "stream.checkpoint.appends",
    "campaign.cache.gets",
    "campaign.cache.hits",
)

#: Units of the per-round figures :meth:`LayerTracer.derived_counters` gives.
DERIVED_UNITS: Dict[str, str] = {
    "migration.cache_hit_ratio": "ratio",
    "core.feedback.refresh_ratio": "ratio",
    "thermal.steady_solves": "count",
    "thermal.transient_sequences": "count",
    "thermal.spectral_jumps": "count",
    "stream.checkpoint.bytes": "bytes",
    "campaign.cache.hit_ratio": "ratio",
}

Hook = Tuple[Callable, Callable]


def _solver_hook(*fields: Tuple[str, str]) -> Callable[["LayerTracer"], Hook]:
    """Counts ``ThermalSolver`` counter increments across one model call."""

    def make(tracer: "LayerTracer") -> Hook:
        counters = tracer.counters

        def before(args):
            solver = args[0].solver
            return [getattr(solver, attr) for attr, _ in fields]

        def after(args, token, result):
            solver = args[0].solver
            for (attr, name), start in zip(fields, token):
                counters[name] += getattr(solver, attr) - start

        return before, after

    return make


def _migration_hook(tracer: "LayerTracer") -> Hook:
    counters = tracer.counters

    def before(args):
        controller = args[0]
        return controller.migration_cache_hits, controller.migration_cost_computations

    def after(args, token, result):
        controller = args[0]
        counters["migration.cache_hits"] += controller.migration_cache_hits - token[0]
        counters["migration.cache_misses"] += (
            controller.migration_cost_computations - token[1]
        )

    return before, after


def _feedback_hook(tracer: "LayerTracer") -> Hook:
    counters = tracer.counters

    def before(args):
        return args[0].batch_solves

    def after(args, token, result):
        counters["core.feedback.decisions"] += 1
        counters["core.feedback.refreshes"] += args[0].batch_solves - token

    return before, after


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _checkpoint_hook(tracer: "LayerTracer") -> Hook:
    """Checkpoint size from the journal's growth; compacting saves shrink it."""
    counters = tracer.counters

    def before(args):
        return _file_size(args[0].path)

    def after(args, token, result):
        grown = _file_size(args[0].path) - token
        if grown > 0:
            counters["stream.checkpoint.appended_bytes"] += grown
            counters["stream.checkpoint.appends"] += 1

    return before, after


def _cache_get_hook(tracer: "LayerTracer") -> Hook:
    counters = tracer.counters

    def before(args):
        return None

    def after(args, token, result):
        counters["campaign.cache.gets"] += 1
        if result is not None:
            counters["campaign.cache.hits"] += 1

    return before, after


_HOOKS: Dict[str, Callable[["LayerTracer"], Hook]] = {
    "repro.core.controller:RuntimeReconfigurationController.apply_migration": _migration_hook,
    "repro.core.experiment:FeedbackPlan.thermal_for": _feedback_hook,
    "repro.thermal.hotspot:HotSpotModel.steady_temperatures": _solver_hook(
        ("steady_solve_count", "thermal.steady_solves"),
    ),
    "repro.thermal.hotspot:HotSpotModel.warm_state": _solver_hook(
        ("steady_solve_count", "thermal.steady_solves"),
    ),
    "repro.thermal.hotspot:HotSpotModel.transient_sequence": _solver_hook(
        ("transient_sequence_count", "thermal.transient_sequences"),
        ("spectral_jump_count", "thermal.spectral_jumps"),
    ),
    "repro.stream.checkpoint:CheckpointStore.save": _checkpoint_hook,
    "repro.campaign.cache:ResultCache.get": _cache_get_hook,
}


def _with_hook(fn: Callable, hook: Hook) -> Callable:
    before, after = hook

    @wraps(fn)
    def hooked(*args, **kwargs):
        token = before(args)
        result = fn(*args, **kwargs)
        after(args, token, result)
        return result

    return hooked


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class LayerTracer:
    """Per-layer self time, call counts and boundary counters."""

    def __init__(self) -> None:
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # Time covered by child spans of each open span; the bottom entry
        # accumulates the top-level spans' total duration.
        self._stack: List[int] = [0]
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _timed(self, index: int, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        @wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[index] += elapsed - stack.pop()
                calls[index] += 1
                stack[-1] += elapsed

        return timed

    def _wrapper(self, index: int, target: str, fn: Callable) -> Callable:
        make_hook = _HOOKS.get(target)
        if make_hook is not None:
            fn = _with_hook(fn, make_hook(self))
        return self._timed(index, fn)

    def install(self) -> None:
        """Rebind every target callable to its timed wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for index, (_layer, targets) in enumerate(LAYER_TARGETS):
            for target in targets:
                module_name, qualified = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualified:
                    class_name, method = qualified.split(".")
                    base = getattr(module, class_name)
                    owners = [
                        cls for cls in _subclasses(base) if method in cls.__dict__
                    ]
                    for cls in owners:
                        raw = cls.__dict__[method]
                        if isinstance(raw, classmethod):
                            wrapped: object = classmethod(
                                self._wrapper(index, target, raw.__func__)
                            )
                        else:
                            wrapped = self._wrapper(index, target, raw)
                        self._restore.append((cls, method, raw))
                        setattr(cls, method, wrapped)
                else:
                    original = getattr(module, qualified)
                    wrapped = self._wrapper(index, target, original)
                    for loaded in modules:
                        for attr, value in list(vars(loaded).items()):
                            if value is original:
                                self._restore.append((loaded, attr, original))
                                setattr(loaded, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layer_table(self, wall_ns: int, rounds: int) -> List[Dict[str, object]]:
        """Rows of (layer, self ms per round, share of wall, calls per round)."""
        rows = []
        for index, layer in enumerate(LAYERS):
            rows.append(
                {
                    "layer": layer,
                    "self_ms": self.self_ns[index] / 1e6 / rounds,
                    "share": self.self_ns[index] / wall_ns if wall_ns else 0.0,
                    "calls": self.calls[index] / rounds,
                }
            )
        other = wall_ns - sum(self.self_ns)
        rows.append(
            {
                "layer": "other",
                "self_ms": other / 1e6 / rounds,
                "share": other / wall_ns if wall_ns else 0.0,
                "calls": 0.0,
            }
        )
        return rows

    def derived_counters(self, rounds: int) -> Dict[str, float]:
        """Per-round counts and ratios computed from the raw counters."""
        counts = self.counters

        def ratio(numerator: str, denominator: int) -> float:
            return counts[numerator] / denominator if denominator else 0.0

        return {
            "migration.cache_hit_ratio": ratio(
                "migration.cache_hits",
                counts["migration.cache_hits"] + counts["migration.cache_misses"],
            ),
            "core.feedback.refresh_ratio": ratio(
                "core.feedback.refreshes", counts["core.feedback.decisions"]
            ),
            "thermal.steady_solves": counts["thermal.steady_solves"] / rounds,
            "thermal.transient_sequences": counts["thermal.transient_sequences"] / rounds,
            "thermal.spectral_jumps": counts["thermal.spectral_jumps"] / rounds,
            "stream.checkpoint.bytes": ratio(
                "stream.checkpoint.appended_bytes", counts["stream.checkpoint.appends"]
            ),
            "campaign.cache.hit_ratio": ratio(
                "campaign.cache.hits", counts["campaign.cache.gets"]
            ),
        }
