"""Process-wide telemetry registry: counters, gauges and timer statistics.

The registry is the metrics substrate every subsystem shares.  Hot paths
hold module-level instrument objects created at import time::

    from ..obs import counter
    _SOLVES = counter("thermal.steady_solves")
    ...
    _SOLVES.add()

and pay **one attribute load plus one branch** per call while telemetry is
disabled (the default) — no locks, no dict lookups, no allocation.  When
enabled (``repro --trace``, ``repro.obs.enable()``), increments take the
registry lock so concurrent threads never lose updates.

Three instrument kinds:

* :class:`Counter` — monotonically accumulating count (solves, cache hits,
  decoded blocks).
* :class:`Gauge` — last-written value (the stream engine's window lag).
* :class:`TimerStat` — aggregate of observed durations: count / total /
  min / max (and derived mean), recorded directly or via ``with t.time():``.

**Scopes** give callers per-task attribution without a second registry:
``with registry.scoped() as scope:`` pushes a *thread-local* collector, and
every counter increment and timer record made on that thread while the scope
is active is mirrored into it.  Scopes nest, are per-thread (so jobs on
concurrent threads do not bleed into each other's deltas), and their
:meth:`TelemetryScope.to_dict` is what gets attached to scenario results and
campaign journal entries.

A :class:`TelemetrySummary` snapshot is plain data (JSON round-trippable);
``repro obs summary`` renders one as a table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

Number = Union[int, float]


class Counter:
    """Monotonic named counter with a branch-only disabled path."""

    __slots__ = ("name", "_registry", "value")

    def __init__(self, name: str, registry: "TelemetryRegistry"):
        self.name = name
        self._registry = registry
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        registry = self._registry
        if not registry._enabled:
            return
        with registry._lock:
            self.value += amount
        for scope in registry._scope_stack():
            scope._count(self.name, amount)


class Gauge:
    """Last-written named value (not accumulated)."""

    __slots__ = ("name", "_registry", "value")

    def __init__(self, name: str, registry: "TelemetryRegistry"):
        self.name = name
        self._registry = registry
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        registry = self._registry
        if not registry._enabled:
            return
        with registry._lock:
            self.value = value


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "TimerStat"):
        self._timer = timer

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.record(time.perf_counter() - self._start)


class _NullContext:
    """Shared do-nothing context (the disabled path of ``TimerStat.time``)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class TimerStat:
    """Aggregate duration statistics: count, total, min, max (seconds)."""

    __slots__ = ("name", "_registry", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str, registry: "TelemetryRegistry"):
        self.name = name
        self._registry = registry
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        registry = self._registry
        if not registry._enabled:
            return
        with registry._lock:
            self.count += 1
            self.total_s += seconds
            if seconds < self.min_s:
                self.min_s = seconds
            if seconds > self.max_s:
                self.max_s = seconds
        for scope in registry._scope_stack():
            scope._time(self.name, seconds)

    def time(self):
        """Context manager timing its body (no-op while disabled)."""
        if not self._registry._enabled:
            return _NULL_CONTEXT
        return _TimerContext(self)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
        }


class TelemetryScope:
    """Thread-local per-task collector of counter and timer deltas."""

    __slots__ = ("counters", "timers")

    def __init__(self):
        self.counters: Dict[str, Number] = {}
        self.timers: Dict[str, Dict[str, float]] = {}

    def _count(self, name: str, amount: Number) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _time(self, name: str, seconds: float) -> None:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = {
                "count": 0,
                "total_s": 0.0,
                "min_s": float("inf"),
                "max_s": 0.0,
            }
        stats["count"] += 1
        stats["total_s"] += seconds
        stats["min_s"] = min(stats["min_s"], seconds)
        stats["max_s"] = max(stats["max_s"], seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "timers": {name: dict(stats) for name, stats in self.timers.items()},
        }


class _ScopeContext:
    __slots__ = ("_registry", "_scope")

    def __init__(self, registry: "TelemetryRegistry"):
        self._registry = registry
        self._scope = TelemetryScope()

    def __enter__(self) -> TelemetryScope:
        self._registry._push_scope(self._scope)
        return self._scope

    def __exit__(self, *exc_info) -> None:
        self._registry._pop_scope(self._scope)


@dataclass
class TelemetrySummary:
    """A point-in-time snapshot of a registry — plain, JSON-exact data."""

    counters: Dict[str, Number] = field(default_factory=dict)
    gauges: Dict[str, Number] = field(default_factory=dict)
    timers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: dict(stats) for name, stats in self.timers.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TelemetrySummary":
        return cls(
            counters=dict(payload.get("counters", {})),  # type: ignore[arg-type]
            gauges=dict(payload.get("gauges", {})),  # type: ignore[arg-type]
            timers={
                name: dict(stats)
                for name, stats in payload.get("timers", {}).items()  # type: ignore[union-attr]
            },
        )

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.timers)

    def to_rows(self) -> List[Dict[str, object]]:
        """Uniform table rows (one per instrument) for ``format_rows``."""
        rows: List[Dict[str, object]] = []
        for name in sorted(self.counters):
            rows.append(
                {
                    "name": name,
                    "kind": "counter",
                    "value": self.counters[name],
                    "total_s": "-",
                    "mean_s": "-",
                    "max_s": "-",
                }
            )
        for name in sorted(self.gauges):
            rows.append(
                {
                    "name": name,
                    "kind": "gauge",
                    "value": self.gauges[name],
                    "total_s": "-",
                    "mean_s": "-",
                    "max_s": "-",
                }
            )
        for name in sorted(self.timers):
            stats = self.timers[name]
            count = stats.get("count", 0)
            total = stats.get("total_s", 0.0)
            rows.append(
                {
                    "name": name,
                    "kind": "timer",
                    "value": count,
                    "total_s": round(total, 6),
                    "mean_s": round(total / count, 6) if count else 0.0,
                    "max_s": round(stats.get("max_s", 0.0), 6),
                }
            )
        return rows


class TelemetryRegistry:
    """Named instruments plus the process-wide enabled flag.

    Instruments are created once (get-or-create by name) and cached by their
    call sites; the registry survives ``reset()`` (values zero, identities
    stable) so module-level instrument references never go stale.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, self)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, self)
            return instrument

    def timer(self, name: str) -> TimerStat:
        with self._lock:
            instrument = self._timers.get(name)
            if instrument is None:
                instrument = self._timers[name] = TimerStat(name, self)
            return instrument

    # ------------------------------------------------------------------
    def _scope_stack(self) -> List[TelemetryScope]:
        return getattr(self._local, "scopes", None) or ()  # type: ignore[return-value]

    def _push_scope(self, scope: TelemetryScope) -> None:
        stack = getattr(self._local, "scopes", None)
        if stack is None:
            stack = self._local.scopes = []
        stack.append(scope)

    def _pop_scope(self, scope: TelemetryScope) -> None:
        stack = getattr(self._local, "scopes", None)
        if stack and stack[-1] is scope:
            stack.pop()
        elif stack and scope in stack:  # pragma: no cover - defensive
            stack.remove(scope)

    def scoped(self) -> _ScopeContext:
        """Collect this thread's counter/timer deltas while the body runs."""
        return _ScopeContext(self)

    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySummary:
        with self._lock:
            counters = {
                name: c.value for name, c in self._counters.items() if c.value
            }
            gauges = {
                name: g.value
                for name, g in self._gauges.items()
                if g.value is not None
            }
            timers = {
                name: t.stats() for name, t in self._timers.items() if t.count
            }
        return TelemetrySummary(counters=counters, gauges=gauges, timers=timers)

    def reset(self) -> None:
        """Zero every instrument (identities are preserved)."""
        with self._lock:
            for c in self._counters.values():
                c.value = 0
            for g in self._gauges.values():
                g.value = None
            for t in self._timers.values():
                t.count = 0
                t.total_s = 0.0
                t.min_s = float("inf")
                t.max_s = 0.0


# ----------------------------------------------------------------------
# Process-wide default registry and conveniences
# ----------------------------------------------------------------------
_REGISTRY = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def timer(name: str) -> TimerStat:
    return _REGISTRY.timer(name)


def enabled() -> bool:
    return _REGISTRY._enabled


def enable() -> None:
    _REGISTRY.enable()


def disable() -> None:
    _REGISTRY.disable()
