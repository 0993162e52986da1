"""Nestable spans and Chrome-trace-event export.

``span("thermal.steady_batch", rows=R)`` is a context manager that, while
tracing is enabled, records one **complete event** ("ph": "X" in the Chrome
trace-event format): wall-clock begin, duration, process id, thread id and
the caller's attributes.  Spans nest per thread — a thread-local stack tags
each event with its parent span's name — and carry the process and native
thread ids, so a sharded campaign renders as parallel tracks (one per worker
process) in Perfetto / ``chrome://tracing``.

Timebase: all timestamps are **wall-clock epoch microseconds**, derived from
one ``(time.time, perf_counter)`` anchor captured at import.  Every process
anchors against the same system clock, so events collected in worker processes
and merged into the parent tracer (see :mod:`repro.campaign.executor`) land
on a common timeline.

While tracing is disabled, ``span(...)`` constructs one small object and
takes a single branch on enter/exit — no clock reads, no stack touch, no
event allocation.

:func:`export_chrome_trace` writes ``{"traceEvents": [...]}`` JSON (plus
process/thread metadata events and, optionally, an embedded ``telemetry``
summary — extra top-level keys are explicitly allowed by the trace-event
spec and ignored by viewers).  :func:`validate_chrome_trace` is the schema
check CI runs against every emitted file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Category stamped on every span event.
DEFAULT_CATEGORY = "repro"

# One wall/perf anchor per process: ts = anchor_wall + (perf_now - anchor_perf).
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def now_us() -> float:
    """Current wall-clock time in epoch microseconds (monotonic within a process)."""
    return (_ANCHOR_WALL + (time.perf_counter() - _ANCHOR_PERF)) * 1e6


@dataclass
class SpanEvent:
    """One completed span, ready to serialise as a Chrome "X" event."""

    name: str
    ts_us: float
    dur_us: float
    pid: int
    tid: int
    args: Optional[Dict[str, object]] = None
    cat: str = DEFAULT_CATEGORY

    def to_chrome(self) -> Dict[str, object]:
        event: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": round(self.ts_us, 3),
            "dur": round(self.dur_us, 3),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
            "cat": self.cat,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanEvent":
        return cls(
            name=payload["name"],  # type: ignore[arg-type]
            ts_us=float(payload["ts_us"]),  # type: ignore[arg-type]
            dur_us=float(payload["dur_us"]),  # type: ignore[arg-type]
            pid=int(payload["pid"]),  # type: ignore[arg-type]
            tid=int(payload["tid"]),  # type: ignore[arg-type]
            args=payload.get("args"),  # type: ignore[arg-type]
            cat=str(payload.get("cat", DEFAULT_CATEGORY)),
        )


class Tracer:
    """Append-only, thread-safe buffer of completed span events."""

    def __init__(self):
        self._events: List[SpanEvent] = []
        self._lock = threading.Lock()

    def add(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def add_serialized(self, payloads: List[Dict[str, object]]) -> None:
        """Merge events collected in another process (journal/worker meta)."""
        for payload in payloads:
            self.add(SpanEvent.from_dict(payload))

    def events(self) -> List[SpanEvent]:
        with self._lock:
            return list(self._events)

    def mark(self) -> int:
        """Current event count, for :meth:`events_since`."""
        with self._lock:
            return len(self._events)

    def events_since(self, mark: int) -> List[SpanEvent]:
        with self._lock:
            return list(self._events[mark:])

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


_TRACER = Tracer()
_ENABLED = False
_LOCAL = threading.local()


def get_tracer() -> Tracer:
    return _TRACER


def start_tracing(clear: bool = False) -> None:
    """Begin recording spans into the process tracer."""
    global _ENABLED
    if clear:
        _TRACER.clear()
    _ENABLED = True


def stop_tracing() -> None:
    global _ENABLED
    _ENABLED = False


def _span_stack() -> List[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class span:
    """Record a named span around the body; a two-branch no-op when disabled.

    Keyword arguments become the event's ``args`` (must be JSON-serialisable;
    keep them scalar).  Nested spans gain a ``parent`` attribute naming the
    enclosing span on the same thread.
    """

    __slots__ = ("name", "args", "_ts", "_active")

    def __init__(self, name: str, **args: object):
        self.name = name
        self.args: Dict[str, object] = args
        self._active = False

    def __enter__(self) -> "span":
        if not _ENABLED:
            return self
        self._active = True
        stack = _span_stack()
        if stack:
            self.args.setdefault("parent", stack[-1])
        stack.append(self.name)
        self._ts = now_us()
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._active:
            return None
        self._active = False
        _span_stack().pop()
        _TRACER.add(
            SpanEvent(
                name=self.name,
                ts_us=self._ts,
                dur_us=now_us() - self._ts,
                pid=os.getpid(),
                tid=threading.get_native_id(),
                args=self.args or None,
            )
        )
        return None


# ----------------------------------------------------------------------
# Chrome trace-event export / validation
# ----------------------------------------------------------------------
def chrome_trace_payload(
    events: Optional[List[SpanEvent]] = None,
    telemetry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON-ready trace document for a list of span events.

    Metadata ("M") events name each process and thread so Perfetto labels
    the tracks; distinct worker pids/tids therefore render as distinct
    parallel tracks.
    """
    if events is None:
        events = _TRACER.events()
    trace_events: List[Dict[str, object]] = []
    seen_pids: Dict[int, None] = {}
    seen_tids: Dict[tuple, None] = {}
    for event in events:
        if event.pid not in seen_pids:
            seen_pids[event.pid] = None
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": event.pid,
                    "tid": 0,
                    "args": {"name": f"repro[{event.pid}]"},
                }
            )
        key = (event.pid, event.tid)
        if key not in seen_tids:
            seen_tids[key] = None
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": event.pid,
                    "tid": event.tid,
                    "args": {"name": f"worker-{event.tid}"},
                }
            )
    trace_events.extend(event.to_chrome() for event in events)
    payload: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs", "events": len(events)},
    }
    if telemetry:
        payload["telemetry"] = telemetry
    return payload


def export_chrome_trace(
    path: Union[str, Path],
    events: Optional[List[SpanEvent]] = None,
    telemetry: Optional[Dict[str, object]] = None,
) -> int:
    """Write the trace (and optional telemetry summary) to ``path``.

    Returns the number of span events exported.
    """
    payload = chrome_trace_payload(events=events, telemetry=telemetry)
    Path(path).write_text(
        json.dumps(payload, allow_nan=False) + "\n", encoding="utf-8"
    )
    return int(payload["otherData"]["events"])  # type: ignore[index,call-overload]


#: Event fields required per phase type we emit.
_REQUIRED_BY_PHASE = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(source: Union[str, Path, Dict[str, object]]) -> List[str]:
    """Schema-check a Chrome trace-event document; returns error strings.

    Accepts a path or an already-parsed payload.  Checks the JSON-object
    container format: a ``traceEvents`` list whose entries carry the fields
    the trace-event spec requires for their phase, numeric non-negative
    timestamps/durations, and integer pid/tid.
    """
    if isinstance(source, (str, Path)):
        try:
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            return [f"cannot read trace: {error}"]
    else:
        payload = source
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _REQUIRED_BY_PHASE:
            errors.append(f"{where}: unsupported phase {phase!r}")
            continue
        for key in _REQUIRED_BY_PHASE[phase]:
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        for key in ("ts", "dur"):
            if key in event:
                value = event[key]
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{where}: {key} must be a non-negative number")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                errors.append(f"{where}: {key} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors
