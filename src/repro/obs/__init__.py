"""Unified telemetry layer: counters, spans, structured logging.

Three small modules, no dependencies on the rest of the package (every
subsystem imports *this*, never the other way around):

* :mod:`repro.obs.core` — the process-wide :class:`TelemetryRegistry` of
  named counters, gauges and timer statistics, with a branch-only no-op
  path while disabled (the default) and thread-local *scopes* for per-task
  deltas;
* :mod:`repro.obs.trace` — nestable :class:`span` context managers that
  record wall time + attributes per (process, thread) and export
  Chrome-trace-event JSON viewable in Perfetto;
* :mod:`repro.obs.log` — the ``repro.*`` logger hierarchy behind the CLI's
  ``-v`` / ``-q`` flags.

Telemetry is **off by default** and costs one branch per instrument call;
``repro --trace FILE <command>`` (or :func:`enable` + :func:`start_tracing`)
turns the whole layer on.  See ``docs/observability.md`` for the span and
counter taxonomy.
"""

from .core import (
    Counter,
    Gauge,
    TelemetryRegistry,
    TelemetryScope,
    TelemetrySummary,
    TimerStat,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_registry,
    timer,
)
from .log import (
    ROOT_LOGGER_NAME,
    configure_logging,
    get_logger,
    level_for_verbosity,
)
from .trace import (
    SpanEvent,
    Tracer,
    chrome_trace_payload,
    export_chrome_trace,
    get_tracer,
    now_us,
    span,
    start_tracing,
    stop_tracing,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "TelemetryRegistry",
    "TelemetryScope",
    "TelemetrySummary",
    "TimerStat",
    "counter",
    "gauge",
    "timer",
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "ROOT_LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "level_for_verbosity",
    "SpanEvent",
    "Tracer",
    "span",
    "now_us",
    "start_tracing",
    "stop_tracing",
    "get_tracer",
    "chrome_trace_payload",
    "export_chrome_trace",
    "validate_chrome_trace",
]
