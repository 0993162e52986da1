"""Span recording, nesting, Chrome-trace export and schema validation."""

from __future__ import annotations

import json
import os
import threading

from repro import obs
from repro.obs import (
    SpanEvent,
    chrome_trace_payload,
    export_chrome_trace,
    now_us,
    validate_chrome_trace,
)


class TestSpanRecording:
    def test_disabled_span_records_nothing(self):
        with obs.span("test.trace.dark", attr=1):
            pass
        assert obs.get_tracer().events() == []

    def test_span_records_one_event(self, enabled):
        with obs.span("test.trace.one", rows=16):
            pass
        events = obs.get_tracer().events()
        assert len(events) == 1
        event = events[0]
        assert event.name == "test.trace.one"
        assert event.args == {"rows": 16}
        assert event.pid == os.getpid()
        assert event.tid == threading.get_native_id()
        assert event.dur_us >= 0.0

    def test_nested_span_gets_parent_attribute(self, enabled):
        with obs.span("test.trace.outer"):
            with obs.span("test.trace.inner"):
                pass
        with obs.span("test.trace.after"):
            pass
        by_name = {event.name: event for event in obs.get_tracer().events()}
        assert by_name["test.trace.inner"].args == {"parent": "test.trace.outer"}
        assert by_name["test.trace.outer"].args is None
        assert by_name["test.trace.after"].args is None

    def test_span_survives_exception(self, enabled):
        try:
            with obs.span("test.trace.raises"):
                raise ValueError("boom")
        except ValueError:
            pass
        with obs.span("test.trace.after"):
            pass
        events = obs.get_tracer().events()
        assert [e.name for e in events] == ["test.trace.raises", "test.trace.after"]
        assert events[1].args is None

    def test_span_args_mutable_until_exit(self, enabled):
        with obs.span("test.trace.late") as active:
            active.args["cycles"] = 42
        (event,) = obs.get_tracer().events()
        assert event.args["cycles"] == 42

    def test_timestamps_are_epoch_microseconds(self, enabled):
        before = now_us()
        with obs.span("test.trace.clock"):
            pass
        (event,) = obs.get_tracer().events()
        assert before <= event.ts_us <= now_us()
        # Epoch microseconds: the year is > 2020 in any sane environment.
        assert event.ts_us > 1.5e15


class TestTracerBuffer:
    def test_mark_and_events_since(self, enabled):
        with obs.span("test.trace.a"):
            pass
        mark = obs.get_tracer().mark()
        with obs.span("test.trace.b"):
            pass
        fresh = obs.get_tracer().events_since(mark)
        assert [e.name for e in fresh] == ["test.trace.b"]

    def test_serialized_round_trip(self, enabled):
        with obs.span("test.trace.rt", k=1):
            pass
        (event,) = obs.get_tracer().events()
        clone = SpanEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event

    def test_add_serialized_merges_foreign_events(self, enabled):
        payload = {
            "name": "worker.span",
            "ts_us": now_us(),
            "dur_us": 5.0,
            "pid": 99999,
            "tid": 7,
            "args": {"job": "j1"},
        }
        obs.get_tracer().add_serialized([payload])
        (event,) = obs.get_tracer().events()
        assert (event.pid, event.tid) == (99999, 7)

    def test_start_tracing_clear(self, enabled):
        with obs.span("test.trace.old"):
            pass
        obs.start_tracing(clear=True)
        assert obs.get_tracer().events() == []


class TestChromeExport:
    def test_payload_has_metadata_per_process_and_thread(self, enabled):
        with obs.span("test.trace.meta"):
            pass
        obs.get_tracer().add_serialized(
            [{"name": "worker.task", "ts_us": now_us(), "dur_us": 3.0, "pid": 4242, "tid": 11}]
        )
        payload = chrome_trace_payload()
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        process_names = [e for e in meta if e["name"] == "process_name"]
        thread_names = [e for e in meta if e["name"] == "thread_name"]
        assert {e["pid"] for e in process_names} == {os.getpid(), 4242}
        assert len(thread_names) == 2  # one per distinct (pid, tid)

    def test_export_writes_valid_json(self, enabled, tmp_path):
        with obs.span("test.trace.file", snr=3.5):
            pass
        path = tmp_path / "trace.json"
        count = export_chrome_trace(path, telemetry={"counters": {"x": 1}})
        assert count == 1
        document = json.loads(path.read_text())
        assert document["telemetry"] == {"counters": {"x": 1}}
        assert validate_chrome_trace(document) == []
        assert validate_chrome_trace(path) == []

    def test_export_without_events_is_still_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        assert export_chrome_trace(path) == 0
        assert validate_chrome_trace(path) == []


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"foo": 1}) == ["traceEvents must be a list"]

    def test_rejects_bad_phase_and_fields(self):
        errors = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Z"},
                    {"ph": "X", "name": "n", "cat": "c", "ts": -1.0,
                     "dur": 2.0, "pid": 1, "tid": "nope"},
                ]
            }
        )
        assert any("unsupported phase" in error for error in errors)
        assert any("ts must be a non-negative number" in error for error in errors)
        assert any("tid must be an integer" in error for error in errors)

    def test_reports_unreadable_path(self, tmp_path):
        errors = validate_chrome_trace(tmp_path / "missing.json")
        assert len(errors) == 1 and "cannot read trace" in errors[0]
