"""Registry semantics: instruments, snapshots, scopes, disabled no-ops."""

from __future__ import annotations


from repro import obs
from repro.obs import TelemetryRegistry, TelemetrySummary


class TestDisabledPath:
    def test_counter_add_is_a_noop(self):
        counter = obs.counter("test.core.noop")
        counter.add()
        counter.add(41)
        assert counter.value == 0
        assert obs.get_registry().snapshot().empty

    def test_gauge_set_is_a_noop(self):
        gauge = obs.gauge("test.core.noop_gauge")
        gauge.set(7)
        assert gauge.value is None

    def test_timer_record_is_a_noop(self):
        timer = obs.timer("test.core.noop_timer")
        timer.record(1.5)
        assert timer.count == 0
        assert timer.total_s == 0.0


class TestEnabledInstruments:
    def test_counter_accumulates(self, enabled):
        counter = obs.counter("test.core.count")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_gauge_keeps_last_value(self, enabled):
        gauge = obs.gauge("test.core.gauge")
        gauge.set(3)
        gauge.set(9)
        assert gauge.value == 9

    def test_timer_aggregates_stats(self, enabled):
        timer = obs.timer("test.core.timer")
        timer.record(0.2)
        timer.record(0.4)
        stats = timer.stats()
        assert stats["count"] == 2
        assert abs(stats["total_s"] - 0.6) < 1e-12
        assert abs(stats["mean_s"] - 0.3) < 1e-12
        assert stats["min_s"] == 0.2
        assert stats["max_s"] == 0.4

    def test_instruments_are_get_or_create(self):
        assert obs.counter("test.core.same") is obs.counter("test.core.same")
        assert obs.timer("test.core.same") is obs.timer("test.core.same")
        assert obs.gauge("test.core.same") is obs.gauge("test.core.same")


class TestSnapshotAndReset:
    def test_snapshot_filters_untouched_instruments(self, enabled):
        obs.counter("test.core.zero")
        obs.timer("test.core.zero")
        obs.gauge("test.core.zero")
        obs.counter("test.core.hot").add(2)
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters == {"test.core.hot": 2}
        assert snapshot.gauges == {}
        assert snapshot.timers == {}

    def test_snapshot_round_trips_through_dict(self, enabled):
        obs.counter("test.core.rt").add(3)
        obs.gauge("test.core.rt").set(1.5)
        obs.timer("test.core.rt").record(0.25)
        snapshot = obs.get_registry().snapshot()
        clone = TelemetrySummary.from_dict(snapshot.to_dict())
        assert clone.to_dict() == snapshot.to_dict()
        assert not clone.empty

    def test_to_rows_covers_every_kind(self, enabled):
        obs.counter("test.core.rows").add(2)
        obs.gauge("test.core.rows").set(4)
        obs.timer("test.core.rows").record(0.5)
        rows = obs.get_registry().snapshot().to_rows()
        kinds = {row["kind"] for row in rows}
        assert kinds == {"counter", "gauge", "timer"}
        timer_row = next(row for row in rows if row["kind"] == "timer")
        assert timer_row["value"] == 1
        assert timer_row["total_s"] == 0.5

    def test_reset_zeroes_but_preserves_identity(self, enabled):
        counter = obs.counter("test.core.reset")
        counter.add(5)
        registry = obs.get_registry()
        registry.reset()
        assert counter.value == 0
        assert registry.counter("test.core.reset") is counter
        counter.add()
        assert counter.value == 1

    def test_empty_summary(self):
        assert TelemetrySummary().empty
        assert TelemetrySummary(counters={"a": 1}).empty is False


class TestScopes:
    def test_scope_collects_thread_deltas(self, enabled):
        counter = obs.counter("test.core.scope")
        timer = obs.timer("test.core.scope")
        counter.add(10)  # before the scope: must not leak in
        with obs.get_registry().scoped() as scope:
            counter.add(2)
            timer.record(0.1)
        assert scope.counters == {"test.core.scope": 2}
        assert scope.timers["test.core.scope"]["count"] == 1
        assert counter.value == 12  # registry still sees everything

    def test_scopes_nest(self, enabled):
        counter = obs.counter("test.core.nest")
        registry = obs.get_registry()
        with registry.scoped() as outer:
            counter.add()
            with registry.scoped() as inner:
                counter.add(5)
        assert inner.counters == {"test.core.nest": 5}
        assert outer.counters == {"test.core.nest": 6}

    def test_scope_to_dict_shape(self, enabled):
        with obs.get_registry().scoped() as scope:
            obs.counter("test.core.shape").add()
        payload = scope.to_dict()
        assert set(payload) == {"counters", "timers"}
        assert payload["counters"] == {"test.core.shape": 1}

    def test_disabled_scope_collects_nothing(self):
        with obs.get_registry().scoped() as scope:
            obs.counter("test.core.dark").add()
        assert scope.to_dict() == {"counters": {}, "timers": {}}


class TestRegistryIsolation:
    def test_private_registry_is_independent(self):
        private = TelemetryRegistry(enabled=True)
        private.counter("test.core.private").add(3)
        assert private.snapshot().counters == {"test.core.private": 3}
        assert obs.get_registry().snapshot().empty

    def test_enable_disable_toggle(self):
        registry = obs.get_registry()
        assert not registry.enabled
        obs.enable()
        assert registry.enabled and obs.enabled()
        obs.disable()
        assert not registry.enabled and not obs.enabled()
