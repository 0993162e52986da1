"""Telemetry under concurrency: counters, scopes, span tracks.

The registry and tracer are process-wide singletons that any caller may
share across threads; these tests drive them from many threads at once and
demand exact totals (lost updates would show up as undercounts) and correct
per-thread attribution (scopes and span stacks are thread-local).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs


class TestConcurrentCounters:
    def test_no_lost_updates_across_threads(self, enabled):
        counter = obs.counter("test.thread.count")
        increments, workers = 2000, 8

        def hammer():
            for _ in range(increments):
                counter.add()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda _: hammer(), range(workers)))
        assert counter.value == increments * workers

    def test_timer_counts_are_exact(self, enabled):
        timer = obs.timer("test.thread.timer")
        records, workers = 500, 6

        def hammer():
            for _ in range(records):
                timer.record(0.001)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda _: hammer(), range(workers)))
        assert timer.count == records * workers
        assert abs(timer.total_s - 0.001 * records * workers) < 1e-6


class TestThreadLocalScopes:
    def test_concurrent_scopes_do_not_bleed(self, enabled):
        counter = obs.counter("test.thread.scope")
        registry = obs.get_registry()
        barrier = threading.Barrier(4)

        def job(amount):
            with registry.scoped() as scope:
                barrier.wait()  # every scope is open simultaneously
                for _ in range(amount):
                    counter.add()
            return scope.counters.get("test.thread.scope", 0)

        amounts = [10, 20, 30, 40]
        with ThreadPoolExecutor(max_workers=4) as pool:
            deltas = list(pool.map(job, amounts))
        assert deltas == amounts
        assert counter.value == sum(amounts)


class TestSpansFromPools:
    def test_span_stacks_are_per_thread(self, enabled):
        barrier = threading.Barrier(3)

        def job(index):
            with obs.span("outer", index=index):
                barrier.wait()
                with obs.span("inner", index=index):
                    pass
            return True

        with ThreadPoolExecutor(max_workers=3) as pool:
            assert all(pool.map(job, range(3)))
        events = obs.get_tracer().events()
        inner = [e for e in events if e.name == "inner"]
        assert len(events) == 6
        # Every inner span names "outer" as parent — never a sibling thread's.
        assert all(e.args["parent"] == "outer" for e in inner)
        assert len({e.tid for e in events}) == 3

    def test_pool_tasks_land_on_distinct_tracks(self, enabled):
        barrier = threading.Barrier(3)

        def job(index):
            if index < 3:
                barrier.wait()  # the first three tasks overlap in time
            with obs.span("test.thread.task", index=index):
                obs.counter("test.thread.pool").add()
            return index

        with ThreadPoolExecutor(max_workers=3) as pool:
            assert list(pool.map(job, range(6))) == list(range(6))
        assert obs.counter("test.thread.pool").value == 6
        spans = [
            e for e in obs.get_tracer().events() if e.name == "test.thread.task"
        ]
        assert sorted(e.args["index"] for e in spans) == list(range(6))
        assert len({e.tid for e in spans}) == 3  # one track per pool thread
