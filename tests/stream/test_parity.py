"""Streaming-vs-batch parity: windowed streams reproduce whole-horizon runs.

The contract the streaming engine is built on: a stream capped at the batch
horizon produces the *same numbers* (< 1e-9, and in practice bit-identical)
as the one-shot batch run, for any window size — and a window sized to the
horizon costs exactly as many solves as the batch run.  The matrix below
crosses steady/transient modes, the block-level and grid thermal models, and
threshold/adaptive feedback policies.

Transient streams warm-start from the whole-trace average power; a mid-
stream engine cannot know the future trace, so exact parity requires the
batch warm vector passed in explicitly (``warm_power``) — that semantic
difference is itself pinned by ``test_transient_default_warm_start_differs``.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.scenarios.compile import compile_scenario, run_scenario
from repro.scenarios.patterns import DiurnalPattern, RampPattern
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.stream import StreamingExperiment, scenario_windows
from repro.thermal.hotspot import HotSpotModel


def _spec(name, **kwargs):
    defaults = dict(
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=12,
        settle_epochs=4,
        load=DiurnalPattern(mean=0.9, amplitude=0.2, period_epochs=8),
        ambient_celsius=RampPattern(start=0.0, end=2.0, end_epoch=10),
    )
    defaults.update(kwargs)
    return ScenarioSpec(name=name, **defaults)


def _grid_model(spec):
    chip = get_configuration(spec.configuration)
    return HotSpotModel(
        chip.topology,
        resolution=2,
        package=chip.thermal_model.package,
        floorplan=chip.thermal_model.floorplan,
    )


def _batch_warm_power(compiled, thermal_model=None):
    """The whole-trace average power the batch transient run warm-starts from.

    Replays the batch horizon through the public window API (so feedback
    policies see their ambient offsets) and averages the resulting trace.
    """
    probe = compiled.experiment(thermal_model=thermal_model)
    probe.prepare(total_epochs=compiled.spec.num_epochs)
    outcome = probe.step_window(compiled.window, is_last=True)
    return outcome.trace.average_vector()


def _stream(compiled, window_epochs, thermal_model=None, warm_power=None):
    engine = StreamingExperiment.from_scenario(
        compiled, thermal_model=thermal_model, warm_power=warm_power
    )
    for _update in engine.process(
        scenario_windows(
            compiled, window_epochs, max_epochs=compiled.spec.num_epochs
        )
    ):
        pass
    return engine


def _assert_parity(batch, streamed):
    assert streamed.baseline_peak_celsius == pytest.approx(
        batch.baseline_peak_celsius, abs=1e-9
    )
    assert streamed.settled_peak_celsius == pytest.approx(
        batch.settled_peak_celsius, abs=1e-9
    )
    assert streamed.settled_mean_celsius == pytest.approx(
        batch.settled_mean_celsius, abs=1e-9
    )
    assert streamed.peak_reduction_celsius == pytest.approx(
        batch.peak_reduction_celsius, abs=1e-9
    )
    assert streamed.migrations_performed == batch.migrations_performed
    assert streamed.throughput_penalty == pytest.approx(
        batch.throughput_penalty, abs=1e-12
    )


class TestSteadyParity:
    @pytest.mark.parametrize("window_epochs", [12, 5, 1])
    def test_threshold_hotspot(self, window_epochs):
        spec = _spec(
            "stream-threshold",
            scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 75.0},
        )
        compiled = compile_scenario(spec)
        batch = compiled.experiment().run()
        engine = _stream(compiled, window_epochs)
        _assert_parity(batch, engine.finalize())

    @pytest.mark.parametrize("window_epochs", [12, 5])
    def test_adaptive_grid(self, window_epochs):
        spec = _spec("stream-adaptive-grid", scheme="adaptive")
        compiled = compile_scenario(spec)
        batch = compiled.experiment(thermal_model=_grid_model(spec)).run()
        engine = _stream(compiled, window_epochs, thermal_model=_grid_model(spec))
        _assert_parity(batch, engine.finalize())

    def test_window_equals_horizon_solve_count(self):
        # The chip's thermal model (and its counters) is shared across the
        # process, so budgets are measured as deltas around each run.
        spec = _spec("stream-solves", scheme="xy-shift")
        compiled = compile_scenario(spec)
        batch_exp = compiled.experiment()
        solver = batch_exp.thermal_model.solver
        before = solver.steady_solve_count
        batch = batch_exp.run()
        batch_solves = solver.steady_solve_count - before
        before = solver.steady_solve_count
        engine = _stream(compiled, spec.num_epochs)
        streamed = engine.finalize()
        stream_solves = solver.steady_solve_count - before
        _assert_parity(batch, streamed)
        # One window = one multi-RHS solve: identical budgets.
        assert stream_solves == batch_solves == compiled.expected_steady_solves()

    def test_multi_window_solve_budget(self):
        spec = _spec("stream-budget", scheme="xy-shift")
        compiled = compile_scenario(spec)
        solver = compiled.experiment().thermal_model.solver
        before = solver.steady_solve_count
        engine = _stream(compiled, 4)
        engine.finalize()
        # A feedback-free steady stream costs one multi-RHS solve per window.
        assert (
            solver.steady_solve_count - before
            == compiled.expected_steady_solves(windows=3)
            == 3
        )


class TestTransientParity:
    def test_single_window_is_batch(self):
        spec = _spec("stream-transient", mode="transient", scheme="adaptive")
        compiled = compile_scenario(spec)
        batch_exp = compiled.experiment()
        solver = batch_exp.thermal_model.solver
        before = (solver.steady_solve_count, solver.transient_sequence_count)
        batch = batch_exp.run()
        batch_cost = (
            solver.steady_solve_count - before[0],
            solver.transient_sequence_count - before[1],
        )
        before = (solver.steady_solve_count, solver.transient_sequence_count)
        engine = _stream(compiled, spec.num_epochs)
        _assert_parity(batch, engine.finalize())
        stream_cost = (
            solver.steady_solve_count - before[0],
            solver.transient_sequence_count - before[1],
        )
        assert stream_cost == batch_cost
        assert stream_cost[1] == 1

    @pytest.mark.parametrize("window_epochs", [5, 3])
    def test_multi_window_adaptive_hotspot(self, window_epochs):
        spec = _spec("stream-transient-multi", mode="transient", scheme="adaptive")
        compiled = compile_scenario(spec)
        batch = compiled.experiment().run()
        warm = _batch_warm_power(compiled)
        engine = _stream(compiled, window_epochs, warm_power=warm)
        _assert_parity(batch, engine.finalize())

    def test_multi_window_threshold_grid(self):
        spec = _spec(
            "stream-transient-grid",
            mode="transient",
            scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 75.0},
        )
        compiled = compile_scenario(spec)
        batch = compiled.experiment(thermal_model=_grid_model(spec)).run()
        warm = _batch_warm_power(compiled, thermal_model=_grid_model(spec))
        engine = _stream(
            compiled, 4, thermal_model=_grid_model(spec), warm_power=warm
        )
        _assert_parity(batch, engine.finalize())

    def test_multi_window_solve_budget(self):
        spec = _spec("stream-transient-budget", mode="transient", scheme="xy-shift")
        compiled = compile_scenario(spec)
        solver = compiled.experiment().thermal_model.solver
        before = (solver.steady_solve_count, solver.transient_sequence_count)
        engine = _stream(compiled, 4)
        engine.finalize()
        # Baseline + settled evaluation are steady solves; each window is one
        # sequenced transient.
        assert (
            solver.steady_solve_count - before[0]
            == compiled.expected_steady_solves(windows=3)
            == 2
        )
        assert solver.transient_sequence_count - before[1] == 3

    def test_transient_default_warm_start_differs(self):
        # Without the batch warm vector a mid-stream engine warm-starts from
        # the first window's average — a *documented* semantic difference,
        # not silent noise.  Pin that it stays a warm-start effect (finite,
        # same migrations) rather than an accidental parity.
        spec = _spec("stream-transient-warm", mode="transient", scheme="xy-shift")
        compiled = compile_scenario(spec)
        batch = compiled.experiment().run()
        engine = _stream(compiled, 4)
        streamed = engine.finalize()
        assert streamed.migrations_performed == batch.migrations_performed
        assert np.isfinite(streamed.settled_peak_celsius)
        assert streamed.settled_peak_celsius != pytest.approx(
            batch.settled_peak_celsius, abs=1e-9
        )


@pytest.mark.parametrize("style", ["sudden", "fluid", "batched"])
@pytest.mark.parametrize("name", scenario_names())
def test_streamed_migration_accounting_equals_batch(name, style):
    """A registry scenario streamed at a drawn window size ends with the
    batch run's migration count and energy exactly (the controller's
    totals, which the rolling summary reports), its congestion-priced
    throughput penalty, and the batch run's NoC summary."""
    compiled = compile_scenario(
        dataclasses.replace(get_scenario(name), migration_style=style)
    )
    batch_run = run_scenario(compiled)
    batch = batch_run.experiment
    window = random.Random(f"{name}/{style}").randint(1, compiled.spec.num_epochs)
    engine = StreamingExperiment.from_scenario(compiled)
    updates = list(
        engine.process(
            scenario_windows(compiled, window, max_epochs=compiled.spec.num_epochs)
        )
    )
    controller = engine.experiment.controller
    assert controller.migrations_performed == batch.migrations_performed
    assert controller.total_migration_energy_j == batch.total_migration_energy_j
    assert engine.finalize().throughput_penalty == batch.throughput_penalty
    summary = updates[-1].summary
    assert ("noc_mean_latency_cyc" in summary) == (batch_run.noc is not None)
    if batch_run.noc is not None:
        assert summary["noc_mean_latency_cyc"] == pytest.approx(
            batch_run.noc.mean_latency_cycles, rel=1e-12
        )
        assert summary["noc_saturated_epochs"] == batch_run.noc.saturated_epochs
