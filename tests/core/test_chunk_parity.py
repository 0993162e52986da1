"""Generated parity: the chunk loop against the per-epoch oracle.

``ThermalExperiment`` emits a chunk of epochs at a time (the whole window
for feedback-free policies, up to the next global refresh epoch for feedback
policies).  :mod:`epoch_loop_oracle` keeps the per-epoch loop it replaced.
Over generated :class:`ScenarioSpec`\\ s -- chips A-E; static, every Figure-1
scheme, threshold and adaptive policies; sudden, fluid and batched styles;
steady and transient modes; feedback strides 1-4 with both predictors; the
load, ambient, period and NoC channels each on or off; 1-40 epochs -- both
serve the spec over the same random window partition, and every window's
trace rows, events, Celsius rows, baseline and settled values, and the
``state_dict()`` JSON after it, must be ``==``.  So must the finalized
result and every record.  Random partitions make chunks meet window
boundaries anywhere, so chunks must align to global refresh epochs.
"""

import json

import numpy as np
import pytest
from epoch_loop_oracle import PerEpochExperiment, peak_series
from hypothesis import given, settings, strategies as st

from repro.migration.plan import MIGRATION_STYLES
from repro.migration.transforms import FIGURE1_SCHEMES
from repro.scenarios import all_scenarios
from repro.scenarios.compile import compile_scenario
from repro.scenarios.patterns import (
    BurstPattern,
    DiurnalPattern,
    RampPattern,
    StepPattern,
)
from repro.scenarios.spec import NocChannel, ScenarioSpec
from repro.stream import EpochWindow
from repro.stream.window import CHANNELS

_FLOATS = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scenario_specs(draw):
    num_epochs = draw(st.integers(1, 40))
    scheme = draw(st.sampled_from(("static", *FIGURE1_SCHEMES, "threshold", "adaptive")))
    params = None
    if scheme == "threshold":
        scheme = "threshold-" + draw(st.sampled_from(FIGURE1_SCHEMES))
        params = {"trigger_celsius": draw(st.floats(60.0, 95.0, **_FLOATS))}
    channels = {}
    if draw(st.booleans()):
        channels["load"] = draw(
            st.builds(
                DiurnalPattern,
                mean=st.floats(0.5, 1.2, **_FLOATS),
                amplitude=st.floats(0.0, 0.4, **_FLOATS),
                period_epochs=st.floats(2.0, 16.0, **_FLOATS),
            )
            | st.builds(
                BurstPattern,
                base=st.floats(0.5, 1.0, **_FLOATS),
                peak=st.floats(1.0, 2.0, **_FLOATS),
                start_epoch=st.integers(0, 20),
                length=st.integers(1, 8),
            )
        )
    if draw(st.booleans()):
        channels["ambient_celsius"] = RampPattern(
            start=draw(st.floats(-5.0, 5.0, **_FLOATS)),
            end=draw(st.floats(-5.0, 10.0, **_FLOATS)),
        )
    if draw(st.booleans()):
        channels["period"] = StepPattern(
            before=1.0,
            after=draw(st.floats(0.25, 4.0, **_FLOATS)),
            step_epoch=draw(st.integers(0, 40)),
        )
    if draw(st.booleans()):
        channels["noc"] = NocChannel(injection_rate=draw(st.floats(0.01, 0.3, **_FLOATS)))
    return ScenarioSpec(
        name="generated",
        configuration=draw(st.sampled_from("ABCDE")),
        scheme=scheme,
        mode=draw(st.sampled_from(("steady", "transient"))),
        num_epochs=num_epochs,
        settle_epochs=draw(st.none() | st.integers(1, num_epochs)),
        thermal_method=draw(st.sampled_from(("euler", "spectral"))),
        transient_steps_per_epoch=draw(st.integers(1, 8)),
        include_migration_energy=draw(st.booleans()),
        policy_params=params,
        feedback_stride=draw(st.integers(1, 4)),
        feedback_predictor=draw(st.sampled_from(("hold", "previous"))),
        migration_style=draw(st.sampled_from(MIGRATION_STYLES)),
        units_per_epoch=draw(st.integers(1, 4)),
        **channels,
    )


@st.composite
def partitioned_specs(draw):
    """A spec and the window boundaries it is served over."""
    spec = draw(scenario_specs())
    cuts = draw(st.sets(st.integers(1, max(spec.num_epochs - 1, 1)), max_size=6))
    bounds = [0, *sorted(cut for cut in cuts if cut < spec.num_epochs), spec.num_epochs]
    return spec, list(zip(bounds, bounds[1:]))


def _window(whole, start, stop):
    """Epochs ``[start, stop)`` of a compiled whole-horizon window."""
    channels = {
        name: getattr(whole, name)[start:stop]
        for name in CHANNELS
        if getattr(whole, name) is not None
    }
    return EpochWindow(num_epochs=stop - start, **channels)


def _serve_both(spec, windows):
    """Step the runtime and the oracle over ``windows``; assert each one equal."""
    runtime = compile_scenario(spec).experiment()
    # A second compile, so the two sides share no policy object.
    compiled = compile_scenario(spec)
    oracle = PerEpochExperiment(
        compiled.configuration,
        compiled.policy,
        settings=compiled.settings,
        schedule=compiled.window,
        noc_model=compiled.noc_model,
    )
    for experiment in (runtime, oracle):
        experiment.prepare(total_epochs=spec.num_epochs, collect_records=True)
    for start, stop in windows:
        window = _window(compiled.window, start, stop)
        is_last = stop == spec.num_epochs
        got = runtime.step_window(window, is_last=is_last)
        expected = oracle.step_window(window, is_last=is_last)
        assert np.array_equal(got.trace.powers, expected.trace.powers)
        assert np.array_equal(got.trace.durations, expected.trace.durations)
        assert got.costs == expected.costs
        for event, reference in zip(got.costs, expected.costs):
            if event is not None:
                assert np.array_equal(event.energy_vector, reference.energy_vector)
        assert np.array_equal(got.epoch_metrics, expected.epoch_metrics)
        assert np.array_equal(got.peak_by_epoch, expected.peak_by_epoch)
        assert np.array_equal(got.mean_by_epoch, expected.mean_by_epoch)
        assert got.baseline == expected.baseline
        assert got.settled == expected.settled
        assert json.dumps(runtime.state_dict()) == json.dumps(oracle.state_dict())
    return runtime, oracle


def _assert_results_equal(runtime, oracle):
    got, expected = runtime.finalize(), oracle.finalize()
    assert list(got.epochs) == oracle.records()
    assert np.array_equal(got.peak_series(), peak_series(got))
    for name in (
        "baseline_peak_celsius",
        "baseline_mean_celsius",
        "settled_peak_celsius",
        "settled_mean_celsius",
        "total_migration_energy_j",
        "performance",
    ):
        assert getattr(got, name) == getattr(expected, name), name


class TestChunkLoopParity:
    @settings(max_examples=60, deadline=None)
    @given(case=partitioned_specs())
    def test_served_windows_equal_the_per_epoch_oracle(self, case):
        spec, windows = case
        runtime, oracle = _serve_both(spec, windows)
        _assert_results_equal(runtime, oracle)

    @pytest.mark.parametrize("spec", all_scenarios(), ids=lambda spec: spec.name)
    def test_registry_scenarios_equal_the_per_epoch_oracle(self, spec):
        runtime, oracle = _serve_both(spec, [(0, spec.num_epochs)])
        _assert_results_equal(runtime, oracle)
