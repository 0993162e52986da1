"""Generated parity: the chunk loop against the per-epoch oracle.

``ThermalExperiment`` emits a chunk of epochs at a time (the whole window
for feedback-free policies, up to the next global refresh epoch for feedback
policies).  :mod:`epoch_loop_oracle` keeps the per-epoch loop it replaced.
Over generated :class:`ScenarioSpec`\\ s -- chips A-E; static, every Figure-1
scheme, threshold and adaptive policies; sudden, fluid and batched styles;
steady and transient modes; feedback strides 1-4 with both predictors; the
load, ambient, period and NoC channels each on or off; 1-40 epochs -- both
serve the spec over the same random window partition, and every window's
trace rows, events, Celsius rows, and the ``state_dict()`` after it as
the checkpoint store encodes it, must be ``==``; so must how far each
window moves the ``migration.plans``, ``migration.stages`` and
``migration.stalled_epochs`` counters.  So must the finalized result (its
baseline and settled figures included) and every record.  Random partitions
make chunks meet window boundaries anywhere, so chunks must align to global
refresh epochs.  The runtime's chip is sometimes a cold copy, so its walk
also runs the one-plan tracks it builds before an orbit closes.
"""

import dataclasses

import numpy as np
import pytest
from epoch_loop_oracle import PerEpochExperiment, peak_series
from hypothesis import given, settings, strategies as st
from strategies import partitioned_specs, window_of

from repro import obs
from repro.scenarios import all_scenarios
from repro.scenarios.compile import compile_scenario
from repro.stream.checkpoint import encode_checkpoint

#: The program's own record of the migrations a window ran.
COUNTERS = ("migration.plans", "migration.stages", "migration.stalled_epochs")


def _counted(step, window, is_last):
    """``step(window, is_last=is_last)`` with telemetry on, and how far it
    moved each of :data:`COUNTERS`."""
    counters = [obs.get_registry().counter(name) for name in COUNTERS]
    before = [counter.value for counter in counters]
    obs.enable()
    try:
        outcome = step(window, is_last=is_last)
    finally:
        obs.disable()
    return outcome, [counter.value - start for counter, start in zip(counters, before)]


def _serve_both(spec, windows, cold=False):
    """Step the runtime and the oracle over ``windows``; assert each one equal.

    With ``cold`` the runtime runs on a copy of the chip with an empty plan
    memo of its own, so its walk meets every plan the first time (one plan
    per track until an orbit closes) while the oracle's chip may be warm.
    """
    runtime_compiled = compile_scenario(spec)
    if cold:
        runtime_compiled = dataclasses.replace(
            runtime_compiled,
            configuration=dataclasses.replace(runtime_compiled.configuration),
        )
    runtime = runtime_compiled.experiment()
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
        window = window_of(compiled.window, start, stop)
        is_last = stop == spec.num_epochs
        got, got_counts = _counted(runtime.step_window, window, is_last)
        expected, expected_counts = _counted(oracle.step_window, window, is_last)
        assert got_counts == expected_counts
        assert np.array_equal(got.trace.powers, expected.trace.powers)
        assert np.array_equal(got.trace.durations, expected.trace.durations)
        assert got.costs == expected.costs
        for event, reference in zip(got.costs, expected.costs):
            if event is not None:
                assert np.array_equal(event.energy_vector, reference.energy_vector)
        assert np.array_equal(got.epoch_metrics, expected.epoch_metrics)
        assert np.array_equal(got.peak_by_epoch, expected.peak_by_epoch)
        assert np.array_equal(got.mean_by_epoch, expected.mean_by_epoch)
        assert encode_checkpoint(runtime.state_dict()) == encode_checkpoint(
            oracle.state_dict()
        )
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
    @given(case=partitioned_specs(), cold=st.booleans())
    def test_served_windows_equal_the_per_epoch_oracle(self, case, cold):
        spec, windows = case
        runtime, oracle = _serve_both(spec, windows, cold)
        _assert_results_equal(runtime, oracle)

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize("spec", all_scenarios(), ids=lambda spec: spec.name)
    def test_registry_scenarios_equal_the_per_epoch_oracle(self, spec, cold):
        runtime, oracle = _serve_both(spec, [(0, spec.num_epochs)], cold)
        _assert_results_equal(runtime, oracle)
