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
the checkpoint store encodes it, must be ``==``.  So must the finalized
result (its baseline and settled figures included) and every record.  Random partitions make chunks meet window
boundaries anywhere, so chunks must align to global refresh epochs.
"""

import numpy as np
import pytest
from epoch_loop_oracle import PerEpochExperiment, peak_series
from hypothesis import given, settings
from strategies import partitioned_specs, window_of

from repro.scenarios import all_scenarios
from repro.scenarios.compile import compile_scenario
from repro.stream.checkpoint import encode_checkpoint


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
        window = window_of(compiled.window, start, stop)
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
    @given(case=partitioned_specs())
    def test_served_windows_equal_the_per_epoch_oracle(self, case):
        spec, windows = case
        runtime, oracle = _serve_both(spec, windows)
        _assert_results_equal(runtime, oracle)

    @pytest.mark.parametrize("spec", all_scenarios(), ids=lambda spec: spec.name)
    def test_registry_scenarios_equal_the_per_epoch_oracle(self, spec):
        runtime, oracle = _serve_both(spec, [(0, spec.num_epochs)])
        _assert_results_equal(runtime, oracle)
