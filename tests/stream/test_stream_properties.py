"""Generated stream properties: stream == batch and resume == uninterrupted.

Over the specs and window partitions of :mod:`strategies` (every policy
family and migration style, strides 1-4 with both predictors, steady and
transient modes, every channel on or off):

* a :class:`StreamingExperiment` served over the drawn partition reproduces
  ``run_scenario`` of the same spec: per-epoch Celsius rows, executed
  stages and the finalized result (floats within 1e-9, counts ``==``);
* a stream killed after a drawn window and resumed from its journal through
  a new :class:`CheckpointStore` reproduces the uninterrupted stream: every
  later window record, the encoded state after it, and the final result
  ``==``.  The kill lands anywhere, so the journal carries mid-plan fluid
  and batched stages, queued feedback rows at strides 2-4, the "previous"
  predictor's solved rows and steady mode's power and offset rings, each
  decoded from exact binary.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from strategies import partitioned_specs, window_of

from repro.scenarios.compile import compile_scenario, run_scenario
from repro.stream import CheckpointStore, StreamingExperiment
from repro.stream.checkpoint import encode_checkpoint

_RESULT_FLOATS = (
    "baseline_peak_celsius",
    "baseline_mean_celsius",
    "settled_peak_celsius",
    "settled_mean_celsius",
    "total_migration_energy_j",
)


def _windows(compiled, bounds):
    return [
        window_of(compiled.window, start, stop, start_epoch=start)
        for start, stop in bounds
    ]


def _batch_warm_power(compiled):
    """The whole-trace average power the batch transient warm-starts from
    (a stream cannot know the future trace, so it is passed in)."""
    probe = compiled.experiment()
    probe.prepare(total_epochs=compiled.spec.num_epochs)
    return probe.step_window(compiled.window, is_last=True).trace.average_vector()


def _records(engine, windows):
    """Serve ``windows``; per window, everything it reports except its
    wall-clock lag, and the state it checkpointed, as encoded."""
    records = []
    for update in engine.process(windows):
        state = {
            "experiment": engine.experiment.state_dict(),
            "summary": engine.summary.state_dict(),
        }
        records.append((_record(update), encode_checkpoint(state)))
    return records


def _record(update):
    outcome = update.outcome
    return (
        update.start_epoch,
        update.checkpointed,
        update.summary,
        outcome.trace.powers.tobytes(),
        outcome.epoch_metrics.tobytes(),
        outcome.peak_by_epoch.tobytes(),
        outcome.mean_by_epoch.tobytes(),
        outcome.costs,
        [event.energy_vector.tobytes() for event in outcome.costs if event],
    )


class TestStreamEqualsBatch:
    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_specs())
    def test_served_partition_equals_run_scenario(self, case):
        spec, bounds = case
        compiled = compile_scenario(spec)
        batch = run_scenario(compiled).experiment
        engine = StreamingExperiment.from_scenario(
            compiled, warm_power=_batch_warm_power(compiled)
        )
        updates = list(engine.process(_windows(compiled, bounds)))
        result = engine.finalize()

        celsius = np.concatenate([update.outcome.epoch_metrics for update in updates])
        np.testing.assert_allclose(celsius, batch.epochs.celsius, rtol=0, atol=1e-9)
        costs = [event for update in updates for event in update.outcome.costs]
        assert [event.transform_name if event else None for event in costs] == (
            batch.epochs.transforms
        )
        assert [event.cycles if event else 0 for event in costs] == (
            batch.epochs.cycles.tolist()
        )
        np.testing.assert_allclose(
            [event.energy_j if event else 0.0 for event in costs],
            batch.epochs.energy,
            rtol=0,
            atol=1e-9,
        )
        for name in _RESULT_FLOATS:
            assert getattr(result, name) == pytest.approx(getattr(batch, name), abs=1e-9)
        assert result.performance == batch.performance


class TestResumeEqualsUninterrupted:
    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_specs(), data=st.data())
    def test_killed_stream_resumes_through_the_journal(self, case, data):
        spec, bounds = case
        assume(len(bounds) >= 2)
        compiled = compile_scenario(spec)
        windows = _windows(compiled, bounds)
        kill = data.draw(st.integers(1, len(windows) - 1), label="windows before the kill")
        with tempfile.TemporaryDirectory() as whole, tempfile.TemporaryDirectory() as cut:
            uninterrupted = StreamingExperiment.from_scenario(
                compiled, checkpoint=CheckpointStore(whole)
            )
            expected = _records(uninterrupted, windows)
            expected_result = uninterrupted.finalize()

            # The killed stream read one window past its last: the window
            # before the kill is not the stream's last, as in a real kill.
            killed = StreamingExperiment.from_scenario(
                compiled, checkpoint=CheckpointStore(cut)
            )
            served = killed.process(windows)
            for _ in range(kill):
                next(served)
            served.close()

            resumed = StreamingExperiment.from_scenario(
                compiled, checkpoint=CheckpointStore(cut)
            )
            assert resumed.prepare() == bounds[kill][0]
            got = _records(resumed, windows)
            result = resumed.finalize()
        assert got == expected[kill:]
        for name in _RESULT_FLOATS:
            assert getattr(result, name) == getattr(expected_result, name)
        assert result.performance == expected_result.performance
