"""Streaming staged migrations: plans straddling window boundaries.

A fluid plan armed near the end of a window is still mid-flight when the
checkpoint publishes; the journal must carry the in-flight plan (and the
wall-clock cycle accumulator) so a crashed stream resumes bit-identically
into the remaining stages.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.scenarios.compile import compile_scenario
from repro.scenarios.patterns import BurstPattern, ConstantPattern
from repro.scenarios.spec import ScenarioSpec
from repro.stream import (
    CheckpointStore,
    EpochWindow,
    StreamingExperiment,
    scenario_windows,
)
from repro.stream.checkpoint import CHECKPOINT_JOURNAL


def _staged_spec(**kwargs):
    # Rotation on the 4x4 mesh decomposes into eight 2-cycles, so a
    # units_per_epoch=1 plan unfolds over eight epochs — long enough to
    # straddle any small window boundary.
    defaults = dict(
        name="staged-stream-test",
        configuration="A",
        scheme="rotation",
        mode="steady",
        num_epochs=24,
        settle_epochs=6,
        migration_style="fluid",
        units_per_epoch=1,
        load=BurstPattern(base=1.0, peak=1.3, start_epoch=4, length=4, every=8),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestMidPlanResume:
    def test_mid_plan_checkpoint_resumes_bit_identically(self, tmp_path):
        """Kill the stream on a window boundary that bisects a fluid plan;
        the resumed stream must finish the plan's remaining stages exactly."""
        spec = _staged_spec()
        compiled = compile_scenario(spec)

        # Reference: uninterrupted streamed run with small windows.
        reference_engine = StreamingExperiment.from_scenario(compiled)
        reference_engine.prepare()
        list(
            reference_engine.process(
                scenario_windows(compiled, 2, 24), max_epochs=24
            )
        )
        reference = reference_engine.finalize()

        # Interrupted run: crash after two 2-epoch windows, four epochs into
        # the first plan's eight stages.
        store = CheckpointStore(tmp_path)
        engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
        engine.prepare()
        processed = 0
        for _update in engine.process(
            scenario_windows(compiled, 2, 24), max_epochs=24
        ):
            processed += 1
            if processed == 2:
                break
        assert engine.experiment.controller.migration_in_progress

        # The published checkpoint carries the in-flight plan.
        payload = CheckpointStore(tmp_path).load_latest()
        controller_state = payload["experiment"]["controller"]
        assert "plan" in controller_state
        assert controller_state["plan"]["next_stage"] >= 1

        resumed_engine = StreamingExperiment.from_scenario(
            compiled, checkpoint=CheckpointStore(tmp_path)
        )
        resume_epoch = resumed_engine.prepare()
        assert resume_epoch == 4
        assert resumed_engine.experiment.controller.migration_in_progress
        list(
            resumed_engine.process(
                scenario_windows(compiled, 2, 24, start_epoch=resume_epoch),
                max_epochs=24,
            )
        )
        resumed = resumed_engine.finalize()

        assert resumed.settled_peak_celsius == reference.settled_peak_celsius
        assert resumed.settled_mean_celsius == reference.settled_mean_celsius
        assert resumed.migrations_performed == reference.migrations_performed
        assert resumed.throughput_penalty == reference.throughput_penalty
        assert np.array_equal(
            resumed_engine.experiment.controller.nodes,
            reference_engine.experiment.controller.nodes,
        )

    def test_tampered_stage_is_rejected_at_restore(self, tmp_path, capsys):
        """A checkpointed stage whose step is not a closed relocation must
        fail the resume when the checkpoint is restored, not at that stage's
        epoch mid-stream: one stderr line naming the journal, exit 1."""
        checkpoint = tmp_path / "ck"
        argv = ["serve", "fluid-under-burst", "--window", "4",
                "--checkpoint", str(checkpoint)]
        # The 6-epoch cap bisects the 4-stage xy-shift plan armed at epoch 5.
        assert main(argv + ["--max-epochs", "6"]) == 0
        journal = checkpoint / CHECKPOINT_JOURNAL
        lines = journal.read_text(encoding="utf-8").splitlines()
        payload = json.loads(lines[-1])
        plan_state = payload["experiment"]["controller"]["plan"]
        step = plan_state["plan"]["stages"][plan_state["next_stage"]]["step"]
        moved = [node for node, target in enumerate(step) if node != target]
        fixed = [node for node, target in enumerate(step) if node == target]
        step[moved[0]] = fixed[0]  # now lands outside the cycle
        lines[-1] = json.dumps(payload, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()

        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(journal) in captured.err
        assert "closed relocation" in captured.err

    def test_staged_stream_matches_batch_run(self):
        """Window boundaries are invisible: the streamed staged run equals
        the whole-horizon batch run of the same compiled scenario."""
        spec = _staged_spec()
        compiled = compile_scenario(spec)
        batch = compiled.experiment().run()

        engine = StreamingExperiment.from_scenario(compiled)
        engine.prepare()
        list(engine.process(scenario_windows(compiled, 5, 24), max_epochs=24))
        streamed = engine.finalize()

        assert streamed.settled_peak_celsius == pytest.approx(
            batch.settled_peak_celsius, abs=1e-9
        )
        assert streamed.migrations_performed == batch.migrations_performed
        assert streamed.throughput_penalty == pytest.approx(
            batch.throughput_penalty, abs=1e-9
        )

    def test_identity_distinguishes_migration_style(self, tmp_path):
        sudden = StreamingExperiment.from_scenario(
            compile_scenario(_staged_spec(migration_style="sudden"))
        )
        fluid = StreamingExperiment.from_scenario(
            compile_scenario(_staged_spec())
        )
        assert "/mig:suddenx1/" in sudden.identity
        assert "/mig:fluidx1/" in fluid.identity

    def test_summary_counts_plans_not_stages(self):
        spec = _staged_spec()
        compiled = compile_scenario(spec)
        engine = StreamingExperiment.from_scenario(compiled)
        engine.prepare()
        updates = list(
            engine.process(scenario_windows(compiled, 6, 24), max_epochs=24)
        )
        summary = updates[-1].summary
        result = engine.finalize()
        assert summary["migrations"] == result.migrations_performed


class TestPeriodScaleWindows:
    def test_jsonl_period_scale(self):
        restored = EpochWindow.from_json_line(
            '{"num_epochs": 3, "start_epoch": 6, "load_modulation": [1.0, 1.1, 0.9], '
            '"period_scale": [1.0, 2.0, 0.5]}'
        )
        assert np.array_equal(restored.period_scale, [1.0, 2.0, 0.5])

    def test_head_trims_period_scale(self):
        window = EpochWindow(num_epochs=3, period_scale=[1.0, 2.0, 3.0])
        assert np.array_equal(window.head(2).period_scale, [1.0, 2.0])

    def test_rejects_non_positive_period_scale(self):
        with pytest.raises(ValueError, match="period_scale"):
            EpochWindow(num_epochs=2, period_scale=[1.0, 0.0])

    def test_scenario_windows_carry_period_schedule(self):
        spec = _staged_spec(
            migration_style="sudden",
            load=ConstantPattern(1.0),
            period=ConstantPattern(2.0),
        )
        compiled = compile_scenario(spec)
        windows = list(scenario_windows(compiled, 6, 12))
        assert all(window.period_scale is not None for window in windows)
        assert np.array_equal(windows[0].period_scale, np.full(6, 2.0))
