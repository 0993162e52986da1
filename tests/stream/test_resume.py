"""Crash/resume regression: a killed stream resumes bit-identically.

The scenario the checkpoint layer exists for: a stream dies mid-run (even
mid-append, leaving a torn journal line), a fresh process re-arms the same
experiment, restores the newest intact checkpoint and replays the producer —
and the final numbers are *bit-identical* to the uninterrupted run.
"""

import itertools
import json
import shutil
import tempfile
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import storage
from repro.chips import get_configuration
from repro.chips.configurations import ChipConfiguration
from repro.cli import main
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import make_policy
from repro.migration.unit import MigrationUnit
from repro.scenarios.compile import compile_scenario
from repro.scenarios.patterns import DiurnalPattern
from repro.scenarios.spec import ScenarioSpec
from repro.thermal.hotspot import HotSpotModel
from repro.stream import (
    CheckpointMismatchError,
    CheckpointStore,
    EpochWindow,
    StreamingExperiment,
    jsonl_windows,
    scenario_windows,
)


def _spec(**kwargs):
    defaults = dict(
        name="resume-test",
        configuration="A",
        scheme="threshold-xy-shift",
        policy_params={"trigger_celsius": 75.0},
        mode="steady",
        num_epochs=24,
        settle_epochs=6,
        load=DiurnalPattern(mean=0.9, amplitude=0.25, period_epochs=12),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _run(compiled, windows_iter, store=None):
    engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
    resume = engine.prepare()
    updates = list(
        engine.process(windows_iter(resume), max_epochs=compiled.spec.num_epochs)
    )
    return engine, engine.finalize(), updates


class TestCrashResume:
    def test_killed_stream_resumes_bit_identically(self, tmp_path):
        spec = _spec()
        compiled = compile_scenario(spec)

        # Reference: one uninterrupted streamed run (no checkpointing).
        _engine, reference, _updates = _run(
            compiled, lambda r: scenario_windows(compiled, 6, 24, start_epoch=r)
        )

        # First process: dies after two of four windows...
        store = CheckpointStore(tmp_path)
        engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
        engine.prepare()
        windows = scenario_windows(compiled, 6, max_epochs=24)
        processed = 0
        for _update in engine.process(windows, max_epochs=24):
            processed += 1
            if processed == 2:
                break  # simulated crash: no finalize, no more windows
        # ... and tears the journal mid-append on the way down.
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"identity": "torn-mid-append')

        # Second process: fresh engine, same spec, same journal.
        resumed_store = CheckpointStore(tmp_path)
        resumed_engine = StreamingExperiment.from_scenario(
            compiled, checkpoint=resumed_store
        )
        resume_epoch = resumed_engine.prepare()
        assert resume_epoch == 12  # two 6-epoch windows survived
        _updates = list(
            resumed_engine.process(
                scenario_windows(compiled, 6, max_epochs=24, start_epoch=resume_epoch),
                max_epochs=24,
            )
        )
        resumed = resumed_engine.finalize()

        assert resumed.settled_peak_celsius == reference.settled_peak_celsius
        assert resumed.settled_mean_celsius == reference.settled_mean_celsius
        assert resumed.peak_reduction_celsius == reference.peak_reduction_celsius
        assert resumed.migrations_performed == reference.migrations_performed
        assert resumed.throughput_penalty == reference.throughput_penalty
        # The rolling summary is restored exactly too.
        assert resumed_engine.summary.epochs == 24
        assert resumed_engine.summary.windows == 4

    def test_resume_skips_replayed_windows(self, tmp_path):
        spec = _spec()
        compiled = compile_scenario(spec)
        store = CheckpointStore(tmp_path)
        engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
        engine.prepare()
        for index, _update in enumerate(engine.process(
            scenario_windows(compiled, 6, max_epochs=24), max_epochs=24
        )):
            if index == 1:
                break

        # A naive producer that replays from epoch 0: covered windows skip.
        resumed = StreamingExperiment.from_scenario(
            compiled, checkpoint=CheckpointStore(tmp_path)
        )
        resumed.prepare()
        updates = list(
            resumed.process(scenario_windows(compiled, 6, max_epochs=24), max_epochs=24)
        )
        assert [u.start_epoch for u in updates] == [12, 18]
        assert resumed.finalize().settled_peak_celsius == pytest.approx(
            compiled.experiment().run().settled_peak_celsius, abs=1e-9
        )

    def test_identity_mismatch_refuses_restore(self, tmp_path):
        spec = _spec()
        compiled = compile_scenario(spec)
        store = CheckpointStore(tmp_path)
        engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
        engine.prepare()
        next(iter(engine.process(scenario_windows(compiled, 6, 24), max_epochs=24)))

        other = compile_scenario(
            _spec(name="other-stream", scheme="adaptive", policy_params=None)
        )
        stranger = StreamingExperiment.from_scenario(
            other, checkpoint=CheckpointStore(tmp_path)
        )
        with pytest.raises(ValueError, match="identity mismatch"):
            stranger.prepare()

    def test_identity_distinguishes_grid_resolution(self):
        compiled = compile_scenario(_spec())
        model = compiled.configuration.thermal_model
        grid = HotSpotModel(
            model.topology, package=model.package, floorplan=model.floorplan, resolution=2
        )
        block_identity = StreamingExperiment.from_scenario(compiled).identity
        grid_identity = StreamingExperiment.from_scenario(
            compiled, thermal_model=grid
        ).identity
        # A grid stream cannot resume a block journal.
        assert "/grid1/" in block_identity
        assert grid_identity == block_identity.replace("/grid1/", "/grid2/")

    def test_identity_distinguishes_migration_period(self, tmp_path, capsys):
        code = storage.code_fingerprint()
        assert _input_stream(109.0).identity == (
            f"{code}/A/adaptive/transient/stride1/grid1/mig:suddenx2/"
            "period109.0us/windows"
        )
        assert _input_stream(874.4).identity == (
            f"{code}/A/adaptive/transient/stride1/grid1/mig:suddenx2/"
            "period874.4us/windows"
        )
        # A served --input journal refuses another period.
        path = tmp_path / "windows.jsonl"
        path.write_text("\n".join(_input_lines(seed=5, windows=4)) + "\n")
        argv = ["serve", "--input", str(path), "-c", "A", "-s", "adaptive",
                "--checkpoint", str(tmp_path / "ckpt")]
        assert main(argv + ["--period", "109"]) == 0
        capsys.readouterr()
        assert main(argv + ["--period", "874.4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("checkpoint identity mismatch:")

    def test_identity_names_the_code(self, tmp_path, monkeypatch):
        """An edit to any package source changes the identity, so a journal
        written by other code is refused rather than resumed."""
        root = tmp_path / "repro"
        shutil.copytree(
            storage._package_root(), root, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.setattr(storage, "_package_root", lambda: root)
        monkeypatch.setattr(storage, "_FINGERPRINT_CACHE", {})
        store = CheckpointStore(tmp_path / "ck")
        written = _input_stream(store=store)
        next(written.process(jsonl_windows(_input_lines(seed=3, windows=2))))
        assert written.identity.startswith(storage.code_fingerprint(root) + "/")

        engine = root / "stream" / "engine.py"
        engine.write_text(engine.read_text() + "# edited\n")
        monkeypatch.setattr(storage, "_FINGERPRINT_CACHE", {})
        edited = _input_stream(store=CheckpointStore(tmp_path / "ck"))
        code, rest = edited.identity.split("/", 1)
        assert code == storage.code_fingerprint(root)
        assert edited.identity != written.identity
        assert rest == written.identity.split("/", 1)[1]
        with pytest.raises(CheckpointMismatchError, match="identity mismatch"):
            edited.prepare()


#: The served --input stream's shape: a per-PE load walk and an ambient walk.
_INPUT_WINDOW_EPOCHS = 8


def _input_lines(seed, windows):
    """Seeded JSONL epoch windows of a served ``--input`` stream."""
    rng = np.random.default_rng(seed)
    load = np.ones(get_configuration("A").topology.num_nodes)
    ambient = 0.0
    lines = []
    for window in range(windows):
        rows, offsets = [], []
        for _ in range(_INPUT_WINDOW_EPOCHS):
            load = np.clip(load + rng.normal(0.0, 0.03, load.size), 0.6, 1.4)
            ambient = float(np.clip(ambient + rng.normal(0.0, 0.15), -5.0, 5.0))
            rows.append([round(float(value), 6) for value in load])
            offsets.append(round(ambient, 6))
        lines.append(json.dumps({
            "num_epochs": _INPUT_WINDOW_EPOCHS,
            "start_epoch": window * _INPUT_WINDOW_EPOCHS,
            "load_modulation": rows,
            "ambient_offsets": offsets,
        }))
    return lines


def _input_stream(period_us=109.0, store=None):
    """The engine ``repro serve --input FILE -c A -s adaptive --mode transient`` runs."""
    chip = get_configuration("A")
    policy = make_policy("adaptive", chip.topology, period_us=period_us)
    experiment = ThermalExperiment(
        chip, policy, settings=ExperimentSettings(num_epochs=16, mode="transient")
    )
    return StreamingExperiment(experiment, settled_capacity=16, checkpoint=store)


def _served(engine, lines, windows=None):
    """Per-window records of a stream (host timing left out).

    With ``windows`` set the stream is abandoned after that many windows, a
    kill at a window boundary: no finalize, and the window read ahead is
    never processed.
    """
    updates = itertools.islice(engine.process(jsonl_windows(lines)), windows)
    return [
        (
            update.start_epoch,
            update.checkpointed,
            update.summary,
            update.outcome.epoch_metrics.tolist(),
            update.outcome.peak_by_epoch.tolist(),
            update.outcome.mean_by_epoch.tolist(),
        )
        for update in updates
    ]


class TestKilledInputStream:
    """A served stream killed at any window boundary resumes to the same numbers."""

    @given(seed=st.integers(0, 2**16), killed_after=st.integers(1, 11))
    @settings(max_examples=5, deadline=None)
    def test_resumed_stream_equals_uninterrupted(self, seed, killed_after):
        lines = _input_lines(seed, windows=12)
        with tempfile.TemporaryDirectory() as directory:
            uninterrupted = _input_stream(store=CheckpointStore(f"{directory}/whole"))
            expected = _served(uninterrupted, lines)
            expected_final = uninterrupted.finalize()

            # The first process is killed after `killed_after` windows ...
            killed = _input_stream(store=CheckpointStore(f"{directory}/killed"))
            assert _served(killed, lines, killed_after) == expected[:killed_after]
            # ... and a new one replays the whole input from the journal.
            resumed = _input_stream(store=CheckpointStore(f"{directory}/killed"))
            assert _served(resumed, lines) == expected[killed_after:]
            assert resumed.finalize() == expected_final


class TestStreamSemantics:
    def test_misaligned_window_raises(self):
        compiled = compile_scenario(_spec())
        engine = StreamingExperiment.from_scenario(compiled)
        engine.prepare()
        windows = [
            EpochWindow(num_epochs=6, start_epoch=0),
            EpochWindow(num_epochs=6, start_epoch=9),  # gap: cursor will be 6
        ]
        with pytest.raises(ValueError, match="cursor is at 6"):
            list(engine.process(iter(windows)))

    def test_negative_max_epochs_raises(self):
        compiled = compile_scenario(_spec())
        engine = StreamingExperiment.from_scenario(compiled)
        with pytest.raises(ValueError, match="max_epochs"):
            next(engine.process(scenario_windows(compiled, 4), max_epochs=-1))

    def test_max_epochs_trims_final_window(self):
        compiled = compile_scenario(_spec())
        engine = StreamingExperiment.from_scenario(compiled)
        engine.prepare()
        updates = list(
            engine.process(scenario_windows(compiled, 10), max_epochs=24)
        )
        assert [u.outcome.num_epochs for u in updates] == [10, 10, 4]
        assert engine.summary.epochs == 24

    @pytest.mark.parametrize(
        "scheme, style",
        [("xy-shift", "sudden"), ("adaptive", "sudden"), ("xy-shift", "fluid")],
    )
    def test_allocation_watermark_flat_over_a_10x_stream(self, scheme, style):
        # Every per-epoch structure is windowed or folded into rolling
        # aggregates, and no component logs the stages it executed, so a
        # stream 10x longer must not raise the traced allocation peak while
        # streaming; a per-epoch leak would grow it ~10x.
        compiled = compile_scenario(
            _spec(scheme=scheme, policy_params={}, num_epochs=48,
                  settle_epochs=8, migration_style=style)
        )

        def streaming_peak(total_epochs):
            engine = StreamingExperiment.from_scenario(compiled)
            engine.prepare()
            windows = scenario_windows(compiled, 8, max_epochs=total_epochs)
            tracemalloc.start()
            try:
                for _update in engine.process(windows, max_epochs=total_epochs):
                    pass
                engine.finalize()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streaming_peak(48)  # warm the chip's lazy caches outside the trace
        assert streaming_peak(480) < 2 * streaming_peak(48)


#: Components fixed at construction (or bounded by their own LRU) that a
#: stream only reads.
_FIXED = (ChipConfiguration, HotSpotModel, MigrationUnit)


def _reachable_elements(root):
    """Container elements reachable from ``root``.

    Walks instance ``vars()``, dicts, lists, tuples, sets and deques; arrays
    and scalars are leaves.  A per-epoch log grows the count even when it
    holds shared pointers, which an allocation watermark cannot see.
    """
    seen = set()
    count = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _FIXED) or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            count += len(obj)
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            count += len(obj)
            stack.extend(obj)
        elif not isinstance(obj, (np.ndarray, np.generic, str, bytes)) and hasattr(
            obj, "__dict__"
        ):
            stack.append(vars(obj))
    return count


class TestStreamStateIsConstant:
    """A stream 10x longer holds exactly as many container elements."""

    def test_adaptive_transient_input_stream(self, tmp_path):
        def elements(total_epochs):
            engine = _input_stream(
                store=CheckpointStore(tmp_path / f"ck-{total_epochs}")
            )
            windows = total_epochs // _INPUT_WINDOW_EPOCHS
            for _update in engine.process(jsonl_windows(_input_lines(7, windows))):
                pass
            assert engine.experiment.next_epoch == total_epochs
            return _reachable_elements(engine)

        assert elements(480) == elements(48)

    def test_fluid_plan_scenario_stream(self):
        compiled = compile_scenario(
            _spec(scheme="xy-shift", policy_params={}, num_epochs=48,
                  settle_epochs=8, migration_style="fluid")
        )

        def elements(total_epochs):
            engine = StreamingExperiment.from_scenario(compiled)
            windows = scenario_windows(compiled, 8, max_epochs=total_epochs)
            for _update in engine.process(windows, max_epochs=total_epochs):
                pass
            assert engine.experiment.controller.migrations_performed > 1
            return _reachable_elements(engine)

        assert elements(480) == elements(48)
