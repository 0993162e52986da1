"""Scenario compilation and execution: parity, modulation and schedules.

The anchor test pins a constant-pattern scenario to the plain
:class:`ThermalExperiment` result on configurations A, C and E to <1e-9 —
the scenario layer must be a strict generalisation of the paper's
experiments, not a parallel implementation.
"""

import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import scenario_specs

from repro.chips import get_configuration
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import PeriodicMigrationPolicy, make_policy
from repro.power.trace import map_to_vector
from repro.scenarios.compile import compile_scenario, decoder_effort, run_scenario
from repro.scenarios.patterns import (
    ConstantPattern,
    FaultPattern,
    HotspotPattern,
    RampPattern,
    StepPattern,
)
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.migration import transforms
from repro.scenarios.spec import ScenarioSpec
from repro.stream.window import CHANNELS, EpochWindow
from repro.thermal.hotspot import HotSpotModel

PARITY_CONFIGURATIONS = ("A", "C", "E")


def _constant_spec(configuration: str, mode: str = "steady") -> ScenarioSpec:
    return ScenarioSpec(
        name=f"parity-{configuration}-{mode}",
        configuration=configuration,
        scheme="xy-shift",
        mode=mode,
        num_epochs=13,
        settle_epochs=12,
        transient_steps_per_epoch=4,
        load=ConstantPattern(1.0),
    )


class TestConstantPatternParity:
    @pytest.mark.parametrize("config_name", PARITY_CONFIGURATIONS)
    def test_steady_matches_plain_experiment(self, config_name):
        spec = _constant_spec(config_name)
        scenario = run_scenario(spec).experiment

        chip = get_configuration(config_name)
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=13, mode="steady", settle_epochs=12)
        plain = ThermalExperiment(chip, policy, settings=settings).run()

        assert scenario.settled_peak_celsius == pytest.approx(
            plain.settled_peak_celsius, abs=1e-9
        )
        assert scenario.settled_mean_celsius == pytest.approx(
            plain.settled_mean_celsius, abs=1e-9
        )
        assert scenario.baseline_peak_celsius == pytest.approx(
            plain.baseline_peak_celsius, abs=1e-9
        )
        for ours, theirs in zip(scenario.epochs, plain.epochs):
            assert ours.thermal.peak_celsius == pytest.approx(
                theirs.thermal.peak_celsius, abs=1e-9
            )
            assert ours.thermal.mean_celsius == pytest.approx(
                theirs.thermal.mean_celsius, abs=1e-9
            )

    @pytest.mark.parametrize("config_name", PARITY_CONFIGURATIONS)
    def test_transient_matches_plain_experiment(self, config_name):
        spec = _constant_spec(config_name, mode="transient")
        scenario = run_scenario(spec).experiment

        chip = get_configuration(config_name)
        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=13, mode="transient", settle_epochs=12,
            transient_steps_per_epoch=4,
        )
        plain = ThermalExperiment(chip, policy, settings=settings).run()

        assert scenario.settled_peak_celsius == pytest.approx(
            plain.settled_peak_celsius, abs=1e-9
        )
        for ours, theirs in zip(scenario.epochs, plain.epochs):
            assert ours.thermal.peak_celsius == pytest.approx(
                theirs.thermal.peak_celsius, abs=1e-9
            )


class TestCompilation:
    def test_temporal_load_broadcasts_to_units(self):
        spec = ScenarioSpec(
            name="x", configuration="A", num_epochs=6,
            load=StepPattern(before=1.0, after=0.5, step_epoch=3),
        )
        compiled = compile_scenario(spec)
        load = compiled.window.load_modulation
        assert load.shape == (6, 16)
        assert np.all(load[0] == 1.0)
        assert np.all(load[5] == 0.5)

    def test_negative_load_rejected(self):
        spec = ScenarioSpec(
            name="x", configuration="A", num_epochs=4,
            load=ConstantPattern(1.0) + ConstantPattern(-2.0),
        )
        with pytest.raises(ValueError, match="non-negative"):
            compile_scenario(spec)

    def test_channels_default_to_none(self):
        compiled = compile_scenario(ScenarioSpec(name="x", configuration="A"))
        window = compiled.window
        assert window.num_epochs == compiled.spec.num_epochs
        for name in CHANNELS:
            assert getattr(window, name) is None

    def test_policy_and_settings_follow_spec(self):
        spec = ScenarioSpec(
            name="x", configuration="C", scheme="static", mode="transient",
            num_epochs=7, transient_steps_per_epoch=3,
        )
        compiled = compile_scenario(spec)
        assert compiled.policy.name == "static"
        assert compiled.settings.mode == "transient"
        assert compiled.settings.transient_steps_per_epoch == 3
        assert compiled.configuration.name == "C"


class TestModulationSemantics:
    def test_fault_zeroes_unit_power(self):
        coord = (1, 2)
        spec = ScenarioSpec(
            name="x", configuration="A", scheme="static", num_epochs=6,
            load=FaultPattern(units=(coord,), level=0.0, start_epoch=3),
        )
        result = run_scenario(spec).experiment
        healthy = result.epochs[0].power_map[coord]
        faulted = result.epochs[5].power_map[coord]
        assert healthy > 0
        assert faulted == 0.0

    def test_modulated_trace_matches_scaled_trace(self):
        """In-loop modulation == the unmodulated rows times the modulation.

        Periodic policies ignore the power feedback, so modulating each row
        as it is emitted must agree exactly with scaling the finished rows —
        the property that lets the scenario compiler reason about modulation
        as a pure array transform.
        """
        chip = get_configuration("A")
        settings = ExperimentSettings(num_epochs=8, mode="steady", settle_epochs=4)
        modulation = np.linspace(0.5, 1.5, 8)[:, np.newaxis] * np.ones(
            (8, chip.num_units)
        )

        def emitted_trace(experiment):
            experiment.prepare(total_epochs=8)
            return experiment.step_window(experiment.schedule, is_last=True).trace

        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        plain_trace = emitted_trace(ThermalExperiment(chip, policy, settings=settings))

        policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
        modulated_trace = emitted_trace(
            ThermalExperiment(
                chip,
                policy,
                settings=settings,
                schedule=EpochWindow(num_epochs=8, load_modulation=modulation),
            )
        )

        assert np.array_equal(modulated_trace.powers, plain_trace.powers * modulation)
        assert np.array_equal(modulated_trace.durations, plain_trace.durations)

    def test_hotspot_raises_local_temperature(self):
        base = run_scenario(
            ScenarioSpec(name="base", configuration="A", scheme="static", num_epochs=5)
        ).experiment
        hot = run_scenario(
            ScenarioSpec(
                name="hot", configuration="A", scheme="static", num_epochs=5,
                load=HotspotPattern(center=(0, 0), peak=2.0, sigma=0.8),
            )
        ).experiment
        assert hot.settled_peak_celsius > base.settled_peak_celsius


class TestAmbientOffsets:
    def test_uniform_shift_is_exact_in_steady_mode(self):
        """Per-epoch ambient offsets must equal re-solving at that ambient.

        The conduction block conserves energy, so a uniform ambient change
        shifts every steady temperature by the same amount; the scenario
        pipeline relies on that to keep one batched solve per scenario.
        """
        chip = get_configuration("A")
        offset = 6.5
        spec = ScenarioSpec(
            name="x", configuration="A", scheme="static", num_epochs=3,
            ambient_celsius=ConstantPattern(offset),
        )
        result = run_scenario(spec).experiment

        package = dataclasses.replace(
            chip.thermal_model.package,
            ambient_celsius=chip.thermal_model.package.ambient_celsius + offset,
        )
        shifted_model = HotSpotModel(
            chip.topology, package=package, floorplan=chip.thermal_model.floorplan
        )
        expected = shifted_model.steady_temperatures(
            map_to_vector(chip.topology, chip.power_map())[np.newaxis, :]
        )[0]
        assert result.settled_peak_celsius == pytest.approx(expected.max(), abs=1e-9)

    def test_baseline_stays_at_nominal_ambient(self):
        plain = run_scenario(
            ScenarioSpec(name="p", configuration="A", scheme="static", num_epochs=3)
        ).experiment
        heated = run_scenario(
            ScenarioSpec(
                name="h", configuration="A", scheme="static", num_epochs=3,
                ambient_celsius=ConstantPattern(5.0),
            )
        ).experiment
        assert heated.baseline_peak_celsius == pytest.approx(
            plain.baseline_peak_celsius, abs=1e-12
        )
        assert heated.settled_peak_celsius == pytest.approx(
            plain.settled_peak_celsius + 5.0, abs=1e-9
        )

    def test_feedback_policies_see_ambient_offsets(self):
        """A threshold policy must react to the scenario's ambient, not nominal.

        The trigger sits between the nominal steady peak and the +6 C shifted
        peak: without the offset reaching the feedback path the policy never
        fires; with it, every epoch fires.
        """
        from repro.core.policy import ThresholdMigrationPolicy

        chip = get_configuration("A")
        nominal_peak = chip.base_peak_temperature()
        settings = ExperimentSettings(num_epochs=4, mode="steady", settle_epochs=3)
        offsets = np.full(4, 6.0)

        def run_with(offsets_or_none):
            policy = ThresholdMigrationPolicy(
                chip.topology, "xy-shift", trigger_celsius=nominal_peak + 3.0
            )
            ThermalExperiment(
                chip, policy, settings=settings,
                schedule=EpochWindow(num_epochs=4, ambient_offsets=offsets_or_none),
            ).run()
            return policy.migrations_triggered

        assert run_with(None) == 0
        assert run_with(offsets) > 0

    def test_ramp_offsets_tracked_per_epoch(self):
        spec = ScenarioSpec(
            name="x", configuration="A", scheme="static", num_epochs=5,
            ambient_celsius=RampPattern(start=0.0, end=4.0),
        )
        result = run_scenario(spec)
        peaks = [epoch.thermal.peak_celsius for epoch in result.experiment.epochs]
        assert peaks[4] - peaks[0] == pytest.approx(4.0, abs=1e-9)
        assert result.ambient_offset_min_celsius == 0.0
        assert result.ambient_offset_max_celsius == 4.0


class TestDecoderEffort:
    def test_lower_snr_needs_more_iterations(self):
        chip = get_configuration("A")
        good = decoder_effort(chip, np.full(8, 3.0))
        bad = decoder_effort(chip, np.full(8, 1.0))
        assert bad.mean_iterations > good.mean_iterations
        assert bad.throughput_factor < good.throughput_factor
        assert 0.0 <= good.success_rate <= 1.0

    def test_snr_scenario_reports_decoder(self):
        result = run_scenario(get_scenario("snr-fade"))
        assert result.decoder is not None
        assert result.decoder.mean_iterations > 0
        row = result.to_row()
        assert isinstance(row["decoder_throughput_x"], float)

    def test_half_quantum_boundaries_bucket_consistently(self, monkeypatch):
        """Schedules on half-quantum boundaries must round the same way.

        ``np.round`` rounds half to even, so 0.125 dB fell into the 0.0
        bucket while 0.375 dB fell into 0.5 — adjacent boundary values
        skipping a bucket.  Round-half-up keeps consecutive boundaries in
        consecutive buckets.
        """
        from repro.scenarios import compile as compile_module

        probed = []

        def fake_probe(graph, code_digest, snr_q):
            probed.append(snr_q)
            return (10.0, 1.0)

        monkeypatch.setattr(compile_module, "_decode_probe", fake_probe)
        chip = get_configuration("A")
        decoder_effort(chip, np.array([0.125, 0.375, 0.625]))
        assert sorted(probed) == pytest.approx([0.25, 0.5, 0.75])

    def test_empty_schedule_rejected(self):
        chip = get_configuration("A")
        with pytest.raises(ValueError, match="non-empty SNR schedule"):
            decoder_effort(chip, np.array([]))

    def test_concurrent_probes_share_one_decode(self, monkeypatch):
        """Threads probing the same (code, SNR) must run ONE decode batch.

        The probe cache is process-wide, so callers running scenarios on
        several threads probe it concurrently; without the lock, threads that
        miss simultaneously each run the probe batch and write the cache over
        one another.  Four threads released together must produce exactly one
        decoder construction.
        """
        from repro.scenarios import compile as compile_module

        compile_module._PROBE_CACHE.clear()
        decode_calls = []
        real_decoder = compile_module.MinSumDecoder

        def counting_decoder(*args, **kwargs):
            decode_calls.append(threading.get_ident())
            return real_decoder(*args, **kwargs)

        monkeypatch.setattr(compile_module, "MinSumDecoder", counting_decoder)

        chip = get_configuration("A")
        barrier = threading.Barrier(4)
        errors = []

        def probe():
            try:
                barrier.wait(timeout=10)
                decoder_effort(chip, np.full(4, 2.0))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(decode_calls) == 1


class TestSingleSolveGuarantee:
    """Every registry scenario costs exactly its batched solve budget.

    Feedback-free scenarios are one batched steady solve (steady mode) or
    one ``transient_sequence`` plus the baseline/warm-start solves
    (transient mode).  Feedback scenarios add exactly
    ``ceil(num_epochs / feedback_stride)`` chunked feedback batches — never
    a per-epoch solve.  Every transient is one whole-trace eigenbasis
    evaluation, ambient-scheduled or not, whatever its ``thermal_method``
    label: one jump per transient scenario.
    """

    @pytest.mark.parametrize(
        "spec", all_scenarios(), ids=lambda spec: spec.name
    )
    def test_one_batched_evaluation_per_scenario(self, spec):
        compiled = compile_scenario(spec)
        solver = compiled.configuration.thermal_model.solver
        steady_before = solver.steady_solve_count
        sequences_before = solver.transient_sequence_count
        jumps_before = solver.spectral_jump_count

        run_scenario(compiled)

        assert (
            solver.steady_solve_count - steady_before
            == compiled.expected_steady_solves()
        )
        expected_sequences = 0 if spec.mode == "steady" else 1
        assert (
            solver.transient_sequence_count - sequences_before
            == expected_sequences
        )
        assert solver.spectral_jump_count - jumps_before == expected_sequences

    def test_ambient_swing_follows_the_schedule_in_one_jump(self):
        """The ~11 C ambient schedule moves the die by more than a degree,
        through one sequence and one spectral jump."""
        spec = get_scenario("ambient-swing-transient")
        assert spec.mode == "transient"
        solver = get_configuration(spec.configuration).thermal_model.solver
        sequences_before = solver.transient_sequence_count
        jumps_before = solver.spectral_jump_count

        result = run_scenario(spec)

        assert solver.transient_sequence_count - sequences_before == 1
        assert solver.spectral_jump_count - jumps_before == 1
        peaks = [record.thermal.peak_celsius for record in result.experiment.epochs]
        assert max(peaks) - min(peaks) > 1.0

    def test_registry_covers_feedback_policies(self):
        compiled = [compile_scenario(spec) for spec in all_scenarios()]
        feedback = [c for c in compiled if c.uses_thermal_feedback]
        assert len(feedback) >= 2
        assert {c.spec.mode for c in feedback} == {"steady", "transient"}
        # Feedback riding the scenario engine stays chunked: strictly fewer
        # solves than epochs whenever the stride exceeds one.
        for c in feedback:
            assert c.spec.feedback_stride > 1
            assert c.expected_steady_solves() < c.spec.num_epochs


#: Every transform class by scheme name, to build instances of a run's own.
_TRANSFORM_CLASSES = {
    cls.name: cls
    for cls in (
        transforms.RotationTransform,
        transforms.XMirrorTransform,
        transforms.YMirrorTransform,
        transforms.XYMirrorTransform,
        transforms.RightShiftTransform,
        transforms.XYShiftTransform,
        transforms.IdentityTransform,
    )
}


class TestSharedChipState:
    """A run pays for its epochs, not its chip: the shared transforms, per-chip
    arrays and plan memo give the same result as state built for the run."""

    @settings(max_examples=40, deadline=None)
    @given(spec=scenario_specs())
    def test_a_run_on_shared_state_equals_one_on_fresh_state(self, spec):
        shared = run_scenario(spec)
        built = []

        def fresh_transform(name, topology, **kwargs):
            built.append(name)
            return _TRANSFORM_CLASSES[name](topology, **kwargs)

        # Fresh state: the policy's transforms constructed for this run, and
        # a replaced chip with its own arrays and plan memo.
        with mock.patch("repro.core.policy.make_transform", fresh_transform):
            compiled = compile_scenario(spec)
        assert bool(built) == (spec.scheme != "static")
        chip = dataclasses.replace(compiled.configuration)
        fresh = run_scenario(dataclasses.replace(compiled, configuration=chip))
        assert fresh == shared
        # A second run on the shared state finds every plan memoized.
        assert run_scenario(spec) == shared
