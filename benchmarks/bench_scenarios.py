"""Experiment S1 — the scenario suite rides the batched epoch pipeline.

Runs every registered scenario end to end (steady and transient) and guards
the property that makes scenario diversity nearly free: **each scenario
costs exactly its batched solve budget** — one multi-RHS steady solve in
steady mode, one ``transient_sequence`` call (plus the baseline solve and
the warm start) in transient mode, ``ceil(num_epochs / feedback_stride)``
chunked feedback batches on top for thermal-feedback policies, and never a
per-epoch ``transient()`` round-trip or per-epoch feedback solve.  Also
benchmarks the chunked feedback loop against the seed per-epoch reference
(``feedback.batched``), times the whole-registry comparison, and checks
the controller's migration-cost cache is engaged across the suite.
"""

import pytest

import perf_utils
from conftest import print_rows

from repro.analysis.report import compare_scenarios
from repro.chips import get_configuration
from repro.scenarios import all_scenarios, get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario


def test_every_scenario_is_one_batched_evaluation():
    """The acceptance guard: >= 8 scenarios, each at its batched budget."""
    specs = all_scenarios()
    assert len(specs) >= 8
    modes = {spec.mode for spec in specs}
    assert modes == {"steady", "transient"}

    rows = []
    for spec in specs:
        compiled = compile_scenario(spec)
        solver = compiled.configuration.thermal_model.solver
        steady_before = solver.steady_solve_count
        transients_before = solver.transient_count
        sequences_before = solver.transient_sequence_count
        jumps_before = solver.spectral_jump_count

        result = run_scenario(compiled)

        steady_delta = solver.steady_solve_count - steady_before
        sequence_delta = solver.transient_sequence_count - sequences_before
        jump_delta = solver.spectral_jump_count - jumps_before
        # No per-epoch transient() round-trips, ever.
        assert solver.transient_count == transients_before
        # Feedback-free scenarios are one batched evaluation; feedback
        # scenarios add exactly ceil(E / stride) chunked batches.
        expected_steady = compiled.expected_steady_solves()
        assert steady_delta == expected_steady, (
            f"{spec.name}: {steady_delta} steady solves, "
            f"expected {expected_steady}"
        )
        expected_sequences = 0 if spec.mode == "steady" else 1
        assert sequence_delta == expected_sequences, (
            f"{spec.name}: {sequence_delta} sequences"
        )
        # Spectral transients (ambient-scheduled or not) must stay on the
        # whole-trace jump: the affine boundary term costs zero extra solves.
        expected_jumps = 1 if spec.mode == "transient" and spec.thermal_method == "spectral" else 0
        assert jump_delta == expected_jumps, f"{spec.name}: {jump_delta} spectral jumps"
        rows.append(
            {
                "scenario": spec.name,
                "mode": spec.mode,
                "feedback": "yes" if compiled.uses_thermal_feedback else "-",
                "steady_solves": steady_delta,
                "sequences": sequence_delta,
                "spectral_jumps": jump_delta,
                "settled_peak_c": round(result.experiment.settled_peak_celsius, 2),
            }
        )
    print_rows("Thermal evaluations per scenario (guard: batched budget)", rows)


def test_exact_ambient_transient_rides_the_spectral_jump():
    """Experiment S2 — the exact time-varying ambient path, bench-guarded.

    ``ambient-swing-transient`` drives a diurnal + burst ambient schedule
    through the transient pipeline.  The per-interval boundary term
    ``G_amb * (T_amb + dT_i)`` must not change the evaluation structure:
    one ``transient_sequence``, one spectral jump, zero per-epoch
    ``transient()`` calls — identical counts to an ambient-free run.
    """
    spec = get_scenario("ambient-swing-transient")
    assert spec.mode == "transient" and spec.thermal_method == "spectral"
    solver = get_configuration(spec.configuration).thermal_model.solver
    sequences_before = solver.transient_sequence_count
    jumps_before = solver.spectral_jump_count
    transients_before = solver.transient_count

    with perf_utils.timed() as timer:
        result = run_scenario(spec)

    assert solver.transient_sequence_count - sequences_before == 1
    assert solver.spectral_jump_count - jumps_before == 1
    assert solver.transient_count == transients_before
    # The schedule spans ~11 C; the low-passed die must move with it but
    # stay well inside the quasi-static envelope (offset applied instantly).
    swings = [record.thermal.peak_celsius for record in result.experiment.epochs]
    assert max(swings) - min(swings) > 1.0

    perf_utils.record_perf(
        "scenarios.transient.exact_ambient",
        timer.seconds,
        throughput=spec.num_epochs / timer.seconds,
        throughput_unit="epochs/s",
        epochs=spec.num_epochs,
        transient_sequences=1,
        spectral_jumps=1,
    )
    print_rows(
        "Exact ambient transient (ambient-swing-transient, spectral jump)",
        [
            {
                "epochs": spec.num_epochs,
                "wall_ms": round(1e3 * timer.seconds, 1),
                "peak_swing_c": round(max(swings) - min(swings), 2),
                "sequences": 1,
                "spectral_jumps": 1,
            }
        ],
    )


def test_batched_feedback_loop(benchmark, chip_a):
    """Experiment S3 — chunked feedback vs the seed per-epoch solve loop.

    A threshold policy over 40 epochs.  The seed path paid one
    dict-round-tripped steady solve per epoch plus the standalone epoch-0
    probe (41 solves); the chunked loop refreshes every ``k=4`` epochs with
    one multi-RHS batch — ``ceil(40/4) = 10`` feedback solves, bench-guarded
    to the acceptance bound ``ceil(E/k) + 1`` steady solves for the whole
    steady experiment.
    """
    from repro.core.experiment import ExperimentSettings, ThermalExperiment
    from repro.core.metrics import ThermalMetrics
    from repro.core.policy import ThresholdMigrationPolicy
    from repro.power.trace import vector_to_map

    num_epochs = 40
    stride = 4
    model = chip_a.thermal_model
    solver = model.solver
    make_policy = lambda: ThresholdMigrationPolicy(
        chip_a.topology, "xy-shift", trigger_celsius=70.0, period_us=109.0
    )

    # Seed-equivalent reference: the per-epoch feedback loop with its
    # standalone probe and one dict-path solve per epoch.
    from repro.core.controller import RuntimeReconfigurationController
    from repro.core.policy import PolicyContext

    with perf_utils.timed() as reference_timer:
        policy = make_policy()
        controller = RuntimeReconfigurationController(chip_a)
        period_s = policy.period_us * 1e-6
        previous_power = controller.static_power_vector()
        previous_thermal = None
        reference_decisions = []
        for epoch_index in range(num_epochs):
            if previous_thermal is None:
                previous_thermal = ThermalMetrics.from_map(
                    model.steady_state_by_coord(
                        vector_to_map(chip_a.topology, previous_power)
                    )
                )
            context = PolicyContext(
                epoch_index=epoch_index,
                current_thermal=previous_thermal,
                current_power_map=vector_to_map(chip_a.topology, previous_power),
                topology=chip_a.topology,
            )
            transform = policy.decide(context)
            cost = None
            if transform is not None and transform.name != "identity":
                cost = controller.apply_migration(transform, epoch_index)
                reference_decisions.append(transform.name)
            else:
                reference_decisions.append(None)
            power = controller.epoch_power_vector(period_s, cost)
            previous_thermal = ThermalMetrics.from_map(
                model.steady_state_by_coord(vector_to_map(chip_a.topology, power))
            )
            previous_power = power
            controller.advance_epoch()

    settings = ExperimentSettings(
        num_epochs=num_epochs,
        mode="steady",
        settle_epochs=num_epochs - 1,
        feedback_stride=stride,
    )
    solves_before = solver.steady_solve_count
    with perf_utils.timed() as batched_timer:
        experiment = ThermalExperiment(chip_a, make_policy(), settings=settings)
        result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    solve_delta = solver.steady_solve_count - solves_before

    # The acceptance bound: <= ceil(E/k) + 1 steady solves for the whole
    # feedback experiment (ceil(E/k) chunked feedback batches + the one
    # metrics batch) — against 1 + E for the seed loop.
    budget = -(-num_epochs // stride) + 1
    assert solve_delta <= budget, f"{solve_delta} solves > budget {budget}"
    assert experiment.feedback_plan.batch_solves == -(-num_epochs // stride)
    # Constant load: the chunked trajectory matches the seed decisions.
    assert [r.transform_applied for r in result.epochs] == reference_decisions

    speedup = reference_timer.seconds / batched_timer.seconds
    perf_utils.record_perf(
        "feedback.batched",
        batched_timer.seconds,
        throughput=num_epochs / batched_timer.seconds,
        throughput_unit="epochs/s",
        baseline_wall_s=reference_timer.seconds,
        baseline="per-epoch dict-path feedback loop + standalone probe (seed)",
        epochs=num_epochs,
        feedback_stride=stride,
        steady_solves=solve_delta,
        solve_budget=budget,
    )
    print_rows(
        "Chunked feedback (k=4) vs per-epoch feedback loop (40 epochs, chip A)",
        [
            {
                "per_epoch_ms": round(1e3 * reference_timer.seconds, 1),
                "batched_ms": round(1e3 * batched_timer.seconds, 1),
                "steady_solves": solve_delta,
                "budget": budget,
                "speedup": round(speedup, 1),
            }
        ],
    )
    # The whole batched experiment (loop + metrics) against the bare seed
    # feedback loop: must at least break even, and the structural guard
    # above is the real regression fence.
    assert speedup >= perf_utils.speedup_floor(1.0)


def test_scenario_compare_registry(benchmark):
    """Time the whole-registry comparison (the `scenario compare` CLI path)."""
    specs = all_scenarios()
    with perf_utils.timed() as timer:
        comparison = benchmark.pedantic(
            compare_scenarios, args=(specs,), rounds=1, iterations=1
        )
    assert comparison.names() == [spec.name for spec in specs]

    perf_utils.record_perf(
        "scenarios.compare.registry",
        timer.seconds,
        throughput=len(specs) / timer.seconds,
        throughput_unit="scenarios/s",
        scenarios=len(specs),
    )
    print_rows(
        "Scenario registry comparison",
        [
            {
                "scenarios": len(specs),
                "total_ms": round(1e3 * timer.seconds, 1),
                "per_scenario_ms": round(1e3 * timer.seconds / len(specs), 1),
            }
        ],
    )


def test_migration_cost_cache_engaged(chip_a):
    """A long periodic scenario computes only orbit-length migration costs."""
    from repro.core.experiment import ExperimentSettings, ThermalExperiment
    from repro.core.policy import PeriodicMigrationPolicy

    policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
    settings = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)

    with perf_utils.timed() as cached_timer:
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        experiment.run()
    controller = experiment.controller
    # xy-shift has order 4 on the 4x4 mesh: 40 migrations, 4 computations.
    assert controller.migrations_performed == 40
    assert controller.migration_cost_computations <= 4
    assert controller.migration_cache_hits >= 36

    perf_utils.record_perf(
        "experiment.steady.migration_cost_cached",
        cached_timer.seconds,
        throughput=settings.num_epochs / cached_timer.seconds,
        throughput_unit="epochs/s",
        cost_computations=controller.migration_cost_computations,
        cache_hits=controller.migration_cache_hits,
    )
    print_rows(
        "Migration-cost cache over a 41-epoch periodic experiment (chip A)",
        [
            {
                "migrations": controller.migrations_performed,
                "cost_computations": controller.migration_cost_computations,
                "cache_hits": controller.migration_cache_hits,
                "wall_ms": round(1e3 * cached_timer.seconds, 1),
            }
        ],
    )
