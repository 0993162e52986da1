"""Staged-migration equivalence suite.

Every migration is a plan, executed by ``apply_migration``/``advance_plan``
from the epoch loop; a sudden migration is the one-stage plan.  Two pins: a
fluid plan that collapses to one stage (an over-sized budget) reproduces the
sudden trajectory to <1e-9, and the per-epoch records account exactly what
the controller totals and the telemetry counters say.  The rest of the suite
covers the genuinely-staged behaviours: plan accounting, stall semantics,
the ``migration_in_progress`` policy flag and the solve-count guarantee.
"""

import numpy as np
import pytest

from repro import obs
from repro.chips import get_configuration
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    PeriodicMigrationPolicy,
    PolicyContext,
    ThresholdMigrationPolicy,
)
from repro.stream import EpochWindow
from repro.thermal.hotspot import HotSpotModel

STEADY = dict(num_epochs=13, mode="steady", settle_epochs=10)
TRANSIENT = dict(
    num_epochs=9, mode="transient", settle_epochs=6, transient_steps_per_epoch=4
)


def _policy(kind, topology):
    if kind == "threshold":
        return ThresholdMigrationPolicy(
            topology, "xy-shift", trigger_celsius=70.0, period_us=109.0
        )
    return AdaptiveMigrationPolicy(topology, period_us=109.0)


def _run(chip, policy_kind, mode_kwargs, thermal_model=None, **setting_overrides):
    settings = ExperimentSettings(**{**mode_kwargs, **setting_overrides})
    experiment = ThermalExperiment(
        chip,
        _policy(policy_kind, chip.topology),
        settings=settings,
        thermal_model=thermal_model,
    )
    return experiment, experiment.run()


def _run_with_costs(experiment):
    """``experiment.run()``, also returning its window's executed stages."""
    experiment.prepare(total_epochs=experiment.settings.num_epochs, collect_records=True)
    outcome = experiment.step_window(experiment.schedule, is_last=True)
    return outcome.costs, experiment.finalize()


def _assert_trajectories_match(result, reference, abs_tol=1e-9):
    assert result.migrations_performed == reference.migrations_performed
    assert result.throughput_penalty == pytest.approx(
        reference.throughput_penalty, abs=abs_tol
    )
    assert result.settled_peak_celsius == pytest.approx(
        reference.settled_peak_celsius, abs=abs_tol
    )
    assert result.settled_mean_celsius == pytest.approx(
        reference.settled_mean_celsius, abs=abs_tol
    )
    assert len(result.epochs) == len(reference.epochs)
    for record, expected in zip(result.epochs, reference.epochs):
        assert record.transform_applied == expected.transform_applied
        assert record.thermal.peak_celsius == pytest.approx(
            expected.thermal.peak_celsius, abs=abs_tol
        )
        assert record.thermal.mean_celsius == pytest.approx(
            expected.thermal.mean_celsius, abs=abs_tol
        )


@pytest.mark.parametrize("config_name", ["A", "E"])
@pytest.mark.parametrize("policy_kind", ["threshold", "adaptive"])
class TestSingleStageParity:
    """Fluid with a one-stage budget must match the sudden plan."""

    @pytest.mark.parametrize("mode_kwargs", [STEADY, TRANSIENT], ids=["steady", "transient"])
    def test_hotspot_model_parity(self, config_name, policy_kind, mode_kwargs):
        chip = get_configuration(config_name)
        _, sudden = _run(chip, policy_kind, mode_kwargs)
        _, staged = _run(
            chip,
            policy_kind,
            mode_kwargs,
            migration_style="fluid",
            units_per_epoch=chip.topology.num_nodes,
        )
        _assert_trajectories_match(staged, sudden)

    def test_grid_model_parity(self, config_name, policy_kind):
        chip = get_configuration(config_name)
        model = HotSpotModel(chip.topology, resolution=2)
        _, sudden = _run(chip, policy_kind, STEADY, thermal_model=model)
        _, staged = _run(
            chip,
            policy_kind,
            STEADY,
            thermal_model=model,
            migration_style="fluid",
            units_per_epoch=chip.topology.num_nodes,
        )
        _assert_trajectories_match(staged, sudden)


class TestSuddenDefault:
    def test_default_style_is_sudden(self):
        assert ExperimentSettings().migration_style == "sudden"
        assert ExperimentSettings().units_per_epoch == 2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(migration_style="teleport")
        with pytest.raises(ValueError):
            ExperimentSettings(units_per_epoch=0)

    def test_explicit_sudden_is_bit_identical_to_default(self, chip_a):
        _, default = _run(chip_a, "threshold", STEADY)
        _, explicit = _run(chip_a, "threshold", STEADY, migration_style="sudden")
        for record, expected in zip(explicit.epochs, default.epochs):
            assert record.thermal.peak_celsius == expected.thermal.peak_celsius
            assert record.migration_cycles == expected.migration_cycles
            assert record.migration_energy_j == expected.migration_energy_j


class TestStagedExecution:
    def test_plan_counts_as_one_migration(self, chip_a):
        """A fluid plan spanning several epochs is still ONE migration."""
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=13,
            settle_epochs=10,
            migration_style="fluid",
            units_per_epoch=1,
        )
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        costs, result = _run_with_costs(experiment)
        events = [event for event in costs if event is not None]
        stage_counts = {event.stage_count for event in events}
        assert max(stage_counts) > 1  # genuinely staged
        plans = sum(1 for event in events if event.stage_index == 0)
        assert result.migrations_performed == plans
        # Per-event cycle/energy accounting folds back to the totals.
        assert sum(event.cycles for event in events) == sum(
            record.migration_cycles for record in result.epochs
        )

    def test_staged_final_mapping_matches_sudden(self, chip_a):
        """However a single plan unfolds, it composes to the same mapping."""
        def final_mapping(style, units):
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "rotation", period_us=109.0
            )
            settings = ExperimentSettings(
                num_epochs=2,
                settle_epochs=1,
                migration_style=style,
                units_per_epoch=units,
            )
            experiment = ThermalExperiment(chip_a, policy, settings=settings)
            experiment.run()
            # Drain the in-flight plan so every style completes its one plan.
            while experiment.controller.migration_in_progress:
                experiment.controller.advance_plan()
            return experiment.controller.nodes.tolist()

        sudden = final_mapping("sudden", 2)
        assert final_mapping("fluid", 1) == sudden
        assert final_mapping("batched", 2) == sudden

    def test_policy_sees_migration_in_progress(self, chip_a):
        seen = []

        class RecordingPolicy(PeriodicMigrationPolicy):
            def decide(self, context: PolicyContext):
                seen.append(context.migration_in_progress)
                return super().decide(context)

        policy = RecordingPolicy(chip_a.topology, "rotation", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=8,
            settle_epochs=4,
            migration_style="fluid",
            units_per_epoch=1,
        )
        ThermalExperiment(chip_a, policy, settings=settings).run()
        assert any(seen)  # mid-plan epochs advertise the in-flight plan
        assert not seen[0]  # nothing in flight before the first decision

    def test_stalled_epochs_counted(self, chip_a):
        """Decisions that wanted a migration while a plan is in flight bump
        the ``migration.stalled_epochs`` counter."""
        registry = obs.get_registry()
        stalled = registry.counter("migration.stalled_epochs")
        obs.enable()
        try:
            before = stalled.value
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "rotation", period_us=109.0
            )
            settings = ExperimentSettings(
                num_epochs=10,
                settle_epochs=5,
                migration_style="fluid",
                units_per_epoch=1,
            )
            ThermalExperiment(chip_a, policy, settings=settings).run()
            assert stalled.value > before
        finally:
            obs.disable()

    def test_fluid_plans_span_epochs(self, chip_a):
        """Rotation on the 4x4 mesh lowers to eight 2-cycles, so a
        one-cycle-per-epoch fluid plan spans 8 epochs: fewer plans fit 64
        epochs than sudden's one migration per epoch, and each style's run
        is still one batched steady solve."""
        solver = chip_a.thermal_model.solver
        migrations = {}
        for style in ("sudden", "fluid"):
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "rotation", period_us=109.0
            )
            settings = ExperimentSettings(
                num_epochs=64,
                settle_epochs=32,
                migration_style=style,
                units_per_epoch=1,
            )
            before = solver.steady_solve_count
            result = ThermalExperiment(chip_a, policy, settings=settings).run()
            assert solver.steady_solve_count - before == 1
            migrations[style] = result.migrations_performed
        assert 0 < migrations["fluid"] < migrations["sudden"]

    def test_staged_steady_run_is_one_batched_solve(self, chip_a):
        solver = chip_a.thermal_model.solver
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=13,
            settle_epochs=10,
            migration_style="fluid",
            units_per_epoch=2,
        )
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        before = solver.steady_solve_count
        experiment.run()
        assert solver.steady_solve_count - before == 1


def _periodic_run(chip, style, include_migration_energy=True):
    settings = ExperimentSettings(
        num_epochs=6,
        settle_epochs=3,
        migration_style=style,
        include_migration_energy=include_migration_energy,
    )
    experiment = ThermalExperiment(
        chip,
        PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0),
        settings=settings,
    )
    return _run_with_costs(experiment)


@pytest.mark.parametrize("style", ["sudden", "fluid", "batched"])
class TestMigrationAccounting:
    @pytest.mark.parametrize("energy", [True, False], ids=["energy", "no-energy"])
    def test_epoch_energy_sums_to_total(self, chip_a, style, energy):
        """Per-epoch migration energy is what the controller charged: it sums
        to the run's total, and is zero everywhere when excluded."""
        _, result = _periodic_run(chip_a, style, include_migration_energy=energy)
        per_epoch = [record.migration_energy_j for record in result.epochs]
        assert result.migrations_performed > 0
        assert sum(per_epoch) == pytest.approx(
            result.total_migration_energy_j, rel=1e-12, abs=0.0
        )
        if energy:
            assert result.total_migration_energy_j > 0.0
        else:
            assert per_epoch == [0.0] * len(per_epoch)

    def test_every_migration_counts_in_telemetry(self, chip_a, style):
        """``migration.plans`` counts every migration and
        ``migration.stages`` every executed stage, sudden ones included."""
        registry = obs.get_registry()
        plans = registry.counter("migration.plans")
        stages = registry.counter("migration.stages")
        obs.enable()
        try:
            plans_before, stages_before = plans.value, stages.value
            costs, result = _periodic_run(chip_a, style)
            assert plans.value - plans_before == result.migrations_performed
            executed = sum(event is not None for event in costs)
            assert stages.value - stages_before == executed
        finally:
            obs.disable()
        assert result.migrations_performed > 0


class TestCyclesRunCheckpoint:
    def test_state_dict_round_trips_cycles_run(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=12, settle_epochs=6)
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        experiment.prepare(collect_records=False)
        experiment.step_window(EpochWindow(num_epochs=6))
        state = experiment.state_dict()
        assert state["cycles_run"] == experiment._cycles_run
        assert state["cycles_run"] > 0

        resumed = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=settings,
        )
        resumed.prepare(collect_records=False)
        resumed.restore_state(state)
        assert resumed._cycles_run == experiment._cycles_run


class TestPeriodSchedule:
    def test_period_scale_shapes_validated(self, chip_a):
        with pytest.raises(ValueError, match="period_scale"):
            EpochWindow(num_epochs=4, period_scale=np.ones(3))
        with pytest.raises(ValueError, match="period_scale"):
            EpochWindow(num_epochs=4, period_scale=np.array([1.0, 0.0, 1.0, 1.0]))
        # A schedule must cover exactly the run's horizon.
        with pytest.raises(ValueError, match="schedule covers 3 epochs"):
            ThermalExperiment(
                chip_a,
                PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
                settings=ExperimentSettings(num_epochs=4, settle_epochs=2),
                schedule=EpochWindow(num_epochs=3, period_scale=np.ones(3)),
            )

    @pytest.mark.parametrize("scale, period", [(1e-320, "0.0"), (1e308, "inf")])
    def test_degenerate_period_raises_before_state_moves(self, chip_a, scale, period):
        """A positive scale whose period rounds to 0.0 s or overflows to
        inf s is refused by name, and the run can go on from where it was."""
        experiment = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=ExperimentSettings(num_epochs=6, settle_epochs=2),
        )
        experiment.prepare(total_epochs=6)
        experiment.step_window(EpochWindow(num_epochs=2))
        migrations = experiment.controller.migrations_performed
        nodes = experiment.controller.nodes.copy()
        cycles = experiment._cycles_run
        with pytest.raises(
            ValueError, match=f"^epoch 3: period of {period} s is not positive and finite$"
        ):
            experiment.step_window(
                EpochWindow(num_epochs=2, period_scale=np.array([1.0, scale]))
            )
        assert experiment.controller.migrations_performed == migrations
        assert np.array_equal(experiment.controller.nodes, nodes)
        assert experiment._cycles_run == cycles
        outcome = experiment.step_window(EpochWindow(num_epochs=2))
        assert outcome.start_epoch == 2

    def test_wrong_unit_modulation_raises_before_state_moves(self, chip_a):
        """A load modulation of the wrong unit count is refused before the
        cycle count, the feedback plan's offsets or any other state moves."""
        experiment = ThermalExperiment(
            chip_a,
            ThresholdMigrationPolicy(
                chip_a.topology, "xy-shift", trigger_celsius=70.0, period_us=109.0
            ),
            settings=ExperimentSettings(num_epochs=6, settle_epochs=2),
        )
        experiment.prepare(total_epochs=6)
        experiment.step_window(
            EpochWindow(num_epochs=2, ambient_offsets=np.array([0.5, 1.0]))
        )
        state = experiment.state_dict()
        offsets = np.array([1.5, 2.0])
        with pytest.raises(ValueError, match="load_modulation has 3 units, chip has 16"):
            experiment.step_window(
                EpochWindow(
                    num_epochs=2,
                    load_modulation=np.ones((2, 3)),
                    ambient_offsets=offsets,
                )
            )
        assert experiment.state_dict() == state
        outcome = experiment.step_window(
            EpochWindow(num_epochs=2, ambient_offsets=offsets)
        )
        assert outcome.start_epoch == 2

    def test_refusal_after_the_loop_ends_the_run(self, chip_a):
        """A window refused once its loop has run (here its temperature
        overflows) has moved the mapping and the cursors: the run ends
        rather than skip the refused epochs and go on."""
        experiment = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=ExperimentSettings(num_epochs=6, settle_epochs=2, mode="transient"),
        )
        experiment.prepare(total_epochs=6)
        experiment.step_window(EpochWindow(num_epochs=2))
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="^epoch 3: temperature is not finite"
        ):
            experiment.step_window(
                EpochWindow(num_epochs=2, load_modulation=np.array([1.0, 1e306]))
            )
        with pytest.raises(RuntimeError):
            experiment.step_window(EpochWindow(num_epochs=2))
        with pytest.raises(RuntimeError):
            experiment.state_dict()
        with pytest.raises(RuntimeError):
            experiment.finalize()

    def test_unit_schedule_matches_unscheduled_run(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=8, settle_epochs=4)
        plain = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=settings,
        )
        scheduled = ThermalExperiment(
            chip_a,
            policy,
            settings=settings,
            schedule=EpochWindow(num_epochs=8, period_scale=np.ones(8)),
        )
        plain_result = plain.run()
        scheduled_result = scheduled.run()
        assert scheduled._cycles_run == plain._cycles_run
        assert scheduled_result.settled_peak_celsius == pytest.approx(
            plain_result.settled_peak_celsius, abs=1e-9
        )

    def test_longer_periods_lower_throughput_penalty(self, chip_a):
        """Stretching the epochs amortises the same migration downtime over
        more workload cycles, so the penalty must drop."""
        def penalty(scale):
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "xy-shift", period_us=109.0
            )
            settings = ExperimentSettings(num_epochs=8, settle_epochs=4)
            experiment = ThermalExperiment(
                chip_a, policy, settings=settings,
                schedule=EpochWindow(num_epochs=8, period_scale=np.full(8, scale)),
            )
            return experiment.run().throughput_penalty

        assert penalty(4.0) < penalty(1.0)


class TestCongestionPricedPerRate:
    """A window prices each distinct NoC rate once, through the same scalar
    ``congestion_factor``, and charges exactly what per-epoch pricing does."""

    def test_each_rate_priced_once_and_cycles_equal_per_epoch_pricing(
        self, monkeypatch
    ):
        import repro.core.experiment as experiment_module
        from epoch_loop_oracle import PerEpochExperiment

        from repro.migration.plan import congestion_factor
        from repro.scenarios import get_scenario
        from repro.scenarios.compile import compile_scenario, run_scenario

        priced = []

        def counting(model, rate):
            priced.append(rate)
            return congestion_factor(model, rate)

        monkeypatch.setattr(experiment_module, "congestion_factor", counting)
        spec = get_scenario("fluid-under-burst")
        compiled = compile_scenario(spec)
        cycles = run_scenario(compiled).experiment.epochs.cycles
        rates = compiled.window.noc_rates
        # 47 epochs execute a stage; their rates take two values.
        assert np.count_nonzero(cycles) == 47
        assert sorted(priced) == np.unique(rates).tolist()

        oracle = PerEpochExperiment(
            compiled.configuration,
            compiled.policy,
            settings=compiled.settings,
            schedule=compiled.window,
            noc_model=compiled.noc_model,
        )
        oracle.prepare(total_epochs=spec.num_epochs, collect_records=True)
        oracle.step_window(compiled.window, is_last=True)
        expected = [record.migration_cycles for record in oracle.records()]
        assert cycles.tolist() == expected
        assert len(set(expected) - {0}) > 2
