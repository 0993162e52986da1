"""Tests for the runtime reconfiguration controller."""

import numpy as np
import pytest

from repro.core.controller import RuntimeReconfigurationController
from repro.migration.plan import lower_transform
from repro.migration.transforms import RotationTransform, XYShiftTransform, make_transform
from repro.migration.unit import MigrationUnit


@pytest.fixture
def controller_a(chip_a):
    return RuntimeReconfigurationController(chip_a)


class TestMigrationApplication:
    def test_starts_at_static_mapping(self, controller_a, chip_a):
        assert controller_a.current_mapping == chip_a.static_mapping

    def test_apply_migration_updates_mapping(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        expected = chip_a.static_mapping.apply_transform(transform)
        assert controller_a.current_mapping == expected
        assert controller_a.migrations_performed == 1

    def test_migration_history_accumulates(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(3):
            controller_a.apply_migration(transform)
        assert controller_a.migrations_performed == 3
        assert controller_a.total_migration_cycles > 0
        assert controller_a.total_migration_energy_j > 0

    def test_io_translator_tracks_migrations(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        assert controller_a.io_translator.migrations_applied == 1
        assert controller_a.io_translator.current_location((0, 0)) == transform((0, 0))

    def test_event_records_moved_tasks(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        assert controller_a.events[0].moved_tasks == chip_a.num_units

    def test_rotation_on_odd_mesh_leaves_one_task(self, chip_e):
        controller = RuntimeReconfigurationController(chip_e)
        controller.apply_migration(RotationTransform(chip_e.topology))
        assert controller.events[0].moved_tasks == chip_e.num_units - 1

    def test_reset(self, controller_a, chip_a):
        controller_a.apply_migration(XYShiftTransform(chip_a.topology))
        controller_a.reset()
        assert controller_a.current_mapping == chip_a.static_mapping
        assert controller_a.migrations_performed == 0
        assert controller_a.io_translator.migrations_applied == 0


class TestMigrationCostCache:
    def test_orbit_computes_each_mapping_once(self, controller_a, chip_a):
        """A periodic transform revisits its orbit: one lowering per step.

        xy-shift on the 4x4 mesh has order 4, so 12 applications see only 4
        distinct (transform, mapping) pairs — the rest are cache hits.
        """
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(12):
            controller_a.apply_migration(transform)
        assert controller_a.migration_cost_computations == 4
        assert controller_a.migration_cache_hits == 8
        assert controller_a.migrations_performed == 12

    def test_cache_survives_reset(self, controller_a, chip_a):
        """Plans are pure functions of (transform, mapping): reuse across runs."""
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(4):
            controller_a.apply_migration(transform)
        computed = controller_a.migration_cost_computations
        controller_a.reset()
        for _ in range(4):
            controller_a.apply_migration(transform)
        assert controller_a.migration_cost_computations == computed

    def test_cached_results_match_uncached(self, chip_a):
        """Cached events equal a fresh lowering: ``lower_transform`` and
        ``Mapping.apply_transform`` called directly, step after step."""
        cached = RuntimeReconfigurationController(chip_a)
        unit = MigrationUnit(chip_a.topology, library=chip_a.library)
        transform = XYShiftTransform(chip_a.topology)
        mapping = chip_a.static_mapping
        coords = list(chip_a.topology.coordinates())
        for _ in range(8):
            (stage,) = lower_transform(
                transform, unit, chip_a.tanner_nodes_per_pe(mapping)
            ).stages
            mapping = mapping.apply_transform(transform)
            event = cached.apply_migration(transform)
            assert (event.stage_index, event.stage_count) == (0, 1)
            assert event.cycles == stage.cycles
            assert event.energy_j == stage.energy_j
            assert event.moved_tasks == stage.moved
            assert np.array_equal(
                event.energy_vector,
                [stage.energy_per_unit_j[coord] for coord in coords],
            )
            assert cached.current_mapping == mapping
        assert cached.migration_cost_computations == 4
        assert cached.migration_cache_hits == 4

    def test_distinct_transforms_not_conflated(self, controller_a, chip_a):
        """Two transforms from the same mapping must cache separately."""
        shift = XYShiftTransform(chip_a.topology)
        rotation = RotationTransform(chip_a.topology)
        event_shift = controller_a.apply_migration(shift)
        controller_a.reset()
        event_rotation = controller_a.apply_migration(rotation)
        assert controller_a.migration_cost_computations == 2
        assert event_shift.cycles != event_rotation.cycles or (
            event_shift.energy_j != event_rotation.energy_j
        )

    def test_styles_cache_separately(self, controller_a, chip_a):
        """The memo keys the style and budget: every style lowers once."""
        rotation = RotationTransform(chip_a.topology)
        for style in ("sudden", "fluid", "batched"):
            controller_a.reset()
            controller_a.apply_migration(rotation, style=style)
            while controller_a.migration_in_progress:
                controller_a.advance_plan()
        assert controller_a.migration_cost_computations == 3
        assert controller_a.migration_cache_hits == 0


class TestCheckpointValidation:
    def test_restore_rejects_a_mapping_that_is_not_a_permutation(self, controller_a):
        state = controller_a.state_dict()
        state["mapping"][0] = state["mapping"][1]
        with pytest.raises(ValueError, match="rearrangement"):
            RuntimeReconfigurationController(controller_a.configuration).restore_state(state)

    def test_restore_rejects_a_next_stage_outside_the_plan(self, controller_a, chip_a):
        event = controller_a.apply_migration(
            RotationTransform(chip_a.topology), style="fluid", units_per_epoch=1
        )
        state = controller_a.state_dict()
        state["plan"]["next_stage"] = event.stage_count
        with pytest.raises(ValueError, match="next stage"):
            RuntimeReconfigurationController(chip_a).restore_state(state)


class TestEnergyAccounting:
    def test_energy_disabled_when_requested(self, chip_a):
        controller = RuntimeReconfigurationController(chip_a, include_migration_energy=False)
        controller.apply_migration(XYShiftTransform(chip_a.topology))
        assert controller.total_migration_energy_j == 0.0

    def test_epoch_power_map_adds_migration_energy(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        event = controller_a.apply_migration(transform)
        period_s = 109e-6
        with_energy = controller_a.epoch_power_map(period_s, event)
        without_energy = controller_a.epoch_power_map(period_s, None)
        assert sum(with_energy.values()) > sum(without_energy.values())
        extra = sum(with_energy.values()) - sum(without_energy.values())
        assert extra == pytest.approx(event.energy_vector.sum() / period_s, rel=1e-6)
        assert event.energy_vector.sum() == pytest.approx(event.energy_j, rel=1e-12)

    def test_epoch_power_map_moves_with_tasks(self, controller_a, chip_a):
        static_power = controller_a.epoch_power_map(109e-6)
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        migrated_power = controller_a.epoch_power_map(109e-6)
        # The hottest unit's power moved to its transformed location.
        hottest = max(static_power, key=static_power.get)
        assert migrated_power[transform(hottest)] >= static_power[hottest] - 1e-9

    def test_epoch_power_requires_positive_period(self, controller_a):
        with pytest.raises(ValueError):
            controller_a.epoch_power_map(0.0)

    def test_static_power_map_matches_configuration(self, controller_a, chip_a):
        assert controller_a.static_power_map() == chip_a.power_map()
