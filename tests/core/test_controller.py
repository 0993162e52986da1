"""Tests for the runtime reconfiguration controller."""

import dataclasses

import numpy as np
import pytest

from repro.chips.configurations import _make_configuration
from repro.chips.profiles import hot_row_profile
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.plan import lower_transform
from repro.migration.transforms import RotationTransform, XYShiftTransform, make_transform
from repro.migration.unit import MigrationUnit
from repro.noc.topology import MeshTopology
from repro.power.trace import map_to_vector
from repro.stream.checkpoint import encode_checkpoint


@pytest.fixture
def controller_a(chip_a):
    return RuntimeReconfigurationController(chip_a)


@pytest.fixture
def fresh_chip_a(chip_a):
    """Chip A with a migration unit, and so a plan memo, of its own.

    Every controller of one configuration object shares its plans, and the
    named chip's memo is warm from earlier tests; lowering counts need a
    cold one.
    """
    return dataclasses.replace(chip_a)


@pytest.fixture
def fresh_controller_a(fresh_chip_a):
    return RuntimeReconfigurationController(fresh_chip_a)


class TestMigrationApplication:
    def test_starts_at_static_mapping(self, controller_a, chip_a):
        assert controller_a.nodes.tolist() == chip_a.static_mapping.to_permutation()

    def test_apply_migration_updates_mapping(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        expected = chip_a.static_mapping.apply_transform(transform)
        assert controller_a.nodes.tolist() == expected.to_permutation()
        assert controller_a.migrations_performed == 1

    def test_migration_history_accumulates(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(3):
            controller_a.apply_migration(transform)
        assert controller_a.migrations_performed == 3
        assert controller_a.total_migration_cycles > 0
        assert controller_a.total_migration_energy_j > 0

    def test_io_translator_tracks_migrations(self, controller_a, chip_a):
        """The translator is a view of the mapping: each design-time
        location maps to where its workload runs now."""
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        translator = controller_a.io_translator
        for coord in chip_a.topology.coordinates():
            assert translator.current_location(coord) == transform(coord)
            assert translator.original_location(transform(coord)) == coord

    def test_event_records_moved_tasks(self, controller_a, chip_a):
        event = controller_a.apply_migration(XYShiftTransform(chip_a.topology))
        assert event.moved_tasks == chip_a.num_units

    def test_rotation_on_odd_mesh_leaves_one_task(self, chip_e):
        controller = RuntimeReconfigurationController(chip_e)
        event = controller.apply_migration(RotationTransform(chip_e.topology))
        assert event.moved_tasks == chip_e.num_units - 1

    @pytest.mark.parametrize("style", ["sudden", "fluid"])
    def test_held_nodes_survive_later_stages(self, controller_a, chip_a, style):
        """The chunk loop keeps each epoch's ``nodes`` until the chunk's
        power rows are emitted, so no stage may mutate an array it handed out."""
        held = [controller_a.nodes]
        controller_a.apply_migration(
            RotationTransform(chip_a.topology), style=style, units_per_epoch=1
        )
        held.append(controller_a.nodes)
        while controller_a.migration_in_progress:
            controller_a.advance_plan()
            held.append(controller_a.nodes)
        snapshots = [nodes.copy() for nodes in held]
        controller_a.apply_migration(XYShiftTransform(chip_a.topology))
        for nodes, snapshot in zip(held, snapshots):
            assert np.array_equal(nodes, snapshot)
        assert held[0].tolist() == chip_a.static_mapping.to_permutation()
        assert not np.array_equal(controller_a.nodes, held[-1])

    def test_reset(self, controller_a, chip_a):
        controller_a.apply_migration(XYShiftTransform(chip_a.topology))
        controller_a.reset()
        assert controller_a.nodes.tolist() == chip_a.static_mapping.to_permutation()
        assert controller_a.migrations_performed == 0
        for coord in chip_a.topology.coordinates():
            assert controller_a.io_translator.current_location(coord) == coord


class TestMigrationCostCache:
    def test_orbit_computes_each_mapping_once(self, fresh_controller_a, chip_a):
        """A periodic transform revisits its orbit: one lowering per step.

        xy-shift on the 4x4 mesh has order 4, so 12 applications see only 4
        distinct (transform, mapping) pairs — the rest are cache hits.
        """
        controller = fresh_controller_a
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(12):
            controller.apply_migration(transform)
        assert controller.migration_cost_computations == 4
        assert controller.migration_cache_hits == 8
        assert controller.migrations_performed == 12

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

    def test_second_controller_on_the_same_chip_lowers_nothing(self, fresh_chip_a):
        """The memo belongs to the chip, so a later run finds every plan."""
        transform = XYShiftTransform(fresh_chip_a.topology)
        first = RuntimeReconfigurationController(fresh_chip_a)
        second = RuntimeReconfigurationController(fresh_chip_a)
        assert second.migration_unit is first.migration_unit
        events = [first.apply_migration(transform) for _ in range(8)]
        assert [second.apply_migration(transform) for _ in range(8)] == events
        assert first.migration_cost_computations == 4
        assert second.migration_cost_computations == 0
        assert second.migration_cache_hits == 8
        assert len(fresh_chip_a.migration_unit.plans) == 4

    def test_copied_chip_gets_its_own_memo(self, chip_a):
        copy = dataclasses.replace(chip_a)
        assert copy == chip_a
        assert copy.migration_unit is not chip_a.migration_unit
        assert len(copy.migration_unit.plans) == 0

    def test_cached_results_match_uncached(self, fresh_chip_a):
        """Cached events equal a fresh lowering: ``lower_transform`` and
        ``Mapping.apply_transform`` called directly, step after step."""
        chip = fresh_chip_a
        cached = RuntimeReconfigurationController(chip)
        unit = MigrationUnit(chip.topology, library=chip.library)
        transform = XYShiftTransform(chip.topology)
        mapping = chip.static_mapping
        sizes = chip.tanner_nodes_per_task()
        for _ in range(8):
            hosted = [0] * chip.num_units
            for task, count in sizes.items():
                hosted[chip.topology.node_id(mapping.physical_of(task))] = count
            (stage,) = lower_transform(transform, unit, hosted).stages
            mapping = mapping.apply_transform(transform)
            event = cached.apply_migration(transform)
            assert (event.stage_index, event.stage_count) == (0, 1)
            assert event.cycles == stage.cycles
            assert event.energy_j == stage.energy_j
            assert event.moved_tasks == stage.moved
            assert np.array_equal(event.energy_vector, stage.energy)
            assert cached.nodes.tolist() == mapping.to_permutation()
        assert cached.migration_cost_computations == 4
        assert cached.migration_cache_hits == 4

    def test_distinct_transforms_not_conflated(self, fresh_controller_a, chip_a):
        """Two transforms from the same mapping must cache separately."""
        controller = fresh_controller_a
        shift = XYShiftTransform(chip_a.topology)
        rotation = RotationTransform(chip_a.topology)
        event_shift = controller.apply_migration(shift)
        controller.reset()
        event_rotation = controller.apply_migration(rotation)
        assert controller.migration_cost_computations == 2
        assert event_shift.cycles != event_rotation.cycles or (
            event_shift.energy_j != event_rotation.energy_j
        )

    def test_styles_cache_separately(self, fresh_controller_a, chip_a):
        """The memo keys the style and budget: every style lowers once."""
        controller = fresh_controller_a
        rotation = RotationTransform(chip_a.topology)
        for style in ("sudden", "fluid", "batched"):
            controller.reset()
            controller.apply_migration(rotation, style=style)
            while controller.migration_in_progress:
                controller.advance_plan()
        assert controller.migration_cost_computations == 3
        assert controller.migration_cache_hits == 0


@pytest.fixture(scope="module")
def chip_4x1():
    """A 4x1 chip: its x-mirror is its xy-mirror, its right-shift its xy-shift."""
    topology = MeshTopology(4, 1)
    profile = hot_row_profile(
        topology, hot_row=0, base_power_w=1.0, hot_multiplier=2.0, gradient=0.1, seed=3
    )
    return _make_configuration(
        name="A",
        topology=topology,
        profile=profile,
        partition_strategy="striped",
        code_p=13,
        seed=3,
        description="4x1 mesh",
    )


class TestMemoKeyNamesTheTransform:
    @pytest.mark.parametrize(
        "first, second", [("x-mirror", "xy-mirror"), ("right-shift", "xy-shift")]
    )
    def test_same_permutation_keeps_its_own_name(self, chip_4x1, first, second):
        """Two transforms with one node permutation report their own names in
        the returned event, on one controller or two."""
        topology = chip_4x1.topology
        lowered, later = make_transform(first, topology), make_transform(second, topology)
        assert np.array_equal(lowered.node_permutation(), later.node_permutation())
        controller = RuntimeReconfigurationController(chip_4x1)
        assert controller.apply_migration(lowered).transform_name == first
        controller.reset()
        event = controller.apply_migration(later)
        assert (event.transform_name, event.stage_index) == (second, 0)
        assert controller.migrations_performed == 1
        other = RuntimeReconfigurationController(chip_4x1)
        assert other.apply_migration(lowered).transform_name == first
        assert other.apply_migration(later).transform_name == second


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

    def test_power_rows_add_migration_energy(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        period_s = 109e-6
        decisions = [transform, None]
        (with_energy, without_energy), (event, idle), stalled = controller_a.walk(
            0, lambda epoch, in_flight: decisions[epoch], np.array([period_s, period_s])
        )
        assert idle is None and stalled == 0
        assert with_energy.sum() > without_energy.sum()
        extra = with_energy.sum() - without_energy.sum()
        assert extra == pytest.approx(event.energy_vector.sum() / period_s, rel=1e-6)
        assert event.energy_vector.sum() == pytest.approx(event.energy_j, rel=1e-12)

    def test_power_rows_move_with_tasks(self, controller_a, chip_a):
        period = np.array([109e-6])
        (static_power,), _, _ = controller_a.walk(0, lambda epoch, in_flight: None, period)
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        (migrated_power,), _, _ = controller_a.walk(
            1, lambda epoch, in_flight: None, period
        )
        # The hottest unit's power moved to its transformed location.
        topology = chip_a.topology
        hottest = list(topology.coordinates())[int(static_power.argmax())]
        moved = topology.node_id(transform(hottest))
        assert migrated_power[moved] >= static_power.max() - 1e-9

    def test_power_rows_do_not_depend_on_the_chunking(self, chip_a):
        """One walk over a run of epochs equals its epochs walked one at a
        time: the chunk loop may split a window anywhere."""
        rotation = RotationTransform(chip_a.topology)
        shift = XYShiftTransform(chip_a.topology)
        # Idle, a fluid rotation (stalling on repeats), an identity epoch,
        # then xy-shift around its orbit and back to a rotation.
        decisions = [None, rotation, rotation, None, rotation, None]
        decisions += [make_transform("identity", chip_a.topology)] + [shift] * 6
        decisions += [rotation] * 5
        periods = np.linspace(100e-6, 200e-6, len(decisions))

        def decide(epoch, in_flight):
            return decisions[epoch]

        whole = RuntimeReconfigurationController(chip_a)
        rows, events, stalled = whole.walk(
            0, decide, periods, style="fluid", units_per_epoch=1
        )
        single = RuntimeReconfigurationController(chip_a)
        one_at_a_time = [
            single.walk(
                epoch, decide, periods[epoch : epoch + 1], style="fluid", units_per_epoch=1
            )
            for epoch in range(len(decisions))
        ]
        assert np.array_equal(rows, np.concatenate([row for row, _, _ in one_at_a_time]))
        assert events == [event for _, (event,), _ in one_at_a_time]
        assert stalled == sum(count for _, _, count in one_at_a_time) > 0
        assert np.array_equal(rows[0], whole.static_power_vector())
        assert encode_checkpoint(whole.state_dict()) == encode_checkpoint(
            single.state_dict()
        )

    def test_static_power_vector_matches_configuration(self, controller_a, chip_a):
        assert np.array_equal(
            controller_a.static_power_vector(),
            map_to_vector(chip_a.topology, chip_a.power_map()),
        )
