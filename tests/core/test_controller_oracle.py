"""Differential test: the array-native controller against the seed semantics.

The oracle below implements the controller's semantics on the seed's data
structures: a :class:`Mapping` moved by ``apply_transform`` or by a stage's
coordinate moves, a dict-composed I/O translator, uncached costs straight
from :class:`MigrationUnit`, and power rows built per task from the
configuration.  Hypothesis drives both through the same random sequences of
sudden migrations, fluid and batched plan stages, resets and checkpoint round
trips on chips A-E; everything observable must be ``==``.
"""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.plan import lower_transform, priced_stage_cycles
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform
from repro.migration.unit import MigrationUnit
from repro.placement.mapping import Mapping

PERIOD_S = 109e-6


class SeedController:
    """Dict/``Mapping`` controller semantics, the behavioural reference."""

    def __init__(self, chip):
        self.chip = chip
        self.topology = chip.topology
        self.unit = MigrationUnit(chip.topology, library=chip.library)
        self.reset()

    def reset(self):
        self.mapping = self.chip.static_mapping.copy()
        self.current_of_original = {c: c for c in self.topology.coordinates()}
        self.applied = 0
        self.epoch_index = 0
        self.migrations = 0
        self.cycles = 0
        self.energy_j = 0.0
        self.plan = None
        self.next_stage = 0

    # -- migrations ------------------------------------------------------
    def apply_migration(self, transform):
        nodes = self.chip.tanner_nodes_per_pe(self.mapping)
        cost = self.unit.migration_cost(transform, nodes)
        self.mapping = self.mapping.apply_transform(transform)
        self.current_of_original = {
            original: transform(current)
            for original, current in self.current_of_original.items()
        }
        self.applied += 1
        self.migrations += 1
        self.cycles += cost.cycles
        self.energy_j += cost.total_energy_j
        return cost.cycles, cost.total_energy_j, cost.energy_per_unit_j

    def begin_plan(self, transform, style, units):
        self.plan = lower_transform(
            transform,
            self.unit,
            self.chip.tanner_nodes_per_pe(self.mapping),
            style=style,
            units_per_epoch=units,
        )
        self.next_stage = 0
        self.migrations += 1

    def advance_plan(self, congestion):
        if self.plan is None:
            return None
        stage = self.plan.stages[self.next_stage]
        cycles = priced_stage_cycles(stage, congestion)
        moves = stage.mapping_moves()
        if moves:
            self.mapping = Mapping(
                self.topology,
                {
                    task: moves.get(coord, coord)
                    for task, coord in self.mapping.physical_of_task.items()
                },
            )
            self.current_of_original = {
                original: moves.get(current, current)
                for original, current in self.current_of_original.items()
            }
            self.applied += 1
        self.cycles += cycles
        self.energy_j += stage.energy_j
        self.next_stage += 1
        if self.next_stage >= self.plan.num_stages:
            self.plan = None
            self.next_stage = 0
        return cycles, stage.energy_j, dict(stage.energy_per_unit_j)

    # -- views -----------------------------------------------------------
    def epoch_power_vector(self, energy_per_unit):
        power = self.chip.power_vector(self.mapping)
        for coord, energy in (energy_per_unit or {}).items():
            if energy == 0.0:
                continue
            power[self.topology.node_id(coord)] += energy / PERIOD_S
        return power

    def original_location(self, current):
        for original, location in self.current_of_original.items():
            if location == current:
                return original
        raise ValueError(current)

    def state_dict(self):
        state = {
            "mapping": self.mapping.to_permutation(),
            "epoch_index": self.epoch_index,
            "migrations": self.migrations,
            "migration_cycles": self.cycles,
            "migration_energy_j": self.energy_j,
            "io": {
                "permutation": [
                    self.topology.node_id(self.current_of_original[coord])
                    for coord in self.topology.coordinates()
                ],
                "applied": self.applied,
            },
        }
        if self.plan is not None:
            state["plan"] = {
                "plan": self.plan.to_dict(self.topology),
                "next_stage": self.next_stage,
            }
        return state


def assert_agree(controller, cost, oracle, energy_per_unit):
    """Mapping, translator lookups, checkpoint JSON and power row all equal."""
    assert controller.current_mapping == oracle.mapping
    for coord in oracle.topology.coordinates():
        assert controller.io_translator.current_location(coord) == (
            oracle.current_of_original[coord]
        )
        assert controller.io_translator.original_location(coord) == (
            oracle.original_location(coord)
        )
    assert json.dumps(controller.state_dict()) == json.dumps(oracle.state_dict())
    expected = oracle.epoch_power_vector(energy_per_unit)
    assert np.array_equal(controller.epoch_power_vector(PERIOD_S, cost), expected)


advance = st.tuples(st.just("advance"), st.floats(0.5, 3.0))
actions = st.lists(
    st.one_of(
        st.tuples(st.just("sudden"), st.sampled_from(FIGURE1_SCHEMES)),
        st.tuples(
            st.just("plan"),
            st.sampled_from(FIGURE1_SCHEMES),
            st.sampled_from(["fluid", "batched"]),
            st.integers(1, 6),
        ),
        advance,
        advance,  # plans span several stages: advance twice as often
        st.tuples(st.just("reset")),
        st.tuples(st.just("roundtrip")),
    ),
    min_size=1,
    max_size=16,
)


class TestArrayControllerMatchesSeedSemantics:
    @given(chip_name=st.sampled_from("ABCDE"), steps=actions)
    # A stage applied after a different transform does not commute with
    # it, so composing in the wrong order shows in the mapping.
    @example(
        chip_name="A",
        steps=[("sudden", "xy-shift"), ("plan", "rotation", "fluid", 1), ("advance", 1.0)],
    )
    @example(
        chip_name="E",
        steps=[
            ("plan", "x-mirror", "batched", 2),
            ("roundtrip",),
            ("sudden", "rotation"),
            ("advance", 2.0),
            ("advance", 2.0),
        ],
    )
    @settings(max_examples=80, deadline=None)
    def test_random_sequences(self, chip_name, steps):
        chip = get_configuration(chip_name)
        controller = RuntimeReconfigurationController(chip)
        oracle = SeedController(chip)
        transforms = {
            scheme: make_transform(scheme, chip.topology) for scheme in FIGURE1_SCHEMES
        }
        # The most recent migration's cost on each side (what the epoch
        # loop charges to that epoch's power row).
        cost = energy_per_unit = None
        for step in steps:
            kind = step[0]
            if kind == "sudden":
                cost = controller.apply_migration(transforms[step[1]])
                expected = oracle.apply_migration(transforms[step[1]])
                assert (cost.cycles, cost.total_energy_j, cost.energy_per_unit_j) == expected
                energy_per_unit = expected[2]
            elif kind == "plan":
                if controller.migration_in_progress:
                    continue
                controller.begin_plan(
                    transforms[step[1]], style=step[2], units_per_epoch=step[3]
                )
                oracle.begin_plan(transforms[step[1]], step[2], step[3])
            elif kind == "advance":
                stage = controller.advance_plan(congestion=step[1])
                expected = oracle.advance_plan(step[1])
                if expected is None:
                    assert stage is None
                    continue
                assert (stage.cycles, stage.total_energy_j) == expected[:2]
                cost, energy_per_unit = stage, expected[2]
            elif kind == "reset":
                controller.reset()
                oracle.reset()
                cost = energy_per_unit = None
            else:
                state = json.loads(json.dumps(controller.state_dict()))
                controller = RuntimeReconfigurationController(chip)
                controller.restore_state(state)
            controller.advance_epoch()
            oracle.epoch_index += 1
            assert_agree(controller, cost, oracle, energy_per_unit)
