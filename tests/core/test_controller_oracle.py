"""Differential test: the array-native controller against the seed semantics.

The oracle below implements the controller's semantics on the seed's data
structures: a :class:`Mapping` moved by ``apply_transform`` or by a stage's
coordinate moves (each node to ``step[node]``), a dict-composed I/O
translator, uncached costs (a sudden migration priced whole by
:func:`migration_cost`, the seed's coordinate cost account, which shares no
code with the node-id lowering), and power rows built per task from the
configuration.
Hypothesis drives both through the same random sequences of sudden
migrations, fluid and batched plan stages, resets and checkpoint round trips
on chips A-E; everything observable must be ``==``.  The controller takes
each step as the walk's one-epoch case (``apply_migration`` or a one-epoch
``walk``, whose power row the oracle's must equal), so every step of the walk
meets the independent cost account.  Two controllers interleaved on one chip
share its plan memo, and each must still match an oracle of its own.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.plan import lower_transform, priced_stage_cycles
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform
from repro.migration.unit import MigrationUnit
from repro.placement.mapping import Mapping
from repro.stream.checkpoint import decode_checkpoint, encode_checkpoint

PERIOD_S = 109e-6


def tanner_nodes_per_pe(chip, mapping):
    """Tanner nodes hosted at each PE under ``mapping``, keyed by coordinate."""
    return {
        mapping.physical_of(task): count
        for task, count in chip.tanner_nodes_per_task().items()
    }


def migration_cost(unit, transform, tanner_nodes_per_pe=None):
    """Whole-transform ``(cycles, energy_j, per-node energy)`` of one migration.

    The seed's cost account, stated on coordinates from the unit's
    parameters alone: one move per PE in row-major order, each carrying its
    PE's configuration plus the state of the Tanner nodes it hosts; routes
    from the unit's routing; remote moves greedily phased longest first
    (ties by source coordinate) into link-disjoint phases, each lasting as
    long as its slowest move; and every move's energy terms folded in move
    order (conversion and fixed cost at the source; router energy at every
    node of the route; link energy half to each end, one term of the total).
    """
    state, library = unit.state_model, unit.library
    moves = []
    for source in unit.topology.coordinates():
        destination = transform(source)
        nodes = (tanner_nodes_per_pe or {}).get(source, 0)
        route = unit.routing.path(source, destination)
        moves.append((source, destination, state.payload_flits(nodes), route))

    def hops(move):
        (sx, sy), (dx, dy) = move[0], move[1]
        return abs(sx - dx) + abs(sy - dy)

    phases = []  # [links used, slowest move's cycles]
    remote = [move for move in moves if move[0] != move[1]]
    for move in sorted(remote, key=lambda move: (-hops(move), move[0])):
        route = move[3]
        links = {(route[i], route[i + 1]) for i in range(len(route) - 1)}
        cycles = (
            move[2] * state.serialization_cycles_per_flit
            + hops(move) * unit.scheduler.router_pipeline_cycles
        )
        for phase in phases:
            if not links & phase[0]:
                phase[0] |= links
                phase[1] = max(phase[1], cycles)
                break
        else:
            phases.append([links, cycles])

    per_pe = dict.fromkeys(unit.topology.coordinates(), 0.0)
    energy_j = 0.0
    for source, destination, flits, route in moves:
        conversion = (
            flits * unit.conversion_energy_per_flit_j + unit.fixed_energy_per_pe_j
        )
        charges, terms = [(source, conversion)], [conversion]
        if source != destination:
            router = (flits + 1) * library.router_energy_per_flit_j
            link = (flits + 1) * (len(route) - 1) * library.link_energy_per_flit_j
            charges += [(coord, router) for coord in route]
            charges += [(source, link / 2.0), (destination, link / 2.0)]
            terms += [router] * len(route) + [link]
        for coord, joules in charges:
            per_pe[coord] += joules
        for term in terms:
            energy_j += term
    return sum(phase[1] for phase in phases), energy_j, np.array(list(per_pe.values()))


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
        self.migrations = 0
        self.cycles = 0
        self.energy_j = 0.0
        self.plan = None
        self.next_stage = 0

    # -- migrations ------------------------------------------------------
    def apply_migration(self, transform):
        nodes = tanner_nodes_per_pe(self.chip, self.mapping)
        cycles, energy_j, energy = migration_cost(self.unit, transform, nodes)
        self.mapping = self.mapping.apply_transform(transform)
        self.current_of_original = {
            original: transform(current)
            for original, current in self.current_of_original.items()
        }
        self.migrations += 1
        self.cycles += cycles
        self.energy_j += energy_j
        return cycles, energy_j, energy

    def apply_plan(self, transform, style, units, congestion):
        nodes = tanner_nodes_per_pe(self.chip, self.mapping)
        self.plan = lower_transform(
            transform,
            self.unit,
            [nodes[coord] for coord in self.topology.coordinates()],
            style=style,
            units_per_epoch=units,
        )
        self.next_stage = 0
        self.migrations += 1
        return self.advance_plan(congestion)

    def advance_plan(self, congestion):
        if self.plan is None:
            return None
        stage = self.plan.stages[self.next_stage]
        cycles = priced_stage_cycles(stage, congestion)
        coordinate = self.topology.coordinate
        moves = {
            coordinate(node): coordinate(target)
            for node, target in enumerate(stage.step.tolist())
            if node != target
        }
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
        self.cycles += cycles
        self.energy_j += stage.energy_j
        self.next_stage += 1
        if self.next_stage >= self.plan.num_stages:
            self.plan = None
            self.next_stage = 0
        return cycles, stage.energy_j, stage.energy

    # -- views -----------------------------------------------------------
    def epoch_power_vector(self, energy):
        power = self.chip.power_vector(self.mapping)
        for node, joules in enumerate([] if energy is None else energy.tolist()):
            if joules == 0.0:
                continue
            power[node] += joules / PERIOD_S
        return power

    def original_location(self, current):
        for original, location in self.current_of_original.items():
            if location == current:
                return original
        raise ValueError(current)

    def state_dict(self):
        state = {
            "mapping": self.mapping.to_permutation(),
            "migrations": self.migrations,
            "migration_cycles": self.cycles,
            "migration_energy_j": self.energy_j,
        }
        if self.plan is not None:
            state["plan"] = {
                "plan": self.plan.to_dict(),
                "next_stage": self.next_stage,
            }
        return state


def assert_agree(controller, row, oracle, energy):
    """Mapping, translator lookups, encoded checkpoint and power row all equal."""
    assert controller.nodes.tolist() == oracle.mapping.to_permutation()
    for coord in oracle.topology.coordinates():
        assert controller.io_translator.current_location(coord) == (
            oracle.current_of_original[coord]
        )
        assert controller.io_translator.original_location(coord) == (
            oracle.original_location(coord)
        )
    assert encode_checkpoint(controller.state_dict()) == encode_checkpoint(
        oracle.state_dict()
    )
    assert np.array_equal(row, oracle.epoch_power_vector(energy))


def assert_event(event, expected):
    """An executed stage's event equals the oracle's (cycles, J, per-node J)."""
    cycles, energy_j, energy = expected
    assert (event.cycles, event.energy_j) == (cycles, energy_j)
    assert np.array_equal(event.energy_vector, energy)


advance = st.tuples(st.just("advance"), st.floats(0.5, 3.0))
action = st.one_of(
    st.tuples(st.just("sudden"), st.sampled_from(FIGURE1_SCHEMES), st.booleans()),
    st.tuples(
        st.just("plan"),
        st.sampled_from(FIGURE1_SCHEMES),
        st.sampled_from(["fluid", "batched"]),
        st.integers(1, 6),
        st.floats(0.5, 3.0),
    ),
    advance,
    advance,  # plans span several stages: advance twice as often
    st.tuples(st.just("reset")),
    st.tuples(st.just("roundtrip")),
)
actions = st.lists(action, min_size=1, max_size=16)


class ControlledRun:
    """A controller and its oracle on one chip, driven by the same actions.

    Sudden migrations go through ``apply_migration``, plans and their later
    stages through one-epoch walks, whose power row must equal the oracle's
    epoch power; after any other action an idle one-epoch walk reads the
    mapping's row (it moves nothing).
    """

    def __init__(self, chip):
        self.chip = chip
        self.controller = RuntimeReconfigurationController(chip)
        self.oracle = SeedController(chip)
        self.transforms = {
            scheme: make_transform(scheme, chip.topology) for scheme in FIGURE1_SCHEMES
        }
        #: Plans lowered by the controllers a round trip replaced.
        self.lowered_before = 0

    @property
    def lowered(self):
        return self.lowered_before + self.controller.migration_cost_computations

    def _walk(self, transform, **options):
        """One epoch of the walk: its power row and executed stage."""
        (row,), (event,), stalled = self.controller.walk(
            0, lambda epoch, in_flight: transform, np.array([PERIOD_S]), **options
        )
        assert stalled == 0
        return row, event

    def step(self, step):
        controller, oracle = self.controller, self.oracle
        kind = step[0]
        if kind in ("sudden", "plan") and controller.migration_in_progress:
            return  # the epoch loop only migrates once a plan drains
        energy = None
        if kind == "sudden":
            transform = self.transforms[step[1]]
            via_walk = len(step) > 2 and step[2]
            if via_walk:
                row, event = self._walk(transform)
            else:
                event = controller.apply_migration(transform)
            expected = oracle.apply_migration(transform)
            assert_event(event, expected)
            if via_walk:
                energy = expected[2]
        elif kind == "plan":
            row, event = self._walk(
                self.transforms[step[1]],
                style=step[2],
                units_per_epoch=step[3],
                congestion=lambda epoch: step[4],
            )
            expected = oracle.apply_plan(self.transforms[step[1]], *step[2:])
            assert_event(event, expected)
            energy = expected[2]
        elif kind == "advance":
            in_flight = controller.migration_in_progress
            row, event = self._walk(None, congestion=lambda epoch: step[1])
            expected = oracle.advance_plan(step[1])
            assert in_flight == (expected is not None)
            if expected is None:
                assert event is None
            else:
                assert_event(event, expected)
                energy = expected[2]
        elif kind == "reset":
            controller.reset()
            oracle.reset()
        else:
            state = decode_checkpoint(encode_checkpoint(controller.state_dict()))
            self.lowered_before += controller.migration_cost_computations
            self.controller = controller = RuntimeReconfigurationController(self.chip)
            controller.restore_state(state)
        if kind in ("reset", "roundtrip") or (kind == "sudden" and energy is None):
            if controller.migration_in_progress:
                # An idle epoch would run the next stage: no row to read.
                row = oracle.epoch_power_vector(None)
            else:
                row, event = self._walk(None)
                assert event is None
        assert_agree(controller, row, oracle, energy)


class TestArrayControllerMatchesSeedSemantics:
    @given(chip_name=st.sampled_from("ABCDE"), steps=actions)
    # A stage applied after a different transform does not commute with
    # it, so composing in the wrong order shows in the mapping.
    @example(
        chip_name="A",
        steps=[
            ("sudden", "xy-shift"),
            ("plan", "rotation", "fluid", 1, 1.0),
            ("advance", 1.0),
        ],
    )
    # A checkpoint round trip in the middle of a two-stage plan.
    @example(
        chip_name="E",
        steps=[
            ("plan", "x-mirror", "batched", 2, 2.0),
            ("roundtrip",),
            ("advance", 2.0),
            ("advance", 2.0),
            ("sudden", "rotation"),
        ],
    )
    @settings(max_examples=80, deadline=None)
    def test_random_sequences(self, chip_name, steps):
        run = ControlledRun(get_configuration(chip_name))
        for step in steps:
            run.step(step)

    @given(
        chip_name=st.sampled_from("ABCDE"),
        steps=st.lists(
            st.tuples(st.integers(0, 1), action),
            min_size=1,
            max_size=24,
        ),
    )
    # The second controller reaches a mapping the first lowered from, so
    # its plan comes from the shared memo.
    @example(
        chip_name="A",
        steps=[
            (0, ("sudden", "xy-shift")),
            (0, ("plan", "rotation", "batched", 2, 1.0)),
            (1, ("sudden", "xy-shift")),
            (1, ("plan", "rotation", "batched", 2, 1.5)),
            (0, ("advance", 1.0)),
            (1, ("advance", 1.0)),
        ],
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_controllers_share_one_memo(self, chip_name, steps):
        """Two controllers on one cold chip, each against its own oracle;
        between them they lower each distinct plan once."""
        chip = dataclasses.replace(get_configuration(chip_name))
        runs = (ControlledRun(chip), ControlledRun(chip))
        for who, step in steps:
            runs[who].step(step)
        assert runs[0].lowered + runs[1].lowered == len(chip.migration_unit.plans)


@pytest.mark.parametrize("chip_name", ["A", "E"])
def test_apply_migration_during_a_plan_changes_nothing(chip_name):
    """A second migration while a plan is in flight raises and leaves the
    mapping, the translator, the totals and the plan as they were."""
    chip = get_configuration(chip_name)
    controller = RuntimeReconfigurationController(chip)
    transform = make_transform("rotation", chip.topology)
    first = controller.apply_migration(transform, style="fluid", units_per_epoch=1)
    assert controller.migration_in_progress
    state = encode_checkpoint(controller.state_dict())
    with pytest.raises(RuntimeError, match="in progress"):
        controller.apply_migration(make_transform("xy-shift", chip.topology))
    assert encode_checkpoint(controller.state_dict()) == state
    assert controller.migrations_performed == 1
    # The next stage is the in-flight plan's second one.
    second = controller.advance_plan()
    assert (second.transform_name, second.stage_index) == ("rotation", 1)
    assert second.stage_count == first.stage_count
