"""Tests for congestion-free migration scheduling (moves on node ids)."""

import pytest

from repro.migration.scheduler import MigrationScheduler, link_disjoint_groups
from repro.migration.state_transfer import StateTransferModel
from repro.migration.transforms import (
    FIGURE1_SCHEMES,
    RightShiftTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.noc.routing import XYRouting


@pytest.fixture
def scheduler4(mesh4):
    return MigrationScheduler(mesh4)


@pytest.fixture
def scheduler5(mesh5):
    return MigrationScheduler(mesh5)


def moves(transform, flits=None):
    """``(perm, flits, sources)`` of every PE's move under ``transform``;
    each PE carries only its configuration unless ``flits`` is given."""
    perm = transform.node_permutation().tolist()
    if flits is None:
        flits = [StateTransferModel().payload_flits(0)] * len(perm)
    return perm, flits, range(len(perm))


def serial_cycles(scheduler, perm, flits):
    """Duration of an un-phased, fully serialised migration (the baseline)."""
    return sum(
        scheduler.move_cycles(flits[s], scheduler.hops(s, perm[s]))
        for s in range(len(perm))
        if perm[s] != s
    )


def chip_flits(chip):
    """Payload flits of each node's move under the chip's static mapping."""
    sizes = chip.tanner_nodes_per_task()
    state = StateTransferModel()
    flits = [0] * chip.num_units
    for task, count in sizes.items():
        node = chip.topology.node_id(chip.static_mapping.physical_of(task))
        flits[node] = state.payload_flits(count)
    return flits


class TestMoves:
    def test_every_remote_move_in_exactly_one_phase(self, scheduler4, mesh4):
        perm, _, sources = moves(XYShiftTransform(mesh4))
        phases = scheduler4.phases(perm, sources)
        scheduled = sorted(s for phase in phases for s in phase)
        assert scheduled == list(range(16))
        assert sorted(perm) == list(range(16))

    def test_fixed_point_joins_no_phase(self, scheduler5, mesh5):
        perm, _, sources = moves(RotationTransform(mesh5))
        scheduled = {s for phase in scheduler5.phases(perm, sources) for s in phase}
        assert set(range(25)) - scheduled == {mesh5.node_id((2, 2))}

    def test_state_sizing_included(self, scheduler4, mesh4):
        state = StateTransferModel()
        perm, plain, sources = moves(XYShiftTransform(mesh4))
        sized = [state.payload_flits(10)] * 16
        assert sized[0] > plain[0] > 0
        assert scheduler4.phased_cycles(perm, sized, sources) > (
            scheduler4.phased_cycles(perm, plain, sources)
        )

    def test_route_and_hops_on_node_ids(self, scheduler4, mesh4):
        source, destination = mesh4.node_id((0, 0)), mesh4.node_id((2, 3))
        route = scheduler4.route(source, destination)
        assert route == tuple(
            mesh4.node_id(coord) for coord in XYRouting(mesh4).path((0, 0), (2, 3))
        )
        assert scheduler4.route(source, destination) is route  # memoized
        assert scheduler4.hops(source, destination) == 5
        assert scheduler4.links(source, destination) == set(zip(route, route[1:]))
        assert scheduler4.route(5, 5) == (5,)
        assert scheduler4.hops(5, 5) == 0 and scheduler4.links(5, 5) == set()


class TestScheduleCorrectness:
    @pytest.mark.parametrize("scheme", ["rotation", "x-mirror", "xy-mirror", "right-shift", "xy-shift"])
    def test_phases_are_link_disjoint(self, scheduler5, mesh5, scheme):
        perm, _, sources = moves(make_transform(scheme, mesh5))
        routing = XYRouting(mesh5)
        coordinate = mesh5.coordinate
        for phase in scheduler5.phases(perm, sources):
            used = set()
            for s in phase:
                route = routing.path(coordinate(s), coordinate(perm[s]))
                links = {(route[i], route[i + 1]) for i in range(len(route) - 1)}
                assert not (links & used), "two moves in one phase share a link"
                used |= links

    def test_phases_ordered_longest_first(self, scheduler5, mesh5):
        perm, _, sources = moves(RotationTransform(mesh5))
        first_phase = scheduler5.phases(perm, sources)[0]
        longest = max(scheduler5.hops(s, perm[s]) for s in range(25))
        assert scheduler5.hops(first_phase[0], perm[first_phase[0]]) == longest

    def test_local_moves_cost_no_network_time(self, scheduler5, mesh5):
        perm, flits, _ = moves(RotationTransform(mesh5))
        centre = mesh5.node_id((2, 2))
        assert perm[centre] == centre
        assert scheduler5.phases(perm, [centre]) == []
        assert scheduler5.phased_cycles(perm, flits, [centre]) == 0

    def test_total_cycles_positive_and_deterministic(self, scheduler4, mesh4):
        perm, flits, sources = moves(XYShiftTransform(mesh4))
        a = scheduler4.phased_cycles(perm, flits, sources)
        b = MigrationScheduler(mesh4).phased_cycles(perm, flits, sources)
        assert a == b > 0

    def test_phase_cycles_cover_serialization_and_hops(self, scheduler4, mesh4):
        perm, flits, sources = moves(XYShiftTransform(mesh4))
        expected = sum(
            max(
                flits[s] + scheduler4.hops(s, perm[s]) * scheduler4.router_pipeline_cycles
                for s in phase
            )
            for phase in scheduler4.phases(perm, sources)
        )
        assert scheduler4.phased_cycles(perm, flits, sources) == expected


class TestLinkDisjointGroups:
    def test_first_fit_in_order(self):
        links = {"a": {(0, 1)}, "b": {(0, 1), (1, 2)}, "c": {(2, 3)}, "d": {(1, 2)}}
        groups = link_disjoint_groups("abcd", links.__getitem__)
        assert groups == [["a", "c", "d"], ["b"]]

    def test_empty(self):
        assert link_disjoint_groups([], lambda item: set()) == []


class TestPhasedVersusNaive:
    def test_phased_schedule_is_faster_than_naive(self, scheduler5, mesh5):
        """The congestion-free phasing must beat full serialisation — this is
        the benefit Section 2.2 claims."""
        perm, flits, sources = moves(XYShiftTransform(mesh5))
        assert scheduler5.phased_cycles(perm, flits, sources) < (
            serial_cycles(scheduler5, perm, flits)
        )

    def test_rotation_schedule_longer_than_shift(self, scheduler5, mesh5):
        """Rotation moves payloads further, so its deterministic migration
        time is at least as long as the short-hop shift's."""
        rotation = scheduler5.phased_cycles(*moves(RotationTransform(mesh5)))
        shift = scheduler5.phased_cycles(*moves(RightShiftTransform(mesh5)))
        assert rotation >= shift

    def test_migration_fits_in_paper_period(self, scheduler5, mesh5, chip_e):
        """The whole migration must fit comfortably inside the paper's
        shortest period (109 us = 54 500 cycles at 500 MHz), otherwise the
        reported ~1.6 % throughput penalty would be impossible."""
        cycles = scheduler5.phased_cycles(
            *moves(XYShiftTransform(mesh5), chip_flits(chip_e))
        )
        assert cycles < 0.2 * chip_e.block_period_cycles(109.0)

    def test_every_scheme_phased_and_deterministic_on_e(self, chip_e):
        """Every Figure 1 scheme on configuration E: phasing never loses to
        serialisation, the downtime stays under a fifth of the 109 us
        period, and a rebuilt schedule is identical."""
        scheduler = MigrationScheduler(chip_e.topology)
        flits = chip_flits(chip_e)
        period_cycles = chip_e.block_period_cycles(109.0)
        for scheme in FIGURE1_SCHEMES:
            perm, _, sources = moves(make_transform(scheme, chip_e.topology), flits)
            cycles = scheduler.phased_cycles(perm, flits, sources)
            assert cycles <= serial_cycles(scheduler, perm, flits)
            assert cycles < 0.2 * period_cycles
            again = MigrationScheduler(chip_e.topology)
            assert again.phased_cycles(perm, flits, sources) == cycles
            assert again.phases(perm, sources) == scheduler.phases(perm, sources)


def test_scheduler_rejects_bad_pipeline(mesh4):
    with pytest.raises(ValueError):
        MigrationScheduler(mesh4, router_pipeline_cycles=0)
