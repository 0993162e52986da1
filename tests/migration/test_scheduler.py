"""Tests for congestion-free migration scheduling."""

import pytest

from repro.migration.scheduler import MigrationScheduler, PeMove
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


class TestMoves:
    def test_one_move_per_pe(self, scheduler4, mesh4):
        moves = scheduler4.moves_for_transform(XYShiftTransform(mesh4))
        assert len(moves) == 16
        assert {move.source for move in moves} == set(mesh4.coordinates())
        assert {move.destination for move in moves} == set(mesh4.coordinates())

    def test_fixed_point_is_local_move(self, scheduler5, mesh5):
        moves = scheduler5.moves_for_transform(RotationTransform(mesh5))
        local = [move for move in moves if move.is_local]
        assert len(local) == 1
        assert local[0].source == (2, 2)

    def test_state_sizing_included(self, scheduler4, mesh4):
        nodes = {coord: 10 for coord in mesh4.coordinates()}
        moves = scheduler4.moves_for_transform(XYShiftTransform(mesh4), nodes)
        plain = scheduler4.moves_for_transform(XYShiftTransform(mesh4))
        assert moves[0].payload_flits > 0
        assert moves[0].payload_flits >= plain[0].payload_flits


class TestScheduleCorrectness:
    @pytest.mark.parametrize("scheme", ["rotation", "x-mirror", "xy-mirror", "right-shift", "xy-shift"])
    def test_phases_are_link_disjoint(self, scheduler5, mesh5, scheme):
        transform = make_transform(scheme, mesh5)
        schedule = scheduler5.schedule_for_transform(transform)
        routing = XYRouting(mesh5)
        for phase in schedule.phases:
            used = set()
            for move in phase:
                route = routing.path(move.source, move.destination)
                links = {(route[i], route[i + 1]) for i in range(len(route) - 1)}
                assert not (links & used), "two moves in one phase share a link"
                used |= links

    def test_all_moves_scheduled(self, scheduler4, mesh4):
        transform = RotationTransform(mesh4)
        moves = scheduler4.moves_for_transform(transform)
        schedule = scheduler4.schedule(moves)
        assert schedule.total_moves == len(moves)

    def test_local_moves_cost_no_network_time(self, scheduler5, mesh5):
        transform = RotationTransform(mesh5)
        schedule = scheduler5.schedule_for_transform(transform)
        assert all(not move.is_local for phase in schedule.phases for move in phase)
        assert len(schedule.local_moves) == 1

    def test_total_cycles_positive_and_deterministic(self, scheduler4, mesh4):
        transform = XYShiftTransform(mesh4)
        a = scheduler4.schedule_for_transform(transform).total_cycles
        b = scheduler4.schedule_for_transform(transform).total_cycles
        assert a == b > 0

    def test_phase_cycles_cover_serialization_and_hops(self, scheduler4, mesh4):
        state = StateTransferModel()
        transform = XYShiftTransform(mesh4)
        schedule = scheduler4.schedule_for_transform(transform)
        flits = state.payload_flits(0)
        for phase, cycles in zip(schedule.phases, schedule.cycles_per_phase):
            slowest = max(flits + move.hops * scheduler4.router_pipeline_cycles for move in phase)
            assert cycles == slowest


class TestPhasedVersusNaive:
    def test_phased_schedule_is_faster_than_naive(self, scheduler5, mesh5):
        """The congestion-free phasing must beat full serialisation — this is
        the benefit Section 2.2 claims."""
        transform = XYShiftTransform(mesh5)
        moves = scheduler5.moves_for_transform(transform)
        schedule = scheduler5.schedule(moves)
        assert schedule.total_cycles < scheduler5.naive_cycles(moves)

    def test_rotation_schedule_longer_than_shift(self, scheduler5, mesh5):
        """Rotation moves payloads further, so its deterministic migration
        time is at least as long as the short-hop shift's."""
        rotation = scheduler5.schedule_for_transform(RotationTransform(mesh5))
        shift = scheduler5.schedule_for_transform(RightShiftTransform(mesh5))
        assert rotation.total_cycles >= shift.total_cycles

    def test_migration_fits_in_paper_period(self, scheduler5, mesh5, chip_e):
        """The whole migration must fit comfortably inside the paper's
        shortest period (109 us = 54 500 cycles at 500 MHz), otherwise the
        reported ~1.6 % throughput penalty would be impossible."""
        nodes = chip_e.tanner_nodes_per_pe()
        schedule = scheduler5.schedule_for_transform(XYShiftTransform(mesh5), nodes)
        period_cycles = chip_e.block_period_cycles(109.0)
        assert schedule.total_cycles < 0.2 * period_cycles

    def test_every_scheme_phased_and_deterministic_on_e(self, chip_e):
        """Every Figure 1 scheme on configuration E: phasing never loses to
        serialisation, the downtime stays under a fifth of the 109 us
        period, and a rebuilt schedule is identical."""
        scheduler = MigrationScheduler(chip_e.topology)
        nodes = chip_e.tanner_nodes_per_pe()
        period_cycles = chip_e.block_period_cycles(109.0)
        for scheme in FIGURE1_SCHEMES:
            transform = make_transform(scheme, chip_e.topology)
            moves = scheduler.moves_for_transform(transform, nodes)
            schedule = scheduler.schedule(moves)
            assert schedule.total_cycles <= scheduler.naive_cycles(moves)
            assert schedule.total_cycles < 0.2 * period_cycles
            again = scheduler.schedule_for_transform(transform, nodes)
            assert again.total_cycles == schedule.total_cycles
            assert again.num_phases == schedule.num_phases


class TestPeMove:
    def test_hops(self):
        move = PeMove(source=(0, 0), destination=(2, 3), payload_flits=4)
        assert move.hops == 5
        assert not move.is_local

    def test_local_move(self):
        move = PeMove(source=(1, 1), destination=(1, 1), payload_flits=4)
        assert move.is_local
        assert move.hops == 0

    def test_scheduler_rejects_bad_pipeline(self, mesh4):
        with pytest.raises(ValueError):
            MigrationScheduler(mesh4, router_pipeline_cycles=0)
