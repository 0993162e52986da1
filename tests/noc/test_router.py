"""Tests for the object-oracle wormhole router in isolation."""

import pytest

from object_engine import Router, make_flits
from repro.noc.flit import Packet
from repro.noc.routing import XYRouting
from repro.noc.topology import Direction, MeshTopology


@pytest.fixture
def router(mesh4):
    return Router(coordinate=(1, 1), routing=XYRouting(mesh4), buffer_depth=2)


def _flits(source, destination, size=2):
    return make_flits(Packet(source=source, destination=destination, size_flits=size))


class TestAcceptance:
    def test_accepts_until_full(self, router):
        flits = _flits((1, 1), (3, 1), size=3)
        assert router.can_accept(Direction.LOCAL)
        router.accept_flit(Direction.LOCAL, flits[0])
        router.accept_flit(Direction.LOCAL, flits[1])
        assert not router.can_accept(Direction.LOCAL)

    def test_buffered_flit_count(self, router):
        flits = _flits((1, 1), (2, 1))
        router.accept_flit(Direction.LOCAL, flits[0])
        assert router.buffered_flits() == 1


class TestSwitching:
    def test_head_flit_routed_east(self, router):
        flits = _flits((1, 1), (3, 1))
        router.accept_flit(Direction.LOCAL, flits[0])
        router.compute_routes()
        forwards = router.allocate_switch()
        assert len(forwards) == 1
        assert forwards[0].out_dir == Direction.EAST
        assert forwards[0].flit is flits[0]

    def test_local_ejection(self, router):
        flits = _flits((0, 0), (1, 1))
        router.accept_flit(Direction.WEST, flits[0])
        router.compute_routes()
        forwards = router.allocate_switch()
        assert forwards[0].out_dir == Direction.LOCAL

    def test_wormhole_holds_output_for_body_flits(self, router):
        head, tail = _flits((1, 1), (1, 3), size=2)
        router.accept_flit(Direction.LOCAL, head)
        router.compute_routes()
        router.allocate_switch()
        # Output NORTH now owned by LOCAL input until the tail passes.
        assert router.output_ports[Direction.NORTH].owner == Direction.LOCAL
        router.accept_flit(Direction.LOCAL, tail)
        router.compute_routes()
        forwards = router.allocate_switch()
        assert forwards[0].out_dir == Direction.NORTH
        assert router.output_ports[Direction.NORTH].owner is None

    def test_no_forward_without_credit(self, router):
        flits = _flits((1, 1), (3, 1))
        # Exhaust EAST credits.
        router.output_ports[Direction.EAST].credits.consume()
        router.output_ports[Direction.EAST].credits.consume()
        router.accept_flit(Direction.LOCAL, flits[0])
        router.compute_routes()
        assert router.allocate_switch() == []

    def test_one_winner_per_output(self, router):
        # Two packets from different inputs both heading EAST.
        a = _flits((0, 1), (3, 1), size=1)[0]
        b = _flits((1, 0), (3, 1), size=1)[0]
        router.accept_flit(Direction.WEST, a)
        router.accept_flit(Direction.SOUTH, b)
        router.compute_routes()
        forwards = router.allocate_switch()
        east = [f for f in forwards if f.out_dir == Direction.EAST]
        assert len(east) == 1

    def test_round_robin_fairness(self, router):
        # Repeatedly contend for EAST from WEST and SOUTH; both should win over time.
        winners = []
        for _ in range(4):
            a = _flits((0, 1), (3, 1), size=1)[0]
            b = _flits((1, 0), (3, 1), size=1)[0]
            router.accept_flit(Direction.WEST, a)
            router.accept_flit(Direction.SOUTH, b)
            router.compute_routes()
            forwards = router.allocate_switch()
            winners.extend(f.in_dir for f in forwards if f.out_dir == Direction.EAST)
            # Drain whatever remains so buffers do not overflow.
            router.compute_routes()
            router.allocate_switch()
            # Restore credits consumed in this round.
            router.reset()
        assert set(winners) >= {Direction.WEST, Direction.SOUTH} or len(set(winners)) == 1


class TestActivityAndReset:
    def test_activity_counters_increase(self, router):
        flits = _flits((1, 1), (3, 1))
        router.accept_flit(Direction.LOCAL, flits[0])
        router.compute_routes()
        router.allocate_switch()
        assert router.activity.flits_routed == 1
        assert router.activity.headers_decoded == 1
        assert router.activity.buffer_writes == 1
        assert router.activity.buffer_reads == 1

    def test_reset_restores_idle_state(self, router):
        flits = _flits((1, 1), (3, 1))
        router.accept_flit(Direction.LOCAL, flits[0])
        router.reset()
        assert router.is_idle()
        assert router.activity.flits_routed == 0
