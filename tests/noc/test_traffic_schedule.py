"""Tests for array-form traffic schedules and the numpy generation path."""

import numpy as np
import pytest

import object_engine
from repro.noc.flit import PacketClass
from repro.noc.topology import MeshTopology
from schedule import PACKET_CLASS_CODES, TrafficSchedule
from traffic import make_traffic
from reference import hops


PATTERNS = [
    ("uniform", {}),
    ("transpose", {}),
    ("bit-complement", {}),
    ("neighbor", {}),
    ("hotspot", {"hotspots": [(1, 1), (2, 2)]}),
]

COLUMNS = ("cycle", "src", "dst", "size", "pclass")


class TestNumpySchedulePath:
    @pytest.mark.parametrize("pattern,kwargs", PATTERNS, ids=[p for p, _ in PATTERNS])
    def test_same_seed_is_deterministic(self, pattern, kwargs):
        topology = MeshTopology(4, 4)
        first = make_traffic(pattern, topology, 0.15, seed=9, **kwargs).schedule(400)
        second = make_traffic(pattern, topology, 0.15, seed=9, **kwargs).schedule(400)
        for column in COLUMNS:
            assert np.array_equal(getattr(first, column), getattr(second, column))

    @pytest.mark.parametrize("pattern,kwargs", PATTERNS, ids=[p for p, _ in PATTERNS])
    def test_schedule_invariants(self, pattern, kwargs):
        topology = MeshTopology(4, 4)
        sched = make_traffic(pattern, topology, 0.2, seed=3, **kwargs).schedule(300)
        n = topology.num_nodes
        assert sched.num_packets > 0
        assert not np.any(sched.src == sched.dst)
        assert sched.src.min() >= 0 and sched.src.max() < n
        assert sched.dst.min() >= 0 and sched.dst.max() < n
        assert sched.cycle.min() >= 0 and sched.cycle.max() < 300
        assert np.all(sched.size == 4)
        assert np.all(sched.pclass == PACKET_CLASS_CODES[PacketClass.DATA])
        # Offer order is (cycle, node) row-major.
        keys = sched.cycle * n + sched.src
        assert np.all(np.diff(keys) >= 0)

    def test_pinned_sample(self):
        """Guards the RNG consumption order against accidental refactors."""
        topology = MeshTopology(4, 4)
        sched = make_traffic("uniform", topology, 0.1, seed=2026).schedule(50)
        assert sched.num_packets == 71
        assert sched.cycle[:5].tolist() == [1, 3, 3, 4, 4]
        assert sched.src[:5].tolist() == [7, 10, 15, 2, 14]
        assert sched.dst[:5].tolist() == [3, 12, 1, 11, 7]

    def test_injection_rate_is_respected(self):
        topology = MeshTopology(4, 4)
        sched = make_traffic("uniform", topology, 0.25, seed=4).schedule(2000)
        observed = sched.num_packets / (2000 * topology.num_nodes)
        assert observed == pytest.approx(0.25, rel=0.05)

    def test_transpose_diagonal_nodes_are_silent(self):
        topology = MeshTopology(4, 4)
        sched = make_traffic("transpose", topology, 0.5, seed=1).schedule(200)
        diagonal = [topology.node_id((i, i)) for i in range(4)]
        assert not np.isin(sched.src, diagonal).any()

    def test_neighbor_destinations_are_adjacent(self):
        topology = MeshTopology(4, 4)
        sched = make_traffic("neighbor", topology, 0.5, seed=1).schedule(200)
        for s, d in zip(sched.src, sched.dst):
            distance = hops(
                topology.coordinate(int(s)), topology.coordinate(int(d))
            )
            assert distance == 1

    def test_hotspot_fraction_lands_on_hotspots(self):
        topology = MeshTopology(4, 4)
        spots = [(1, 1), (2, 2)]
        sched = make_traffic(
            "hotspot", topology, 0.3, seed=6, hotspots=spots, hotspot_fraction=0.6
        ).schedule(1500)
        spot_ids = {topology.node_id(s) for s in spots}
        on_spot = np.isin(sched.dst, list(spot_ids)).mean()
        # 60% targeted + the uniform remainder occasionally landing there.
        assert 0.55 < on_spot < 0.75


class TestScheduleContainer:
    def make(self):
        topology = MeshTopology(4, 4)
        gen = make_traffic("uniform", topology, 0.2, seed=5)
        return topology, gen.schedule(100)

    def test_limited_to_drops_late_packets(self):
        _, sched = self.make()
        limited = sched.limited_to(40)
        assert limited.cycle.max() < 40
        assert limited.num_packets == int(np.count_nonzero(sched.cycle < 40))

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            TrafficSchedule(
                cycle=[0, 1], src=[0], dst=[1], size=[4], pclass=[1]
            )

    def test_packets_round_trip(self):
        topology, sched = self.make()
        packets = object_engine.to_packets(sched, topology)
        rebuilt = TrafficSchedule.from_packets(packets, topology)
        for column in COLUMNS:
            assert np.array_equal(getattr(rebuilt, column), getattr(sched, column))
        assert rebuilt.packets is not None
