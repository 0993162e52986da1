"""Tests for the synthetic traffic generators."""

import pytest

from repro.noc.flit import PacketClass
from repro.noc.schedule import PACKET_CLASS_CODES
from repro.noc.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    TrafficGenerator,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic,
)


class TestValidation:
    def test_rejects_bad_injection_rate(self, mesh4):
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=1.5)
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=-0.1)

    def test_rejects_bad_packet_size(self, mesh4):
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=0.1, packet_size_flits=0)

    def test_hotspot_requires_valid_nodes(self, mesh4):
        with pytest.raises(ValueError):
            HotspotTraffic(mesh4, 0.1, hotspots=[(9, 9)])
        with pytest.raises(ValueError):
            HotspotTraffic(mesh4, 0.1, hotspots=[])

    def test_base_class_has_no_pattern(self, mesh4):
        with pytest.raises(TypeError):
            TrafficGenerator(mesh4, injection_rate=0.1)


def _pairs(traffic, cycles):
    """(source, destination) coordinates of every scheduled packet."""
    sched = traffic.schedule(cycles)
    coord = traffic.topology.coordinate
    return [(coord(int(s)), coord(int(d))) for s, d in zip(sched.src, sched.dst)]


class TestPatterns:
    def test_uniform_never_self(self, mesh4):
        traffic = UniformRandomTraffic(mesh4, injection_rate=1.0, seed=3)
        pairs = _pairs(traffic, 20)
        assert len(pairs) == 20 * mesh4.num_nodes
        for source, destination in pairs:
            assert source != destination

    def test_transpose_destination(self, mesh4):
        traffic = TransposeTraffic(mesh4, injection_rate=1.0, seed=1)
        pairs = _pairs(traffic, 1)
        assert pairs
        for (x, y), destination in pairs:
            assert destination == (y, x)

    def test_bit_complement_destination(self, mesh4):
        traffic = BitComplementTraffic(mesh4, injection_rate=1.0, seed=1)
        for (x, y), destination in _pairs(traffic, 1):
            assert destination == (3 - x, 3 - y)

    def test_neighbor_traffic_one_hop(self, mesh5):
        traffic = NeighborTraffic(mesh5, injection_rate=1.0, seed=5)
        for source, destination in _pairs(traffic, 1):
            assert mesh5.manhattan_distance(source, destination) == 1

    def test_hotspot_bias(self, mesh4):
        hotspot = (2, 2)
        traffic = HotspotTraffic(
            mesh4, injection_rate=1.0, hotspots=[hotspot], hotspot_fraction=0.9, seed=7
        )
        pairs = _pairs(traffic, 30)
        to_hotspot = sum(1 for _, destination in pairs if destination == hotspot)
        assert to_hotspot > len(pairs) * 0.5

    def test_injection_rate_controls_volume(self, mesh4):
        low = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=1)
        high = UniformRandomTraffic(mesh4, injection_rate=0.8, seed=1)
        assert high.schedule(50).num_packets > low.schedule(50).num_packets * 3

    def test_seeded_reproducibility(self, mesh4):
        a = UniformRandomTraffic(mesh4, injection_rate=0.3, seed=42)
        b = UniformRandomTraffic(mesh4, injection_rate=0.3, seed=42)
        assert _pairs(a, 10) == _pairs(b, 10)
        assert a.schedule(10).cycle.tolist() == b.schedule(10).cycle.tolist()


class TestFactory:
    def test_make_all_patterns(self, mesh4):
        for name in ["uniform", "transpose", "bit-complement", "neighbor"]:
            generator = make_traffic(name, mesh4, injection_rate=0.2, seed=1)
            assert generator.injection_rate == 0.2

    def test_make_hotspot_with_kwargs(self, mesh4):
        generator = make_traffic(
            "hotspot", mesh4, injection_rate=0.2, seed=1, hotspots=[(1, 1)]
        )
        assert isinstance(generator, HotspotTraffic)

    def test_unknown_pattern(self, mesh4):
        with pytest.raises(ValueError):
            make_traffic("tornado", mesh4, injection_rate=0.2)

    def test_packets_are_data_class(self, mesh4):
        generator = make_traffic("uniform", mesh4, injection_rate=1.0, seed=2)
        sched = generator.schedule(1)
        assert sched.num_packets == mesh4.num_nodes
        assert set(sched.pclass.tolist()) == {PACKET_CLASS_CODES[PacketClass.DATA]}
