"""Tests for the object-oracle network assembly and packet delivery."""

import pytest

from object_engine import Network
from repro.noc.flit import Packet, PacketClass
from repro.noc.topology import Direction, MeshTopology


@pytest.fixture
def network4(mesh4) -> Network:
    """An XY-routed 4x4 oracle network."""
    return Network(mesh4, routing="xy", buffer_depth=4)


class TestConstruction:
    def test_router_per_node(self, network4, mesh4):
        assert len(network4.routers) == mesh4.num_nodes

    def test_link_count(self, network4, mesh4):
        assert len(network4.links) == len(mesh4.links())

    def test_corner_router_ports(self, network4):
        corner = network4.routers[(0, 0)]
        assert Direction.LOCAL in corner.connected_ports
        assert Direction.EAST in corner.connected_ports
        assert Direction.NORTH in corner.connected_ports
        assert Direction.WEST not in corner.connected_ports
        assert Direction.SOUTH not in corner.connected_ports

    def test_routing_by_name(self, mesh4):
        network = Network(mesh4, routing="yx")
        assert network.routing.name == "yx"


class TestInjectionValidation:
    def test_rejects_source_outside_mesh(self, network4):
        with pytest.raises(ValueError):
            network4.inject(Packet(source=(9, 9), destination=(0, 0), size_flits=1))

    def test_rejects_destination_outside_mesh(self, network4):
        with pytest.raises(ValueError):
            network4.inject(Packet(source=(0, 0), destination=(5, 0), size_flits=1))


class TestSinglePacketDelivery:
    def test_neighbor_delivery(self, network4):
        packet = Packet(source=(0, 0), destination=(1, 0), size_flits=1)
        network4.inject(packet)
        network4.drain()
        assert network4.stats.packets_ejected == 1
        assert packet.ejection_cycle is not None
        assert packet.latency >= 1

    def test_corner_to_corner(self, network4):
        packet = Packet(source=(0, 0), destination=(3, 3), size_flits=4)
        network4.inject(packet)
        cycles = network4.drain()
        assert network4.stats.packets_ejected == 1
        # 6 hops + 3 extra flits of serialisation is the analytic minimum.
        assert packet.latency >= 9
        assert cycles >= packet.latency

    def test_latency_grows_with_distance(self, network4):
        near = Packet(source=(0, 0), destination=(1, 0), size_flits=2)
        far = Packet(source=(0, 0), destination=(3, 3), size_flits=2)
        network4.inject(near)
        network4.drain()
        near_latency = near.latency
        network4.reset()
        network4.inject(far)
        network4.drain()
        assert far.latency > near_latency

    def test_self_packet_delivered_locally(self, network4):
        # Source == destination: ejected through the local port immediately.
        packet = Packet(source=(2, 2), destination=(2, 2), size_flits=1)
        network4.inject(packet)
        network4.drain()
        assert network4.stats.packets_ejected == 1


class TestManyPackets:
    def test_all_packets_delivered(self, network4, mesh4):
        packets = []
        for src in mesh4.coordinates():
            for dst in [(0, 0), (3, 3)]:
                if src == dst:
                    continue
                packet = Packet(source=src, destination=dst, size_flits=3)
                packets.append(packet)
                network4.inject(packet)
        network4.drain()
        assert network4.stats.packets_ejected == len(packets)
        assert all(p.ejection_cycle is not None for p in packets)

    def test_flit_conservation(self, network4, mesh4):
        total_flits = 0
        for src in mesh4.coordinates():
            dst = (3 - src[0], 3 - src[1])
            if dst == src:
                continue
            network4.inject(Packet(source=src, destination=dst, size_flits=4))
            total_flits += 4
        network4.drain()
        assert network4.stats.flits_injected == total_flits
        assert network4.stats.flits_ejected == total_flits

    def test_is_idle_after_drain(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(3, 2), size_flits=5))
        assert not network4.is_idle()
        network4.drain()
        assert network4.is_idle()

    def test_ejection_handler_called(self, network4):
        seen = []
        network4.ejection_handler = lambda packet, cycle: seen.append((packet, cycle))
        network4.inject(Packet(source=(1, 1), destination=(2, 2), size_flits=2))
        network4.drain()
        assert len(seen) == 1


class TestActivityCounters:
    def test_routers_on_path_record_activity(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(3, 0), size_flits=2))
        network4.drain()
        activity = network4.router_activity()
        # XY route passes through (1,0) and (2,0).
        assert activity[(1, 0)].flits_routed > 0
        assert activity[(2, 0)].flits_routed > 0
        # A router far from the route sees nothing.
        assert activity[(0, 3)].flits_routed == 0

    def test_reset_activity(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(2, 0), size_flits=2))
        network4.drain()
        network4.reset_activity()
        assert all(a.flits_routed == 0 for a in network4.router_activity().values())
        assert network4.links.total_flits() == 0

    def test_router_activity_is_a_snapshot(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(1, 0), size_flits=1))
        network4.drain()
        snapshot = network4.router_activity()
        network4.routers[(0, 0)].activity.flits_routed += 5
        assert snapshot[(0, 0)].flits_routed == 1

    def test_link_counts_flits(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(1, 0), size_flits=3))
        network4.drain()
        link = network4.links.get((0, 0), Direction.EAST)
        assert link.flits_carried == 3


class TestReset:
    def test_full_reset_clears_everything(self, network4):
        network4.inject(Packet(source=(0, 0), destination=(3, 3), size_flits=4))
        network4.run(3)
        network4.reset()
        assert network4.is_idle()
        assert network4.current_cycle == 0
        assert network4.stats.packets_injected == 0
        assert not network4.ejected_packets
