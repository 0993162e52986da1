"""Property-based tests for the NoC substrate (hypothesis)."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.noc.flit import Packet
from repro.noc.routing import available_algorithms, make_routing
from repro.noc.topology import MeshTopology

# The cycle-accurate NoC oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "noc"))
import object_engine  # noqa: E402
from reference import hops


dims = st.tuples(st.integers(2, 6), st.integers(2, 6))


def coords_for(width, height):
    return st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))


class TestRoutingProperties:
    @given(
        dims=dims,
        algorithm=st.sampled_from(available_algorithms()),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_are_minimal_and_terminate(self, dims, algorithm, data):
        width, height = dims
        topology = MeshTopology(width, height)
        routing = make_routing(algorithm, topology)
        src = data.draw(coords_for(width, height))
        dst = data.draw(coords_for(width, height))
        path = routing.path(src, dst)
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) - 1 == hops(src, dst)
        for a, b in zip(path, path[1:]):
            assert hops(a, b) == 1


def distinct_pair(data, width, height):
    """Source and destination coordinates that differ."""
    src = data.draw(coords_for(width, height))
    dst = data.draw(coords_for(width, height).filter(lambda c: c != src))
    return src, dst


class TestDeliveryProperties:
    @given(
        dims=dims,
        data=st.data(),
        num_packets=st.integers(1, 20),
        size=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_injected_packet_is_delivered_exactly_once(
        self, dims, data, num_packets, size
    ):
        width, height = dims
        topology = MeshTopology(width, height)
        packets = [
            Packet(*distinct_pair(data, width, height), size_flits=size)
            for _ in range(num_packets)
        ]
        result = object_engine.run_packets(topology, packets, drain_limit=200_000)
        assert result.stats.packets_injected == num_packets
        assert result.stats.packets_ejected == num_packets
        assert result.stats.flits_ejected == num_packets * size
        assert sum(result.stats.ejected_per_node.values()) == num_packets
        assert all(
            0 <= p.injection_cycle < p.ejection_cycle <= result.cycles for p in packets
        )

    @given(dims=dims, data=st.data(), size=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_latency_at_least_hop_count_plus_serialization(self, dims, data, size):
        width, height = dims
        topology = MeshTopology(width, height)
        src, dst = distinct_pair(data, width, height)
        packet = Packet(source=src, destination=dst, size_flits=size)
        object_engine.run_packets(topology, [packet], drain_limit=100_000)
        assert packet.latency >= hops(src, dst) + size - 1
