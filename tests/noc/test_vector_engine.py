"""Engine parity: the vector kernel must reproduce the object oracle exactly.

The seed object-graph engine (``object_engine.py`` next to this file) is the
behavioural specification; :class:`~repro.noc.vector.VectorNetwork` is the
runtime engine.  On identical traffic the two must agree on *everything* the
simulator reports: per-packet injection/ejection cycles, latency statistics
(including the per-class split), throughput, per-node counters, stalled
injections and the full per-router activity dictionaries.

Both engines replay one pregenerated
:class:`~repro.noc.schedule.TrafficSchedule`: ``NocSimulator.run_traffic``
asks the seeded generator for it, and the oracle replays the identical
``generator.schedule(horizon)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_engine
from repro.noc.routing import available_algorithms
from repro.noc.schedule import TrafficSchedule
from repro.noc.simulator import NocSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import make_traffic
from repro.noc.vector import VectorNetwork

PARITY_CONFIGS = [
    # (mesh, pattern, rate, cycles, warmup, routing, depth, kwargs)
    (4, "uniform", 0.10, 300, 0, "xy", 4, {}),
    (4, "uniform", 0.25, 300, 60, "xy", 4, {}),
    (5, "uniform", 0.08, 250, 40, "xy", 4, {}),
    (4, "hotspot", 0.12, 250, 30, "xy", 4, {"hotspots": [(1, 1), (2, 2)]}),
    (5, "hotspot", 0.10, 250, 25, "xy", 4, {"hotspots": [(2, 2)]}),
    (4, "transpose", 0.15, 250, 0, "xy", 4, {}),
    (5, "neighbor", 0.20, 250, 25, "xy", 4, {}),
    (4, "uniform", 0.10, 250, 30, "yx", 4, {}),
    (4, "uniform", 0.10, 250, 30, "west-first", 4, {}),
    (5, "uniform", 0.10, 250, 30, "odd-even", 2, {}),
]

def run_both(topology, generator, cycles, warmup, routing="xy", depth=4):
    """(vector, oracle) results of one generator's traffic."""
    vec = NocSimulator(topology, routing=routing, buffer_depth=depth).run_traffic(
        generator, cycles=cycles, warmup_cycles=warmup
    )
    obj = object_engine.run_traffic(
        topology,
        generator.schedule(warmup + cycles),
        cycles=cycles,
        warmup_cycles=warmup,
        routing=routing,
        buffer_depth=depth,
    )
    return vec, obj


def assert_same_result(vec, obj):
    assert vec.cycles == obj.cycles
    assert vec.link_flits == obj.link_flits
    for field in (
        "cycles",
        "packets_injected",
        "packets_ejected",
        "flits_injected",
        "flits_ejected",
        "stalled_injections",
    ):
        assert getattr(vec.stats, field) == getattr(obj.stats, field), field
    assert vec.stats.latency == obj.stats.latency
    assert vec.stats.latency_by_class == obj.stats.latency_by_class
    assert vec.stats.injected_per_node == obj.stats.injected_per_node
    assert vec.stats.ejected_per_node == obj.stats.ejected_per_node
    assert vec.router_activity == obj.router_activity


@pytest.mark.parametrize(
    "size,pattern,rate,cycles,warmup,routing,depth,kwargs",
    PARITY_CONFIGS,
    ids=[f"{c[0]}x{c[0]}-{c[1]}-{c[5]}" for c in PARITY_CONFIGS],
)
def test_engines_agree_exactly(size, pattern, rate, cycles, warmup, routing, depth, kwargs):
    topology = MeshTopology(size, size)
    generator = make_traffic(pattern, topology, injection_rate=rate, seed=7, **kwargs)
    assert_same_result(*run_both(topology, generator, cycles, warmup, routing, depth))


@given(
    width=st.integers(2, 5),
    height=st.integers(2, 5),
    pattern=st.sampled_from(
        ["uniform", "transpose", "bit-complement", "neighbor", "hotspot"]
    ),
    routing=st.sampled_from(available_algorithms()),
    depth=st.integers(1, 4),
    rate=st.floats(0.02, 0.25),
    cycles=st.integers(1, 120),
    warmup=st.integers(0, 30),
    seed=st.integers(0, 2**20),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_engines_agree_on_generated_configs(
    width, height, pattern, routing, depth, rate, cycles, warmup, seed, data
):
    """Exact parity over meshes, patterns, routings, depths and warm-ups."""
    topology = MeshTopology(width, height)
    kwargs = {}
    if pattern == "hotspot":
        spot = data.draw(
            st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        )
        kwargs["hotspots"] = [spot]
    generator = make_traffic(pattern, topology, injection_rate=rate, seed=seed, **kwargs)
    assert_same_result(*run_both(topology, generator, cycles, warmup, routing, depth))


def test_per_packet_cycles_and_ejection_order_match():
    """Injection/ejection cycles agree packet by packet, not just on average."""
    topology = MeshTopology(4, 4)
    schedule = make_traffic("uniform", topology, injection_rate=0.20, seed=7).schedule(200)

    object_packets = object_engine.to_packets(schedule, topology)
    by_cycle = {}
    for packet in object_packets:
        by_cycle.setdefault(packet.injection_cycle, []).append(packet)
    network = object_engine.Network(topology)
    for cycle in range(max(by_cycle) + 1):
        for packet in by_cycle.get(cycle, []):
            network.inject(packet)
        network.step()
    network.drain(max_cycles=50_000)

    vector_packets = object_engine.to_packets(schedule, topology)
    net = VectorNetwork(
        topology, [TrafficSchedule.from_packets(vector_packets, topology)]
    )
    net.drain()
    net.write_back_packets()

    for expected, actual in zip(object_packets, vector_packets):
        assert actual.injection_cycle == expected.injection_cycle
        assert actual.ejection_cycle == expected.ejection_cycle

    # The engine's ejection log is ordered by (cycle, node row-major) —
    # the order the oracle's per-router loop ejects within a cycle.
    order = net.ejection_order(0)
    eject = net.pkt_eject[order]
    node = net.pkt_dst[order]
    keys = eject * topology.num_nodes + node
    assert np.all(np.diff(keys) >= 0)


@pytest.mark.parametrize("depth", [1, 2])
def test_stalled_injections_match_with_tiny_buffers(depth):
    """Back-pressure bookkeeping matches when local buffers overflow."""
    topology = MeshTopology(4, 4)
    generator = make_traffic("uniform", topology, injection_rate=0.6, seed=7)
    vec, obj = run_both(topology, generator, cycles=120, warmup=0, depth=depth)
    assert vec.stats.stalled_injections > 0
    assert vec.stats.stalled_injections == obj.stats.stalled_injections


def test_run_packets_parity():
    topology = MeshTopology(4, 4)
    schedule = make_traffic("uniform", topology, injection_rate=0.3, seed=3).schedule(60)

    def batch():
        packets = object_engine.to_packets(schedule, topology)
        for packet in packets:
            packet.injection_cycle = 0
        return packets

    vec = NocSimulator(topology).run_packets(batch())
    obj = object_engine.run_packets(topology, batch())
    assert vec.cycles == obj.cycles
    assert vec.stats.latency == obj.stats.latency
    assert vec.router_activity == obj.router_activity


class TestConservation:
    """Flits are never created or destroyed: injected == ejected + in flight."""

    @given(
        width=st.integers(2, 4),
        height=st.integers(2, 4),
        rate=st.floats(0.05, 0.5),
        depth=st.integers(2, 4),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_packet_conservation_every_cycle(self, width, height, rate, depth, seed):
        topology = MeshTopology(width, height)
        generator = make_traffic("uniform", topology, injection_rate=rate, seed=seed)
        schedule = generator.schedule(60)
        net = VectorNetwork(topology, [schedule], buffer_depth=depth)
        for _ in range(90):
            net.step()
            injected = int(np.count_nonzero(net.pkt_inject >= 0))
            ejected = int(np.count_nonzero(net.pkt_eject >= 0))
            assert injected == ejected + net.in_network_packets(0)
        net.drain()
        # After a full drain every injected packet has been delivered.
        assert net.buffered_flits(0) == 0
        injected = int(np.count_nonzero(net.pkt_inject >= 0))
        ejected = int(np.count_nonzero(net.pkt_eject >= 0))
        assert injected == schedule.num_packets == ejected
