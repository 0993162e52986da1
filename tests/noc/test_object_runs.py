"""Tests for the cycle-engine oracle's run drivers and statistics.

``object_engine.run_traffic`` and ``run_packets`` are what
``test_analytic.py`` calibrates the analytic NoC model against, so the
properties that calibration rests on are checked here: every offered packet
is delivered on every routing, flits are conserved cycle by cycle, no packet
beats the zero-load latency the model starts from, each flit crosses one
link per hop, statistics restart at the warm-up boundary with traffic left
in flight, and latency grows with load.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import object_engine
from object_engine import Network, run_packets, run_traffic
from reference import hops
from repro.noc.analytic import analytic_model
from repro.noc.flit import Packet
from repro.noc.routing import available_algorithms
from repro.noc.topology import MeshTopology
from stats import LatencyStats, NetworkStats
from traffic import UniformRandomTraffic, make_traffic

RUN_CONFIGS = [
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
CONFIG_IDS = [f"{c[0]}x{c[0]}-{c[1]}-{c[5]}" for c in RUN_CONFIGS]
by_config = pytest.mark.parametrize("index", range(len(RUN_CONFIGS)), ids=CONFIG_IDS)


def config_schedule(index):
    size, pattern, rate, cycles, warmup, _routing, _depth, kwargs = RUN_CONFIGS[index]
    topology = MeshTopology(size, size)
    generator = make_traffic(pattern, topology, injection_rate=rate, seed=7, **kwargs)
    return topology, generator.schedule(warmup + cycles)


@lru_cache(maxsize=None)
def replay(index):
    """One config's schedule driven through a ``Network`` by hand, cycle by
    cycle, and drained: (network, packets in offer order).  Nothing is reset
    at the warm-up boundary, so the counters cover the whole run."""
    _size, _pattern, _rate, cycles, warmup, routing, depth, _kwargs = RUN_CONFIGS[index]
    topology, schedule = config_schedule(index)
    packets = object_engine.to_packets(schedule, topology)
    offered = {}
    for packet in packets:
        offered.setdefault(packet.injection_cycle, []).append(packet)
    network = Network(topology, routing=routing, buffer_depth=depth)
    for cycle in range(warmup + cycles):
        for packet in offered.get(cycle, ()):
            network.inject(packet)
        network.step()
    network.drain(max_cycles=50_000)
    return network, packets


def activity_per_node(result):
    return {coord: a.flits_routed for coord, a in result.router_activity.items()}


class TestConfigRuns:
    """Each config is a mesh, traffic pattern, load, routing and buffer depth."""

    @by_config
    def test_every_offered_packet_is_delivered(self, index):
        network, packets = replay(index)
        assert all(packet.ejection_cycle is not None for packet in packets)
        assert network.stats.packets_injected == len(packets)
        assert network.stats.packets_ejected == len(packets)
        assert network.stats.flits_ejected == sum(p.size_flits for p in packets)
        assert network.is_idle()

    @by_config
    def test_no_packet_beats_the_zero_load_latency(self, index):
        """Head latency is one cycle per hop plus one to eject, and the tail
        trails the head by the packet's other flits."""
        _network, packets = replay(index)
        for packet in packets:
            floor = hops(packet.source, packet.destination) + packet.size_flits + 1
            assert packet.latency >= floor

    @by_config
    def test_each_flit_crosses_one_link_per_hop(self, index):
        network, packets = replay(index)
        assert network.links.total_flits() == sum(
            hops(p.source, p.destination) * p.size_flits for p in packets
        )
        routed = sum(a.flits_routed for a in network.router_activity().values())
        # A flit is routed once at each router on its path, the last one
        # included (it routes the flit to its local port).
        assert routed == sum(
            (hops(p.source, p.destination) + 1) * p.size_flits for p in packets
        )

    @by_config
    def test_statistics_restart_at_the_warmup_boundary(self, index):
        """``run_traffic`` measures what its warm-up left in flight: exactly
        the packets that start injecting, and those that eject, after it."""
        _size, _pattern, _rate, cycles, warmup, routing, depth, _kwargs = RUN_CONFIGS[index]
        topology, schedule = config_schedule(index)
        result = run_traffic(
            topology, schedule, cycles=cycles, warmup_cycles=warmup,
            routing=routing, buffer_depth=depth,
        )
        _network, packets = replay(index)
        injected = [p for p in packets if p.injection_cycle >= warmup]
        ejected = [p for p in packets if p.ejection_cycle > warmup]
        expected = LatencyStats()
        for packet in sorted(ejected, key=lambda p: (p.ejection_cycle, p.packet_id)):
            expected.record(packet.latency)
        assert result.drained
        assert result.stats.packets_injected == len(injected)
        assert result.stats.packets_ejected == len(ejected)
        assert result.stats.latency.count == expected.count
        assert result.stats.latency.minimum == expected.minimum
        assert result.stats.latency.maximum == expected.maximum
        assert result.stats.latency.total == pytest.approx(expected.total)

    def test_ejection_log_is_in_cycle_order(self):
        network, packets = replay(1)
        cycles = [packet.ejection_cycle for packet in network.ejected_packets]
        assert cycles == sorted(cycles)
        assert sorted(p.packet_id for p in network.ejected_packets) == sorted(
            p.packet_id for p in packets
        )

    @pytest.mark.parametrize("depth", [1, 2])
    def test_tiny_buffers_stall_injections_but_deliver_everything(self, depth):
        topology = MeshTopology(4, 4)
        schedule = make_traffic("uniform", topology, injection_rate=0.6, seed=7).schedule(120)
        result = run_traffic(topology, schedule, cycles=120, buffer_depth=depth)
        assert result.stats.stalled_injections > 0
        assert result.drained
        assert result.stats.packets_ejected == result.stats.packets_injected
        assert result.stats.packets_injected == schedule.num_packets


class TestFlitConservation:
    """Flits are never created or destroyed: every flit of an injected packet
    is still waiting at its source, buffered in a router, or ejected."""

    @given(
        width=st.integers(2, 4),
        height=st.integers(2, 4),
        rate=st.floats(0.05, 0.5),
        depth=st.integers(1, 4),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=15, deadline=None)
    def test_flit_conservation_every_cycle(self, width, height, rate, depth, seed):
        topology = MeshTopology(width, height)
        schedule = make_traffic("uniform", topology, injection_rate=rate, seed=seed).schedule(40)
        offered = {}
        for packet in object_engine.to_packets(schedule, topology):
            offered.setdefault(packet.injection_cycle, []).append(packet)
        network = Network(topology, buffer_depth=depth)

        def accounted():
            waiting = sum(len(flits) for flits in network._injecting.values())
            buffered = sum(router.buffered_flits() for router in network.routers.values())
            ejecting = sum(network._ejecting.values())
            return waiting + buffered + ejecting + network.stats.flits_ejected

        for cycle in range(70):
            for packet in offered.get(cycle, ()):
                network.inject(packet)
            network.step()
            assert network.stats.flits_injected == accounted()
        network.drain(max_cycles=50_000)
        assert network.stats.packets_ejected == schedule.num_packets
        assert network.stats.flits_ejected == schedule.total_flits


class TestZeroLoadLatency:
    """An unloaded network delivers every packet at the analytic model's
    zero-load latency: hops + flits + 1 ejection cycle."""

    @pytest.mark.parametrize("routing", available_algorithms())
    @pytest.mark.parametrize("width,height", [(4, 4), (3, 2), (2, 5)])
    def test_every_pair_on_every_routing(self, routing, width, height):
        topology = MeshTopology(width, height)
        network = Network(topology, routing=routing)
        latencies = []
        for source in topology.coordinates():
            for destination in topology.coordinates():
                if source == destination:
                    continue
                network.reset()
                packet = Packet(source=source, destination=destination, size_flits=4)
                network.inject(packet)
                assert network.drain() == packet.ejection_cycle
                assert packet.latency == hops(source, destination) + 4 + 1
                latencies.append(packet.latency)
        model = analytic_model(topology, "uniform", routing=routing)
        assert model.latency(1e-9) == pytest.approx(sum(latencies) / len(latencies), abs=1e-3)


class TestRunTraffic:
    def test_delivers_offered_traffic(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2).schedule(300)
        result = run_traffic(mesh4, schedule, cycles=300, warmup_cycles=0)
        assert result.drained
        assert result.stats.packets_ejected > 0
        assert result.stats.packets_ejected == result.stats.packets_injected

    def test_warmup_traffic_drains_into_measurement(self, mesh4):
        # Packets injected during warm-up may eject during measurement, so the
        # ejected count can exceed the measured injections but never by more
        # than what the warm-up left in flight.
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2).schedule(350)
        result = run_traffic(mesh4, schedule, cycles=300, warmup_cycles=50)
        assert result.drained
        assert result.stats.packets_ejected >= result.stats.packets_injected

    def test_average_latency_reasonable(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.02, seed=3).schedule(400)
        result = run_traffic(mesh4, schedule, cycles=400)
        # At very low load, latency should be close to the unloaded bound:
        # a few cycles per hop plus serialisation.
        assert 2 <= result.average_latency <= 30

    def test_latency_increases_with_load(self, mesh4):
        low, high = (
            run_traffic(
                mesh4,
                UniformRandomTraffic(mesh4, injection_rate=rate, seed=4).schedule(400),
                cycles=400,
            )
            for rate in (0.02, 0.25)
        )
        assert high.average_latency > low.average_latency

    def test_hotspot_congests_more_than_uniform(self, mesh4):
        """At the same injection rate, traffic converging on one node waits
        longer and concentrates switching activity on its router — why a
        thermal hotspot forms there."""
        results = {}
        for pattern, kwargs in (
            ("uniform", {}),
            ("hotspot", {"hotspots": [(2, 2)], "hotspot_fraction": 0.6}),
        ):
            schedule = make_traffic(
                pattern, mesh4, injection_rate=0.12, seed=3, **kwargs
            ).schedule(180)
            results[pattern] = run_traffic(mesh4, schedule, cycles=150, warmup_cycles=30)
        uniform, hotspot = results["uniform"], results["hotspot"]
        assert hotspot.average_latency >= uniform.average_latency
        assert max(activity_per_node(hotspot).values()) > max(
            activity_per_node(uniform).values()
        )

    def test_activity_collected(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.1, seed=5).schedule(200)
        result = run_traffic(mesh4, schedule, cycles=200)
        activity = activity_per_node(result)
        assert len(activity) == mesh4.num_nodes
        assert sum(activity.values()) > 0

    def test_packets_offered_after_the_run_are_dropped(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.1, seed=5).schedule(200)
        result = run_traffic(mesh4, schedule, cycles=100)
        assert result.stats.packets_injected == schedule.limited_to(100).num_packets
        assert result.stats.packets_injected < schedule.num_packets

    def test_no_drain_keeps_measurement_window(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.1, seed=1).schedule(150)
        result = run_traffic(mesh4, schedule, cycles=100, warmup_cycles=50, drain=False)
        assert result.cycles == 100
        assert not result.drained


class TestRunPackets:
    def test_single_batch(self, mesh4):
        packets = [
            Packet(source=(0, 0), destination=(3, 3), size_flits=4),
            Packet(source=(3, 0), destination=(0, 3), size_flits=4),
        ]
        result = run_packets(mesh4, packets)
        assert result.stats.packets_ejected == 2
        assert result.cycles > 0

    def test_batches_are_independent(self, mesh4):
        first = run_packets(mesh4, [Packet(source=(0, 0), destination=(1, 0), size_flits=2)])
        second = run_packets(mesh4, [Packet(source=(0, 0), destination=(1, 0), size_flits=2)])
        assert first.cycles == second.cycles
        assert second.stats.packets_ejected == 1
        assert second.router_activity == first.router_activity

    def test_empty_batch_runs_no_cycles(self, mesh4):
        result = run_packets(mesh4, [])
        assert result.cycles == 0
        assert result.stats.packets_ejected == 0
        assert result.link_flits == 0

    def test_writes_cycles_back_to_packets(self, mesh4):
        """The run ends on the cycle the last tail ejects."""
        packet = Packet(source=(0, 0), destination=(2, 0), size_flits=3)
        result = run_packets(mesh4, [packet])
        assert packet.injection_cycle == 0
        assert packet.ejection_cycle == result.cycles


class TestInputChecks:
    def test_rejects_bad_buffer_depth(self, mesh4):
        with pytest.raises(ValueError, match="buffer capacity"):
            Network(mesh4, buffer_depth=0)

    def test_rejects_unknown_routing(self, mesh4):
        with pytest.raises(ValueError, match="bogus"):
            Network(mesh4, routing="bogus")

    def test_zero_cycles_is_an_empty_run(self, mesh4):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.5, seed=2).schedule(10)
        result = run_traffic(mesh4, schedule, cycles=0)
        assert result.cycles == 0
        assert result.stats.packets_injected == 0

    def test_drain_limit_reports_a_stuck_network(self, mesh4):
        network = Network(mesh4)
        network.inject(Packet(source=(0, 0), destination=(3, 3), size_flits=8))
        with pytest.raises(RuntimeError, match="failed to drain within 3 cycles"):
            network.drain(max_cycles=3)


class TestLatencyStats:
    def test_streaming_statistics(self):
        stats = LatencyStats()
        for value in [5, 10, 15]:
            stats.record(value)
        assert stats.count == 3
        assert stats.mean == 10
        assert stats.minimum == 5
        assert stats.maximum == 15

    def test_empty_mean_is_zero(self):
        assert LatencyStats().mean == 0.0


class TestNetworkStats:
    def test_in_flight_accounting(self):
        stats = NetworkStats()
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=2)
        stats.record_injection(packet)
        assert stats.in_flight_packets == 1
        packet.ejection_cycle = 10
        stats.record_ejection(packet)
        assert stats.in_flight_packets == 0

    def test_per_class_and_per_node_split(self):
        stats = NetworkStats()
        for destination, ejected_at in (((1, 1), 6), ((1, 1), 9), ((2, 0), 4)):
            packet = Packet(source=(0, 0), destination=destination, size_flits=2)
            stats.record_injection(packet)
            packet.ejection_cycle = ejected_at
            stats.record_ejection(packet)
        assert stats.injected_per_node == {(0, 0): 3}
        assert stats.ejected_per_node == {(1, 1): 2, (2, 0): 1}
        assert sum(s.count for s in stats.latency_by_class.values()) == 3
        assert stats.average_latency == pytest.approx(19 / 3)

    def test_reset_clears_every_counter(self):
        stats = NetworkStats()
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=2)
        stats.record_injection(packet)
        packet.ejection_cycle = 3
        stats.record_ejection(packet)
        stats.cycles = 7
        stats.reset()
        assert stats == NetworkStats()
