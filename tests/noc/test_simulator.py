"""Tests for the high-level NoC simulation driver and statistics."""

import pytest

from repro.noc.flit import Packet
from repro.noc.simulator import NocSimulator, run_schedules
from repro.noc.stats import LatencyStats, NetworkStats
from repro.noc.traffic import UniformRandomTraffic, make_traffic


class TestRunTraffic:
    def test_delivers_offered_traffic(self, simulator4, mesh4):
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2)
        result = simulator4.run_traffic(traffic, cycles=300, warmup_cycles=0)
        assert result.drained
        assert result.stats.packets_ejected > 0
        assert result.stats.packets_ejected == result.stats.packets_injected

    def test_warmup_traffic_drains_into_measurement(self, simulator4, mesh4):
        # Packets injected during warm-up may eject during measurement, so the
        # ejected count can exceed the measured injections but never by more
        # than what the warm-up left in flight.
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2)
        result = simulator4.run_traffic(traffic, cycles=300, warmup_cycles=50)
        assert result.drained
        assert result.stats.packets_ejected >= result.stats.packets_injected

    def test_average_latency_reasonable(self, simulator4, mesh4):
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.02, seed=3)
        result = simulator4.run_traffic(traffic, cycles=400)
        # At very low load, latency should be close to the unloaded bound:
        # a few cycles per hop plus serialisation.
        assert 2 <= result.average_latency <= 30

    def test_latency_increases_with_load(self, mesh4):
        low = NocSimulator(mesh4).run_traffic(
            UniformRandomTraffic(mesh4, injection_rate=0.02, seed=4), cycles=400
        )
        high = NocSimulator(mesh4).run_traffic(
            UniformRandomTraffic(mesh4, injection_rate=0.25, seed=4), cycles=400
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
            traffic = make_traffic(
                pattern, mesh4, injection_rate=0.12, seed=3, **kwargs
            )
            results[pattern] = NocSimulator(mesh4, buffer_depth=4).run_traffic(
                traffic, cycles=150, warmup_cycles=30
            )
        uniform, hotspot = results["uniform"], results["hotspot"]
        assert hotspot.average_latency >= uniform.average_latency
        assert max(hotspot.activity_per_node().values()) > max(
            uniform.activity_per_node().values()
        )

    def test_activity_collected(self, simulator4, mesh4):
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.1, seed=5)
        result = simulator4.run_traffic(traffic, cycles=200)
        activity = result.activity_per_node()
        assert len(activity) == mesh4.num_nodes
        assert sum(activity.values()) > 0


class TestRunPackets:
    def test_single_batch(self, simulator4):
        packets = [
            Packet(source=(0, 0), destination=(3, 3), size_flits=4),
            Packet(source=(3, 0), destination=(0, 3), size_flits=4),
        ]
        result = simulator4.run_packets(packets)
        assert result.stats.packets_ejected == 2
        assert result.cycles > 0

    def test_batches_are_independent(self, simulator4):
        first = simulator4.run_packets(
            [Packet(source=(0, 0), destination=(1, 0), size_flits=2)]
        )
        second = simulator4.run_packets(
            [Packet(source=(0, 0), destination=(1, 0), size_flits=2)]
        )
        assert first.cycles == second.cycles
        assert second.stats.packets_ejected == 1
        assert second.router_activity == first.router_activity

    def test_empty_batch_runs_no_cycles(self, simulator4):
        result = simulator4.run_packets([])
        assert result.cycles == 0
        assert result.stats.packets_ejected == 0
        assert result.link_flits == 0

    def test_writes_cycles_back_to_packets(self, simulator4):
        """The run ends on the cycle the last tail ejects: the one-cycle
        offer horizon adds no idle cycle."""
        packet = Packet(source=(0, 0), destination=(2, 0), size_flits=3)
        result = simulator4.run_packets([packet])
        assert packet.injection_cycle == 0
        assert packet.ejection_cycle == result.cycles

    def test_self_addressed_packet_rejected(self, simulator4):
        # No runtime caller produces one: the LDPC workload and migration
        # replay only send between distinct PEs.
        with pytest.raises(ValueError, match="source == destination"):
            simulator4.run_packets([Packet(source=(2, 2), destination=(2, 2), size_flits=1)])


class TestInputChecks:
    def test_rejects_bad_buffer_depth(self, mesh4):
        with pytest.raises(ValueError, match="buffer depth"):
            NocSimulator(mesh4, buffer_depth=0)

    def test_rejects_unknown_routing(self, mesh4):
        with pytest.raises(ValueError, match="bogus"):
            NocSimulator(mesh4, routing="bogus")

    @pytest.mark.parametrize(
        "phases,name",
        [
            ({"cycles": -5}, "cycles"),
            ({"cycles": 10, "warmup_cycles": -3}, "warmup_cycles"),
        ],
    )
    def test_run_traffic_rejects_negative_phases(self, simulator4, mesh4, phases, name):
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2)
        with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
            simulator4.run_traffic(traffic, **phases)

    @pytest.mark.parametrize(
        "phases,name",
        [
            ({"cycles": -1}, "cycles"),
            ({"cycles": 10, "warmup_cycles": -1}, "warmup_cycles"),
        ],
    )
    def test_run_schedules_rejects_negative_phases(self, mesh4, phases, name):
        schedule = UniformRandomTraffic(mesh4, injection_rate=0.05, seed=2).schedule(10)
        with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
            run_schedules(mesh4, [schedule], **phases)

    def test_zero_cycles_is_an_empty_run(self, simulator4, mesh4):
        traffic = UniformRandomTraffic(mesh4, injection_rate=0.5, seed=2)
        result = simulator4.run_traffic(traffic, cycles=0)
        assert result.cycles == 0
        assert result.stats.packets_injected == 0


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

    def test_merge(self):
        a = LatencyStats()
        b = LatencyStats()
        a.record(4)
        b.record(8)
        merged = a.merge(b)
        assert merged.count == 2
        assert merged.mean == 6
        assert merged.minimum == 4
        assert merged.maximum == 8


class TestNetworkStats:
    def test_summary_keys(self):
        stats = NetworkStats()
        summary = stats.summary()
        assert "avg_latency_cycles" in summary
        assert "throughput_flits_per_cycle" in summary

    def test_throughput_zero_when_no_cycles(self):
        stats = NetworkStats()
        assert stats.throughput_flits_per_cycle == 0.0

    def test_in_flight_accounting(self):
        stats = NetworkStats()
        packet = Packet(source=(0, 0), destination=(1, 1), size_flits=2)
        stats.record_injection(packet)
        assert stats.in_flight_packets == 1
        packet.ejection_cycle = 10
        stats.record_ejection(packet)
        assert stats.in_flight_packets == 0
