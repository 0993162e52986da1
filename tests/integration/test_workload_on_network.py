"""Integration of the LDPC workload and migration traffic with the NoC."""

import pytest

from repro.ldpc import striped_partition
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters
from repro.migration import MigrationUnit, lower_transform, make_transform
from repro.noc import MeshTopology, NocSimulator
from repro.noc.flit import Packet, PacketClass
from repro.placement import Mapping
from repro.power.activity import activity_from_simulation, analytic_router_flits


@pytest.fixture(scope="module")
def workload16(small_code):
    _H, graph = small_code
    partition = striped_partition(graph, 16)
    return LdpcNocWorkload(partition, WorkloadParameters(max_packet_flits=8))


def config_packets(unit, stage):
    """CONFIG packets that carry a stage over the real NoC: one per PE its
    step moves, carrying a configuration payload plus the head flit."""
    coordinate = unit.topology.coordinate
    flits = unit.state_model.payload_flits(0) + 1
    return [
        Packet(coordinate(node), coordinate(target), flits, PacketClass.CONFIG)
        for node, target in enumerate(stage.step.tolist())
        if node != target
    ]


class TestLdpcIterationOnNetwork:
    def test_iteration_traffic_delivered(self, workload16):
        mesh = MeshTopology(4, 4)
        mapping = Mapping.identity(mesh)
        packets = workload16.iteration_packets(mapping)
        simulator = NocSimulator(mesh, buffer_depth=8)
        result = simulator.run_packets(packets, drain_limit=400_000)
        assert result.stats.packets_ejected == len(packets)
        # An iteration fits easily inside a block period.
        assert result.cycles < 5000

    def test_migrated_mapping_same_packet_count(self, workload16):
        """Migration permutes endpoints but the traffic volume is unchanged."""
        mesh = MeshTopology(4, 4)
        identity = Mapping.identity(mesh)
        migrated = identity.apply_transform(make_transform("xy-shift", mesh))
        assert len(workload16.iteration_packets(identity)) == len(
            workload16.iteration_packets(migrated)
        )

    def test_isometric_migration_preserves_delivery_time_scale(self, workload16):
        """An X-Y mirror preserves all pairwise distances, so the iteration
        completes in a similar number of cycles before and after migration."""
        mesh = MeshTopology(4, 4)
        identity = Mapping.identity(mesh)
        mirrored = identity.apply_transform(make_transform("xy-mirror", mesh))
        base = NocSimulator(mesh, buffer_depth=8).run_packets(
            workload16.iteration_packets(identity), drain_limit=400_000
        )
        after = NocSimulator(mesh, buffer_depth=8).run_packets(
            workload16.iteration_packets(mirrored), drain_limit=400_000
        )
        assert after.cycles == pytest.approx(base.cycles, rel=0.25)

    def test_simulated_activity_close_to_analytic(self, workload16):
        """Total router flit traversals from the cycle-accurate run match the
        analytic XY-route estimate (both count every router on each path)."""
        mesh = MeshTopology(4, 4)
        mapping = Mapping.identity(mesh)
        packets = workload16.iteration_packets(mapping)
        simulator = NocSimulator(mesh, buffer_depth=8)
        result = simulator.run_packets(packets, drain_limit=400_000)
        simulated_total = sum(a.flits_routed for a in result.router_activity.values())

        flows = {}
        for packet in packets:
            key = (packet.source, packet.destination)
            flows[key] = flows.get(key, 0.0) + packet.size_flits
        analytic = analytic_router_flits(mesh, flows)
        assert simulated_total == pytest.approx(sum(analytic.values()), rel=1e-6)


class TestMigrationTrafficOnNetwork:
    def test_migration_completes_within_schedule_bound_scale(self):
        """Replaying the migration's CONFIG packets on the real network takes
        the same order of cycles as the analytic congestion-free schedule."""
        mesh = MeshTopology(5, 5)
        unit = MigrationUnit(mesh)
        transform = make_transform("xy-shift", mesh)
        (stage,) = lower_transform(transform, unit).stages
        packets = config_packets(unit, stage)
        simulator = NocSimulator(mesh, buffer_depth=8)
        result = simulator.run_packets(packets, drain_limit=500_000)
        assert result.stats.packets_ejected == len(packets)
        # The analytic schedule serialises phases, the real network overlaps
        # them, so reality should not be slower than ~3x the schedule bound.
        assert result.cycles < 3 * max(stage.cycles, 1)

    def test_workload_and_migration_traffic_coexist(self, workload16):
        """Workload DATA packets and migration CONFIG packets injected together
        are all delivered (no deadlock from mixing traffic classes)."""
        mesh = MeshTopology(4, 4)
        mapping = Mapping.identity(mesh)
        unit = MigrationUnit(mesh)
        packets = workload16.iteration_packets(mapping)
        (stage,) = lower_transform(make_transform("rotation", mesh), unit).stages
        packets += config_packets(unit, stage)
        simulator = NocSimulator(mesh, buffer_depth=8)
        result = simulator.run_packets(packets, drain_limit=800_000)
        assert result.stats.packets_ejected == len(packets)
