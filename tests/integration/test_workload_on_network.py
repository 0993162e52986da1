"""Integration of the LDPC workload and migration traffic with the NoC.

The packets replay on the cycle-accurate object engine, the oracle the
analytic NoC model is calibrated against.
"""

import sys
from pathlib import Path

import pytest

from repro.ldpc import striped_partition
from repro.ldpc.workload import LdpcNocWorkload, WorkloadParameters
from repro.migration import MigrationUnit, lower_transform, make_transform
from repro.noc import MeshTopology
from repro.noc.flit import Packet, PacketClass

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "noc"))
import object_engine  # noqa: E402


@pytest.fixture(scope="module")
def workload16(small_code):
    _H, graph = small_code
    partition = striped_partition(graph, 16)
    return LdpcNocWorkload(partition, WorkloadParameters(max_packet_flits=8))


def placed(mesh, transform=None):
    """Task -> coordinate: the identity placement, or its image under ``transform``."""
    nodes = range(mesh.num_nodes)
    if transform is not None:
        nodes = transform.node_permutation()
    return {task: mesh.coordinate(int(node)) for task, node in enumerate(nodes)}


def iteration_packets(workload, placement):
    """One decoding iteration's DATA packets: each task pair's payload
    flits, split into packets of at most ``max_packet_flits`` (head flit
    included)."""
    chunk = workload.parameters.max_packet_flits - 1
    packets = []
    for src in range(workload.num_tasks):
        for dst in range(workload.num_tasks):
            remaining = workload.flits_between(src, dst) if src != dst else 0
            while remaining > 0:
                flits = min(remaining, chunk)
                packets.append(Packet(placement[src], placement[dst], flits + 1))
                remaining -= flits
    return packets


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
        packets = iteration_packets(workload16, placed(mesh))
        assert sum(p.size_flits - 1 for p in packets) == (
            workload16.total_flits_per_iteration()
        )
        result = object_engine.run_packets(mesh, packets, buffer_depth=8)
        assert result.stats.packets_ejected == len(packets)
        # An iteration fits easily inside a block period.
        assert result.cycles < 5000

    def test_isometric_migration_preserves_delivery_time_scale(self, workload16):
        """An X-Y mirror preserves all pairwise distances, so the iteration
        completes in a similar number of cycles before and after migration."""
        mesh = MeshTopology(4, 4)
        mirrored = placed(mesh, make_transform("xy-mirror", mesh))
        base = object_engine.run_packets(
            mesh, iteration_packets(workload16, placed(mesh)), buffer_depth=8
        )
        after = object_engine.run_packets(
            mesh, iteration_packets(workload16, mirrored), buffer_depth=8
        )
        assert after.cycles == pytest.approx(base.cycles, rel=0.25)


class TestMigrationTrafficOnNetwork:
    def test_migration_completes_within_schedule_bound_scale(self):
        """Replaying the migration's CONFIG packets on the real network takes
        the same order of cycles as the analytic congestion-free schedule."""
        mesh = MeshTopology(5, 5)
        unit = MigrationUnit(mesh)
        transform = make_transform("xy-shift", mesh)
        (stage,) = lower_transform(transform, unit).stages
        packets = config_packets(unit, stage)
        result = object_engine.run_packets(mesh, packets, buffer_depth=8)
        assert result.stats.packets_ejected == len(packets)
        # The analytic schedule serialises phases, the real network overlaps
        # them, so reality should not be slower than ~3x the schedule bound.
        assert result.cycles < 3 * max(stage.cycles, 1)

    def test_workload_and_migration_traffic_coexist(self, workload16):
        """Workload DATA packets and migration CONFIG packets injected together
        are all delivered (no deadlock from mixing traffic classes)."""
        mesh = MeshTopology(4, 4)
        unit = MigrationUnit(mesh)
        packets = iteration_packets(workload16, placed(mesh))
        (stage,) = lower_transform(make_transform("rotation", mesh), unit).stages
        packets += config_packets(unit, stage)
        result = object_engine.run_packets(mesh, packets, buffer_depth=8, drain_limit=800_000)
        assert result.stats.packets_ejected == len(packets)
