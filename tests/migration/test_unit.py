"""Tests for the migration unit cost model.

A migration's cost is its plan's: a sudden migration is the one-stage plan
``lower_transform(transform, unit, nodes).stages[0]``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.migration.plan import lower_transform
from repro.migration.transforms import (
    IdentityTransform,
    RightShiftTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.flit import Packet, PacketClass

# The cycle-accurate NoC oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "noc"))
import object_engine  # noqa: E402


@pytest.fixture
def unit4(mesh4):
    return MigrationUnit(mesh4)


@pytest.fixture
def unit5(mesh5):
    return MigrationUnit(mesh5)


def sudden_stage(unit, transform, nodes=None):
    """The single stage of ``transform``'s sudden plan."""
    (stage,) = lower_transform(transform, unit, nodes).stages
    return stage


def hosted_tanner_nodes(chip):
    """Tanner nodes hosted at each node under the chip's static mapping."""
    nodes = [0] * chip.num_units
    for task, count in chip.tanner_nodes_per_task().items():
        nodes[chip.topology.node_id(chip.static_mapping.physical_of(task))] = count
    return nodes


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


def throughput_penalty(unit, transform, period_cycles, nodes=None):
    """Fraction of cycles lost when the array halts for one sudden migration
    per period: ``migration_cycles / (migration_cycles + period_cycles)``."""
    cycles = sudden_stage(unit, transform, nodes).cycles
    return cycles / (cycles + period_cycles)


class TestMigrationCost:
    def test_cost_components_positive(self, unit4, mesh4):
        stage = sudden_stage(unit4, XYShiftTransform(mesh4))
        assert stage.cycles > 0
        assert stage.energy_j > 0
        perm = XYShiftTransform(mesh4).node_permutation()
        assert len(unit4.scheduler.phases(perm.tolist(), range(16))) >= 1

    def test_energy_distributed_over_units(self, unit4, mesh4):
        stage = sudden_stage(unit4, XYShiftTransform(mesh4))
        assert stage.energy.shape == (mesh4.num_nodes,)
        assert (stage.energy > 0).all()
        assert stage.energy.sum() == pytest.approx(stage.energy_j)

    def test_rotation_costs_more_energy_than_shift(self, unit5, mesh5):
        """Rotation moves payloads the furthest, giving it the largest energy
        penalty — the mechanism behind the paper's 0.3 degC observation."""
        rotation = sudden_stage(unit5, RotationTransform(mesh5))
        shift = sudden_stage(unit5, RightShiftTransform(mesh5))
        assert rotation.energy_j > shift.energy_j

    def test_rotation_costs_more_than_single_direction_schemes_on_e(self, chip_e):
        unit = MigrationUnit(chip_e.topology, library=chip_e.library)
        nodes = hosted_tanner_nodes(chip_e)
        energy = {
            scheme: sudden_stage(
                unit, make_transform(scheme, chip_e.topology), nodes
            ).energy_j
            for scheme in ("rotation", "right-shift", "x-mirror")
        }
        assert energy["rotation"] > energy["right-shift"]
        assert energy["rotation"] > energy["x-mirror"]

    def test_identity_transform_costs_only_fixed_overhead(self, unit4, mesh4):
        stage = sudden_stage(unit4, IdentityTransform(mesh4))
        # No transport, no phases; only the per-PE fixed/conversion terms.
        assert stage.cycles == 0
        transport_free = 16 * (
            unit4.fixed_energy_per_pe_j
            + unit4.state_model.payload_flits(0) * unit4.conversion_energy_per_flit_j
        )
        assert stage.energy_j == pytest.approx(transport_free)

    def test_state_size_increases_cost(self, unit4, mesh4):
        small = sudden_stage(unit4, XYShiftTransform(mesh4))
        large = sudden_stage(unit4, XYShiftTransform(mesh4), [50] * 16)
        assert large.energy_j > small.energy_j
        assert large.cycles >= small.cycles

    def test_one_move_charges(self, unit4, mesh4):
        """One remote move: conversion and fixed cost at its source, router
        energy at every node of its route, half the link energy at each
        end; the total counts the link energy once."""
        source, destination = mesh4.node_id((0, 0)), mesh4.node_id((2, 1))
        perm = list(range(16))
        perm[source], perm[destination] = destination, source
        total, energy = unit4.moves_energy(perm, [7] * 16, [source])
        conversion = (
            7 * unit4.conversion_energy_per_flit_j + unit4.fixed_energy_per_pe_j
        )
        router = 8 * unit4.library.router_energy_per_flit_j
        link = 8 * 3 * unit4.library.link_energy_per_flit_j
        expected = np.zeros(16)
        expected[source] += conversion + link / 2
        expected[destination] += link / 2
        for coord in [(0, 0), (1, 0), (2, 0), (2, 1)]:
            expected[mesh4.node_id(coord)] += router
        assert energy.tolist() == pytest.approx(expected.tolist(), rel=1e-12)
        assert total == pytest.approx(conversion + 4 * router + link, rel=1e-12)
        assert not energy.flags.writeable

    def test_negative_conversion_energy_rejected(self, mesh4):
        with pytest.raises(ValueError):
            MigrationUnit(mesh4, conversion_energy_per_flit_j=-1.0)
        with pytest.raises(ValueError):
            MigrationUnit(mesh4, fixed_energy_per_pe_j=-1.0)


class TestThroughputPenalty:
    def test_penalty_in_unit_interval(self, unit5, mesh5):
        penalty = throughput_penalty(unit5, XYShiftTransform(mesh5), 54500)
        assert 0.0 < penalty < 1.0

    def test_penalty_decreases_with_period(self, unit5, mesh5, chip_e):
        """The paper's period sweep: 109 us -> 1.6 %, 437.2 us -> <0.4 %,
        874.4 us -> <0.2 %.  Quadrupling the period must cut the penalty by
        roughly four."""
        transform = XYShiftTransform(mesh5)
        nodes = hosted_tanner_nodes(chip_e)
        p109, p437, p874 = (
            throughput_penalty(
                unit5, transform, chip_e.block_period_cycles(period_us), nodes
            )
            for period_us in (109.0, 437.2, 874.4)
        )
        assert p109 > p437 > p874
        assert p437 == pytest.approx(p109 / 4.0, rel=0.1)
        assert p874 == pytest.approx(p109 / 8.0, rel=0.1)

    def test_penalty_magnitude_near_paper(self, unit4, mesh4, chip_a):
        """At the 109 us period the penalty should be a few percent at most."""
        nodes = hosted_tanner_nodes(chip_a)
        penalty = throughput_penalty(
            unit4, XYShiftTransform(mesh4), chip_a.block_period_cycles(109.0), nodes
        )
        assert 0.001 < penalty < 0.05


class TestMigrationPackets:
    def test_one_packet_per_moving_pe(self, unit5, mesh5):
        packets = config_packets(unit5, sudden_stage(unit5, RotationTransform(mesh5)))
        # 25 PEs, one fixed point on the 5x5 mesh.
        assert len(packets) == 24
        assert all(p.packet_class == PacketClass.CONFIG for p in packets)

    def test_packets_replay_on_real_network(self, unit4, mesh4):
        """The migration's CONFIG packets must actually be deliverable by the
        cycle-accurate network (integration of migration with the NoC)."""
        packets = config_packets(unit4, sudden_stage(unit4, XYShiftTransform(mesh4)))
        result = object_engine.run_packets(mesh4, packets, buffer_depth=8)
        assert result.stats.packets_ejected == len(packets)
        assert result.cycles > 0
