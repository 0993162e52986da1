"""Tests for the migration unit cost model."""

import pytest

from repro.migration.transforms import (
    IdentityTransform,
    RightShiftTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.flit import PacketClass
from repro.noc.simulator import NocSimulator


@pytest.fixture
def unit4(mesh4):
    return MigrationUnit(mesh4)


@pytest.fixture
def unit5(mesh5):
    return MigrationUnit(mesh5)


class TestMigrationCost:
    def test_cost_components_positive(self, unit4, mesh4):
        cost = unit4.migration_cost(XYShiftTransform(mesh4))
        assert cost.cycles > 0
        assert cost.total_energy_j > 0
        assert cost.num_phases >= 1

    def test_energy_distributed_over_units(self, unit4, mesh4):
        cost = unit4.migration_cost(XYShiftTransform(mesh4))
        assert set(cost.energy_per_unit_j) == set(mesh4.coordinates())
        assert sum(cost.energy_per_unit_j.values()) == pytest.approx(cost.total_energy_j)

    def test_rotation_costs_more_energy_than_shift(self, unit5, mesh5):
        """Rotation moves payloads the furthest, giving it the largest energy
        penalty — the mechanism behind the paper's 0.3 degC observation."""
        rotation = unit5.migration_cost(RotationTransform(mesh5))
        shift = unit5.migration_cost(RightShiftTransform(mesh5))
        assert rotation.total_energy_j > shift.total_energy_j

    def test_rotation_costs_more_than_single_direction_schemes_on_e(self, chip_e):
        unit = MigrationUnit(chip_e.topology, library=chip_e.library)
        nodes = chip_e.tanner_nodes_per_pe()
        energy = {
            scheme: unit.migration_cost(
                make_transform(scheme, chip_e.topology), nodes
            ).total_energy_j
            for scheme in ("rotation", "right-shift", "x-mirror")
        }
        assert energy["rotation"] > energy["right-shift"]
        assert energy["rotation"] > energy["x-mirror"]

    def test_identity_transform_costs_only_fixed_overhead(self, unit4, mesh4):
        cost = unit4.migration_cost(IdentityTransform(mesh4))
        # No transport, no phases; only the per-PE fixed/conversion terms.
        assert cost.cycles == 0
        transport_free = 16 * (
            unit4.fixed_energy_per_pe_j
            + unit4.state_model.payload_flits(0) * unit4.conversion_energy_per_flit_j
        )
        assert cost.total_energy_j == pytest.approx(transport_free)

    def test_state_size_increases_cost(self, unit4, mesh4):
        small = unit4.migration_cost(XYShiftTransform(mesh4))
        nodes = {coord: 50 for coord in mesh4.coordinates()}
        large = unit4.migration_cost(XYShiftTransform(mesh4), nodes)
        assert large.total_energy_j > small.total_energy_j
        assert large.cycles >= small.cycles

    def test_negative_conversion_energy_rejected(self, mesh4):
        with pytest.raises(ValueError):
            MigrationUnit(mesh4, conversion_energy_per_flit_j=-1.0)
        with pytest.raises(ValueError):
            MigrationUnit(mesh4, fixed_energy_per_pe_j=-1.0)


class TestThroughputPenalty:
    def test_penalty_in_unit_interval(self, unit5, mesh5):
        penalty = unit5.throughput_penalty(XYShiftTransform(mesh5), period_cycles=54500)
        assert 0.0 < penalty < 1.0

    def test_penalty_decreases_with_period(self, unit5, mesh5, chip_e):
        """The paper's period sweep: 109 us -> 1.6 %, 437.2 us -> <0.4 %,
        874.4 us -> <0.2 %.  Quadrupling the period must cut the penalty by
        roughly four."""
        transform = XYShiftTransform(mesh5)
        nodes = chip_e.tanner_nodes_per_pe()
        p109 = unit5.throughput_penalty(transform, chip_e.block_period_cycles(109.0), nodes)
        p437 = unit5.throughput_penalty(transform, chip_e.block_period_cycles(437.2), nodes)
        p874 = unit5.throughput_penalty(transform, chip_e.block_period_cycles(874.4), nodes)
        assert p109 > p437 > p874
        assert p437 == pytest.approx(p109 / 4.0, rel=0.1)
        assert p874 == pytest.approx(p109 / 8.0, rel=0.1)

    def test_penalty_magnitude_near_paper(self, unit4, mesh4, chip_a):
        """At the 109 us period the penalty should be a few percent at most."""
        nodes = chip_a.tanner_nodes_per_pe()
        penalty = unit4.throughput_penalty(
            XYShiftTransform(mesh4), chip_a.block_period_cycles(109.0), nodes
        )
        assert 0.001 < penalty < 0.05

    def test_invalid_period_rejected(self, unit4, mesh4):
        with pytest.raises(ValueError):
            unit4.throughput_penalty(XYShiftTransform(mesh4), period_cycles=0)


class TestMigrationPackets:
    def test_one_packet_per_moving_pe(self, unit5, mesh5):
        packets = unit5.migration_packets(RotationTransform(mesh5))
        # 25 PEs, one fixed point on the 5x5 mesh.
        assert len(packets) == 24
        assert all(p.packet_class == PacketClass.CONFIG for p in packets)

    def test_packets_replay_on_real_network(self, unit4, mesh4):
        """The migration's CONFIG packets must actually be deliverable by the
        cycle-accurate network (integration of migration with the NoC)."""
        packets = unit4.migration_packets(XYShiftTransform(mesh4))
        result = NocSimulator(mesh4, buffer_depth=8).run_packets(
            packets, drain_limit=500_000
        )
        assert result.stats.packets_ejected == len(packets)
        assert result.cycles > 0
