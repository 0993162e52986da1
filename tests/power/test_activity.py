"""Tests for activity maps and the analytic route-based flit estimator."""

import pytest

from repro.noc.flit import Packet
from repro.noc.routing import XYRouting
from repro.noc.simulator import NocSimulator
from repro.power.activity import (
    ActivityMap,
    UnitActivity,
    activity_from_simulation,
    analytic_router_flits,
)


class TestUnitActivity:
    def test_merge(self):
        a = UnitActivity(computation_ops=10, router_flits=5, extra_energy_j=1e-9)
        b = UnitActivity(computation_ops=2, router_flits=3, extra_energy_j=1e-9)
        merged = a.merge(b)
        assert merged.computation_ops == 12
        assert merged.router_flits == 8
        assert merged.extra_energy_j == pytest.approx(2e-9)


class TestActivityMap:
    def test_starts_empty_for_all_nodes(self, mesh4):
        amap = ActivityMap(mesh4)
        assert len(amap.units) == 16
        assert amap.total_computation_ops() == 0

    def test_accumulation(self, mesh4):
        amap = ActivityMap(mesh4)
        amap.add_computation((1, 1), 100)
        amap.add_computation((1, 1), 50)
        amap.add_router_flits((2, 2), 7)
        amap.add_energy((0, 0), 1e-6)
        assert amap.units[(1, 1)].computation_ops == 150
        assert amap.units[(2, 2)].router_flits == 7
        assert amap.units[(0, 0)].extra_energy_j == pytest.approx(1e-6)

    def test_rejects_outside_coordinates(self, mesh4):
        amap = ActivityMap(mesh4)
        with pytest.raises(ValueError):
            amap.add_computation((9, 9), 1)
        with pytest.raises(ValueError):
            amap.add_router_flits((-1, 0), 1)

    def test_merge_same_topology(self, mesh4):
        a = ActivityMap(mesh4)
        b = ActivityMap(mesh4)
        a.add_computation((0, 0), 5)
        b.add_computation((0, 0), 3)
        merged = a.merge(b)
        assert merged.units[(0, 0)].computation_ops == 8

    def test_merge_different_topology_rejected(self, mesh4, mesh5):
        with pytest.raises(ValueError):
            ActivityMap(mesh4).merge(ActivityMap(mesh5))

    def test_as_arrays_row_major(self, mesh4):
        amap = ActivityMap(mesh4)
        amap.add_computation((1, 0), 42)
        ops, flits, energy = amap.as_arrays()
        assert ops[mesh4.node_id((1, 0))] == 42
        assert ops.shape == (16,)


class TestAnalyticRouterFlits:
    def test_single_flow_charges_route(self, mesh4):
        flows = {((0, 0), (3, 0)): 10.0}
        per_router = analytic_router_flits(mesh4, flows)
        for hop in [(0, 0), (1, 0), (2, 0), (3, 0)]:
            assert per_router[hop] == 10.0
        assert per_router[(0, 1)] == 0.0

    def test_zero_flow_ignored(self, mesh4):
        per_router = analytic_router_flits(mesh4, {((0, 0), (1, 1)): 0.0})
        assert sum(per_router.values()) == 0.0

    def test_negative_flow_rejected(self, mesh4):
        with pytest.raises(ValueError):
            analytic_router_flits(mesh4, {((0, 0), (1, 1)): -5.0})

    def test_total_equals_flits_times_path_length(self, mesh4):
        flows = {((0, 0), (2, 2)): 4.0}
        per_router = analytic_router_flits(mesh4, flows)
        # XY path 0,0 -> 2,2 has 5 routers.
        assert sum(per_router.values()) == pytest.approx(4.0 * 5)

    def test_matches_simulation_for_single_packet(self, mesh4):
        """The analytic estimator and the cycle-accurate simulator agree on
        which routers a flow's flits visit."""
        packet = Packet(source=(0, 0), destination=(2, 1), size_flits=4)
        result = NocSimulator(mesh4).run_packets([packet])
        simulated = {
            coord: activity.flits_routed
            for coord, activity in result.router_activity.items()
        }
        analytic = analytic_router_flits(mesh4, {((0, 0), (2, 1)): 4.0})
        for coord in mesh4.coordinates():
            assert simulated[coord] == pytest.approx(analytic[coord])


class TestActivityFromSimulation:
    def test_collects_router_counters(self, mesh4):
        result = NocSimulator(mesh4).run_packets(
            [Packet(source=(0, 0), destination=(3, 3), size_flits=2)]
        )
        amap = activity_from_simulation(
            mesh4, result.router_activity, computation_ops={(0, 0): 99.0}
        )
        assert amap.units[(0, 0)].computation_ops == 99.0
        assert amap.total_router_flits() > 0
