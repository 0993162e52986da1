"""Tests for staged migration plans (lowering, invariants, pricing)."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.migration.plan import (
    MIGRATION_STYLES,
    MigrationPlan,
    _permutation_cycles,
    congestion_factor,
    lower_transform,
    priced_stage_cycles,
)
from repro.migration.transforms import (
    IdentityTransform,
    MigrationTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.analytic import analytic_model
from repro.noc.topology import MeshTopology
from repro.stream.checkpoint import decode_checkpoint, encode_checkpoint

# The whole-transform cost of the controller oracle, independent of lowering.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from test_controller_oracle import migration_cost  # noqa: E402


@pytest.fixture
def unit4(mesh4):
    return MigrationUnit(mesh4)


@pytest.fixture
def unit5(mesh5):
    return MigrationUnit(mesh5)


def _moved_nodes(stage):
    """The nodes a stage relocates (where its step is not the identity)."""
    return set(np.flatnonzero(stage.step != np.arange(stage.step.size)).tolist())


def _non_fixed_nodes(transform, num_nodes):
    return set(np.flatnonzero(transform.node_permutation() != np.arange(num_nodes)).tolist())


def _assert_stages_compose(plan, transform, num_nodes):
    """The stages move disjoint node sets, every mid-plan mapping is a
    permutation, and the whole plan composes to the transform."""
    moved = [_moved_nodes(stage) for stage in plan.stages]
    assert sum(map(len, moved)) == len(set().union(*moved))
    assert set().union(*moved) == _non_fixed_nodes(transform, num_nodes)
    assert [stage.moved for stage in plan.stages] == [len(nodes) for nodes in moved]
    identity = np.arange(num_nodes)
    nodes = identity
    for stage in plan.stages:
        # Closed relocation: the step is itself a permutation.
        assert np.array_equal(np.sort(stage.step), identity)
        nodes = stage.step[nodes]
        assert np.array_equal(np.sort(nodes), identity)
    assert np.array_equal(nodes, transform.node_permutation())


class PermutationTransform(MigrationTransform):
    """An arbitrary permutation, for property tests beyond the named schemes."""

    name = "perm"

    def __init__(self, topology, permutation):
        super().__init__(topology)
        self._permutation = permutation

    def apply(self, coord):
        return self._permutation[coord]


class TestSuddenLowering:
    """A sudden plan is the whole-transform cost, staged as 1 stage."""

    def test_single_stage(self, unit4, mesh4):
        plan = lower_transform(XYShiftTransform(mesh4), unit4, style="sudden")
        assert plan.num_stages == 1

    @pytest.mark.parametrize("scheme", ["xy-shift", "rotation", "x-mirror"])
    def test_bit_identical_to_legacy_cost(self, unit4, mesh4, scheme):
        """Same schedule, same float accumulation order — bit equality, not
        approx (the satellite regression for the shared move_cycles path)."""
        transform = make_transform(scheme, mesh4)
        nodes = {coord: 7 for coord in mesh4.coordinates()}
        cycles, energy_j, energy = migration_cost(unit4, transform, nodes)
        plan = lower_transform(transform, unit4, [7] * 16, style="sudden")
        stage = plan.stages[0]
        assert stage.cycles == cycles
        assert stage.energy_j == energy_j
        assert stage.energy.tolist() == energy.tolist()
        # The one stage's step is the transform's node permutation.
        assert np.array_equal(stage.step, transform.node_permutation())
        assert not stage.step.flags.writeable and not stage.energy.flags.writeable

    def test_identity_transform_is_cost_only(self, unit4, mesh4):
        plan = lower_transform(IdentityTransform(mesh4), unit4, style="sudden")
        assert plan.num_stages == 1
        stage = plan.stages[0]
        assert stage.cycles == 0
        assert stage.moved == 0
        assert stage.energy_j > 0  # fixed per-PE overhead still charged

    def test_rejects_unknown_style(self, unit4, mesh4):
        with pytest.raises(ValueError):
            lower_transform(XYShiftTransform(mesh4), unit4, style="teleport")
        with pytest.raises(ValueError):
            lower_transform(
                XYShiftTransform(mesh4), unit4, style="fluid", units_per_epoch=0
            )


class TestStagePartition:
    """Every style's stages partition the transform's moved nodes exactly."""

    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    @pytest.mark.parametrize("scheme", ["xy-shift", "rotation", "right-shift"])
    def test_moves_partition(self, unit5, mesh5, style, scheme):
        transform = make_transform(scheme, mesh5)
        plan = lower_transform(
            transform, unit5, style=style, units_per_epoch=3
        )
        _assert_stages_compose(plan, transform, mesh5.num_nodes)

    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    def test_composed_permutation_matches_transform(self, unit5, mesh5, style):
        transform = RotationTransform(mesh5)
        plan = lower_transform(transform, unit5, style=style, units_per_epoch=2)
        composed = np.arange(mesh5.num_nodes)
        for stage in plan.stages:
            composed = stage.step[composed]
        assert np.array_equal(composed, transform.node_permutation())


class TestFluidLowering:
    def test_budget_respected(self, unit5, mesh5):
        plan = lower_transform(
            XYShiftTransform(mesh5), unit5, style="fluid", units_per_epoch=4
        )
        assert plan.num_stages > 1
        perm = XYShiftTransform(mesh5).node_permutation().tolist()
        longest_cycle = max(len(cycle) for cycle in _permutation_cycles(perm))
        for stage in plan.stages:
            assert stage.moved <= max(4, longest_cycle)

    def test_large_budget_collapses_to_one_stage(self, unit4, mesh4):
        plan = lower_transform(
            XYShiftTransform(mesh4), unit4, style="fluid", units_per_epoch=999
        )
        assert plan.num_stages == 1

    def test_mid_plan_mapping_stays_bijective(self, unit5, mesh5):
        transform = RotationTransform(mesh5)
        plan = lower_transform(transform, unit5, style="fluid", units_per_epoch=2)
        assert plan.num_stages > 1
        _assert_stages_compose(plan, transform, mesh5.num_nodes)


def _stage_cycle_links(unit, stage):
    """Per permutation cycle of the stage, the union of its route links."""
    coordinate = unit.topology.coordinate
    link_sets = []
    for cycle in _permutation_cycles(stage.step.tolist()):
        links = set()
        for node in cycle:
            route = unit.routing.path(
                coordinate(node), coordinate(int(stage.step[node]))
            )
            links |= {(route[i], route[i + 1]) for i in range(len(route) - 1)}
        link_sets.append(links)
    return link_sets


def _assert_cycles_disjoint(unit, plan):
    """Batched invariant: the cycles grouped into one stage never share a
    link (moves *within* a cycle may — cycles are atomic and the stage's
    internal schedule phases them)."""
    for stage in plan.stages:
        link_sets = _stage_cycle_links(unit, stage)
        for i, links in enumerate(link_sets):
            for other in link_sets[i + 1:]:
                assert not (links & other)


class TestBatchedLowering:
    def test_cycles_within_stage_are_link_disjoint(self, unit5, mesh5):
        plan = lower_transform(RotationTransform(mesh5), unit5, style="batched")
        _assert_cycles_disjoint(unit5, plan)

    def test_stage_cycles_bounded_by_move_account(self, unit5, mesh5):
        """Each stage's duration sits between its slowest move and the fully
        serialised baseline (the shared move_cycles account both ways)."""
        transform = RotationTransform(mesh5)
        plan = lower_transform(transform, unit5, style="batched")
        scheduler = unit5.scheduler
        perm = transform.node_permutation().tolist()
        flits = unit5.state_model.payload_flits(0)
        for stage in plan.stages:
            remote = [
                scheduler.move_cycles(flits, scheduler.hops(node, perm[node]))
                for node in sorted(_moved_nodes(stage))
            ]
            if remote:
                assert max(remote) <= stage.cycles <= sum(remote)


class TestMoveCyclesAccount:
    """Satellite regression: one shared per-move cycle function."""

    def test_phase_cycles_routes_through_move_cycles(self, unit4, mesh4):
        scheduler = unit4.scheduler
        perm = XYShiftTransform(mesh4).node_permutation().tolist()
        flits = [3 * node for node in range(mesh4.num_nodes)]
        for node in range(mesh4.num_nodes):
            assert scheduler.phased_cycles(perm, flits, [node]) == (
                scheduler.move_cycles(flits[node], scheduler.hops(node, perm[node]))
            )

    def test_move_cycles_components(self, unit4, mesh4):
        scheduler = unit4.scheduler
        source, destination = mesh4.node_id((0, 0)), mesh4.node_id((3, 2))
        assert scheduler.hops(source, destination) == 5
        expected = (
            10 * scheduler.state_model.serialization_cycles_per_flit
            + 5 * scheduler.router_pipeline_cycles
        )
        assert scheduler.move_cycles(10, 5) == expected


class TestPlanCodec:
    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    def test_round_trip(self, unit5, mesh5, style):
        plan = lower_transform(
            RotationTransform(mesh5), unit5, [5] * 25, style=style, units_per_epoch=3
        )
        state = decode_checkpoint(encode_checkpoint(plan.to_dict()))
        restored = MigrationPlan.from_dict(state, mesh5.num_nodes)
        assert encode_checkpoint(restored.to_dict()) == encode_checkpoint(plan.to_dict())
        for stage, lowered in zip(restored.stages, plan.stages):
            assert np.array_equal(stage.step, lowered.step)
            assert np.array_equal(stage.energy, lowered.energy)
            assert stage.moved == lowered.moved
            assert not stage.step.flags.writeable and not stage.energy.flags.writeable

    def test_rejects_open_relocations_and_short_energy(self, unit5, mesh5):
        plan = lower_transform(
            RotationTransform(mesh5), unit5, style="fluid", units_per_epoch=4
        )
        state = plan.to_dict()
        stage = state["stages"][0]
        step = stage["step"]
        moved = [node for node, target in enumerate(step) if node != target]
        fixed = [node for node, target in enumerate(step) if node == target]
        # An open relocation: a moved node lands on one that stays put.
        step[moved[0]] = fixed[0]
        with pytest.raises(ValueError, match="closed relocation"):
            MigrationPlan.from_dict(state, mesh5.num_nodes)
        # A node id outside the mesh.
        step[moved[0]] = mesh5.num_nodes
        with pytest.raises(ValueError, match="closed relocation"):
            MigrationPlan.from_dict(state, mesh5.num_nodes)
        step[moved[0]] = plan.stages[0].step[moved[0]]
        MigrationPlan.from_dict(state, mesh5.num_nodes)
        # One energy entry short.
        stage["energy"] = stage["energy"][:-1]
        with pytest.raises(ValueError, match="energy"):
            MigrationPlan.from_dict(state, mesh5.num_nodes)


class TestCongestionPricing:
    def test_unpriced_is_unity(self):
        assert congestion_factor(None, 0.5) == 1.0
        model = analytic_model(MeshTopology(4, 4), "uniform")
        assert congestion_factor(model, None) == 1.0
        assert congestion_factor(model, 0.0) == 1.0
        assert congestion_factor(model, float("nan")) == 1.0

    def test_monotone_and_at_least_one(self):
        model = analytic_model(MeshTopology(4, 4), "uniform")
        low = congestion_factor(model, 0.01)
        high = congestion_factor(model, model.saturation_rate * 0.9)
        assert 1.0 <= low <= high
        assert high > 1.0

    def test_saturated_rate_caps(self):
        model = analytic_model(MeshTopology(4, 4), "uniform")
        at_cap = congestion_factor(model, model.saturation_rate)
        beyond = congestion_factor(model, model.saturation_rate * 10)
        assert math.isfinite(at_cap)
        assert beyond == at_cap

    def test_priced_stage_cycles_ceils(self, unit4, mesh4):
        plan = lower_transform(XYShiftTransform(mesh4), unit4, style="sudden")
        stage = plan.stages[0]
        assert priced_stage_cycles(stage, 1.0) == stage.cycles
        assert priced_stage_cycles(stage, 0.5) == stage.cycles
        assert priced_stage_cycles(stage, 1.5) == math.ceil(stage.cycles * 1.5)


# ----------------------------------------------------------------------
# Property tests: arbitrary permutations, arbitrary budgets
# ----------------------------------------------------------------------
@st.composite
def permutations(draw):
    width = draw(st.integers(2, 5))
    height = draw(st.integers(2, 5))
    topology = MeshTopology(width, height)
    coords = list(topology.coordinates())
    images = draw(st.permutations(coords))
    return topology, dict(zip(coords, images))


@st.composite
def sized_permutations(draw):
    """A random permutation and a random Tanner-node count per node."""
    topology, permutation = draw(permutations())
    count = topology.num_nodes
    sizes = draw(st.lists(st.integers(0, 400), min_size=count, max_size=count))
    return topology, permutation, sizes


class TestPlanProperties:
    @given(data=permutations(), units=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_fluid_partitions_and_stays_bijective(self, data, units):
        topology, permutation = data
        unit = MigrationUnit(topology)
        transform = PermutationTransform(topology, permutation)
        plan = lower_transform(
            transform, unit, style="fluid", units_per_epoch=units
        )
        _assert_stages_compose(plan, transform, topology.num_nodes)

    @given(data=permutations())
    @settings(max_examples=25, deadline=None)
    def test_batched_stages_link_disjoint(self, data):
        topology, permutation = data
        unit = MigrationUnit(topology)
        plan = lower_transform(
            PermutationTransform(topology, permutation), unit, style="batched"
        )
        _assert_cycles_disjoint(unit, plan)

    @given(data=permutations())
    @settings(max_examples=25, deadline=None)
    def test_sudden_equals_legacy_cost(self, data):
        topology, permutation = data
        unit = MigrationUnit(topology)
        transform = PermutationTransform(topology, permutation)
        cycles, energy_j, _ = migration_cost(unit, transform)
        plan = lower_transform(transform, unit, style="sudden")
        assert plan.stages[0].cycles == cycles
        assert plan.stages[0].energy_j == energy_j

    @given(data=sized_permutations(), units=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_staged_plans_charge_the_sudden_moves(self, data, units):
        """Fluid and batched stages partition the sudden plan's moves: their
        energies sum to the sudden plan's, and each stage's cycles are the
        oracle's cost of the stage's own step."""
        topology, permutation, sizes = data
        unit = MigrationUnit(topology)
        transform = PermutationTransform(topology, permutation)
        (sudden,) = lower_transform(transform, unit, sizes).stages
        per_pe = dict(zip(topology.coordinates(), sizes))
        coordinate = topology.coordinate
        for style in ("fluid", "batched"):
            plan = lower_transform(
                transform, unit, sizes, style=style, units_per_epoch=units
            )
            _assert_stages_compose(plan, transform, topology.num_nodes)
            energy_j = sum(stage.energy_j for stage in plan.stages)
            assert math.isclose(energy_j, sudden.energy_j, rel_tol=1e-12)
            np.testing.assert_allclose(
                sum(stage.energy for stage in plan.stages),
                sudden.energy,
                rtol=1e-12,
                atol=0,
            )
            for stage in plan.stages:
                step = PermutationTransform(
                    topology,
                    {
                        coordinate(node): coordinate(target)
                        for node, target in enumerate(stage.step.tolist())
                    },
                )
                assert stage.cycles == migration_cost(unit, step, per_pe)[0]
