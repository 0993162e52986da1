"""Validation of the analytic wormhole latency model against the event engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.migration.plan import congestion_factor
from repro.noc.analytic import (
    ARRIVAL_DISCRETISATION,
    _flow_channels,
    analytic_model,
    destination_probabilities,
)
from repro.noc.batch import latency_curve
from repro.noc.topology import MeshTopology
from repro.scenarios.noc_cost import rate_noc_latencies

AGREEMENT_CONFIGS = [
    (4, "uniform", {}),
    (5, "uniform", {}),
    (4, "hotspot", {"hotspots": [(1, 1), (2, 2)]}),
    (4, "neighbor", {}),
]


class TestAgreementWithEventEngine:
    """<10% mean-latency error below saturation for stochastic patterns."""

    @pytest.mark.parametrize(
        "size,pattern,kwargs",
        AGREEMENT_CONFIGS,
        ids=[f"{c[0]}x{c[0]}-{c[1]}" for c in AGREEMENT_CONFIGS],
    )
    def test_below_saturation_agreement(self, size, pattern, kwargs):
        topology = MeshTopology(size, size)
        model = analytic_model(topology, pattern, **kwargs)
        rates = np.linspace(0.15, 0.8, 4) * model.saturation_rate
        measured = latency_curve(
            topology, pattern, rates, cycles=2000, warmup_cycles=300, seed=0, **kwargs
        ).avg_latency
        analytic = [model.latency(rate) for rate in rates]
        errors = np.abs(np.asarray(analytic) - measured) / measured
        assert errors.max() < 0.10, f"worst error {errors.max():.1%}"

    def test_transpose_is_a_conservative_upper_bound(self):
        """Deterministic permutations see smoother arrivals than the model
        assumes, so the estimate must sit above the measurement (and within
        a loose factor), never below it."""
        topology = MeshTopology(4, 4)
        model = analytic_model(topology, "transpose")
        rates = np.linspace(0.2, 0.8, 3) * model.saturation_rate
        measured = latency_curve(
            topology, "transpose", rates, cycles=1500, warmup_cycles=200, seed=0
        ).avg_latency
        analytic = np.array([model.latency(rate) for rate in rates])
        assert np.all(analytic >= measured)
        assert np.all(analytic < 1.6 * measured)


class TestModelStructure:
    def test_zero_load_latency_is_hops_plus_serialization(self):
        topology = MeshTopology(4, 4)
        latency = analytic_model(topology, "uniform").latency(1e-9)
        # Flow-weighted mean hops of uniform traffic + L + 1 ejection cycle.
        mean_hops = 0.0
        n = topology.num_nodes
        for s in range(n):
            for d in range(n):
                if s != d:
                    mean_hops += topology.manhattan_distance(
                        topology.coordinate(s), topology.coordinate(d)
                    )
        mean_hops /= n * (n - 1)
        assert latency == pytest.approx(mean_hops + 4 + 1, abs=1e-3)

    def test_saturation_below_capacity(self):
        model = analytic_model(MeshTopology(4, 4), "uniform")
        assert 0.05 < model.saturation_rate < model.capacity_rate

    def test_saturated_flag(self):
        model = analytic_model(MeshTopology(4, 4), "uniform")
        rates = np.array([0.99, 1.01]) * model.saturation_rate
        _, saturated = rate_noc_latencies(model, rates)
        assert saturated.tolist() == [False, True]

    def test_hotspot_saturates_earlier_than_uniform(self):
        topology = MeshTopology(4, 4)
        uniform = analytic_model(topology, "uniform").saturation_rate
        hotspot = analytic_model(
            topology, "hotspot", hotspots=[(1, 1)], hotspot_fraction=0.7
        ).saturation_rate
        assert hotspot < uniform

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="unknown routing"):
            analytic_model(MeshTopology(4, 4), "uniform", routing="zz")


class TestDestinationProbabilities:
    def test_uniform_rows(self):
        topology = MeshTopology(4, 4)
        probs = destination_probabilities("uniform", topology)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(np.diag(probs) == 0)
        assert np.allclose(probs[probs > 0], 1.0 / 15)

    def test_transpose_diagonal_rows_are_empty(self):
        topology = MeshTopology(4, 4)
        probs = destination_probabilities("transpose", topology)
        for i in range(4):
            assert probs[topology.node_id((i, i))].sum() == 0
        off = probs.sum(axis=1)
        assert np.all((off == 0) | (off == 1))

    def test_hotspot_mass(self):
        topology = MeshTopology(4, 4)
        spots = [(1, 1), (2, 2)]
        probs = destination_probabilities(
            "hotspot", topology, hotspots=spots, hotspot_fraction=0.6
        )
        assert np.allclose(probs.sum(axis=1), 1.0)
        spot_ids = [topology.node_id(s) for s in spots]
        # A non-hotspot source sends >= 60% of its traffic to the spots.
        source = topology.node_id((0, 0))
        assert probs[source, spot_ids].sum() > 0.6

    def test_neighbor_rows(self):
        topology = MeshTopology(4, 4)
        probs = destination_probabilities("neighbor", topology)
        corner = topology.node_id((0, 0))
        assert np.count_nonzero(probs[corner]) == 2
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            destination_probabilities("nope", MeshTopology(4, 4))

    def test_hotspot_requires_spots(self):
        with pytest.raises(ValueError, match="hotspot"):
            destination_probabilities("hotspot", MeshTopology(4, 4))

    def test_unknown_argument_is_named(self):
        with pytest.raises(ValueError, match="hotspot_frac"):
            destination_probabilities(
                "hotspot", MeshTopology(4, 4), hotspots=[(1, 1)], hotspot_frac=0.95
            )

    @pytest.mark.parametrize(
        "kwargs", [{"hotspots": [(1, 1)]}, {"hotspot_fraction": 0.5}]
    )
    def test_hotspot_arguments_need_the_hotspot_pattern(self, kwargs):
        with pytest.raises(ValueError, match="no hotspot arguments"):
            destination_probabilities("uniform", MeshTopology(4, 4), **kwargs)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            destination_probabilities(
                "hotspot", MeshTopology(4, 4), hotspots=[(1, 1)],
                hotspot_fraction=fraction,
            )

    def test_hotspot_outside_mesh(self):
        with pytest.raises(ValueError, match="outside mesh"):
            destination_probabilities("hotspot", MeshTopology(4, 4), hotspots=[[9, 9]])


# ----------------------------------------------------------------------
# The closed form against the per-flow loop it replaced
# ----------------------------------------------------------------------
def per_flow_latency(topology, pattern, rate, packet_size, routing, **kwargs):
    """The per-flow reference: ``sum_f p_f (H_f + L + 1 + sum_{c in f} W_c) / sum_f p_f``.

    Walks every flow and sums its channels' M/D/1 waits one by one, exactly
    as the model evaluated before the sum was regrouped by channel.
    """
    probs = destination_probabilities(pattern, topology, **kwargs)
    flows = [
        (probs[s, d], channels)
        for (s, d), channels in _flow_channels(topology, routing).items()
        if probs[s, d] > 0.0
    ]
    loads = np.zeros(topology.num_nodes * 5)
    for p, channels in flows:
        loads[channels] += p
    util = rate * packet_size * loads
    if util.max() >= 1.0:
        return math.inf
    wait = ARRIVAL_DISCRETISATION * util * packet_size / (2.0 * (1.0 - util))
    total_p = total_latency = 0.0
    for p, channels in flows:
        zero_load = len(channels) - 1 + packet_size + 1
        total_latency += p * (zero_load + float(wait[channels].sum()))
        total_p += p
    return total_latency / total_p


@st.composite
def traffic(draw):
    width = draw(st.integers(2, 6))
    height = draw(st.integers(2, 6))
    topology = MeshTopology(width, height)
    pattern = draw(
        st.sampled_from(["uniform", "transpose", "bit-complement", "neighbor", "hotspot"])
    )
    kwargs = {}
    if pattern == "hotspot":
        coords = list(topology.coordinates())
        kwargs["hotspots"] = draw(
            st.lists(st.sampled_from(coords), min_size=1, max_size=3, unique=True)
        )
        kwargs["hotspot_fraction"] = draw(st.floats(0.05, 1.0))
    routing = draw(st.sampled_from(["xy", "yx"]))
    packet_size = draw(st.integers(1, 8))
    return topology, pattern, routing, packet_size, kwargs


def _model(case):
    """The cached model of a drawn case, or None for a pattern that sends nothing."""
    topology, pattern, routing, packet_size, kwargs = case
    try:
        return analytic_model(
            topology, pattern, packet_size_flits=packet_size, routing=routing, **kwargs
        )
    except ValueError as error:
        assert "generates no packets" in str(error)
        return None


#: Relative band around ``capacity_rate`` left unchecked: there the utilisation
#: ``rate * L * max(load)`` rounds to either side of 1.
POLE = 1e-9

rate_fractions = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12)


class TestPhysicalProperties:
    """Properties of the model on any mesh, pattern, routing and packet size."""

    @given(case=traffic(), fractions=rate_fractions)
    @settings(max_examples=100, deadline=None)
    def test_latency_is_bounded_below_monotone_and_diverges_at_capacity(
        self, case, fractions
    ):
        model = _model(case)
        if model is None:
            return
        capacity = model.capacity_rate
        rates = sorted(fraction * capacity for fraction in fractions)
        latencies = [model.latency(rate) for rate in rates]
        assert all(latency >= model.zero_load_latency for latency in latencies)
        assert all(low <= high for low, high in zip(latencies, latencies[1:]))
        for rate, latency in zip(rates, latencies):
            if rate < (1.0 - POLE) * capacity:
                assert math.isfinite(latency)
            elif rate > (1.0 + POLE) * capacity:
                assert latency == math.inf

    @given(case=traffic(), fractions=rate_fractions)
    @settings(max_examples=100, deadline=None)
    def test_pricing_is_finite_and_never_discounts(self, case, fractions):
        model = _model(case)
        if model is None:
            return
        rates = sorted(fraction * model.capacity_rate for fraction in fractions)
        factors = [congestion_factor(model, rate) for rate in rates]
        assert all(math.isfinite(factor) and factor >= 1.0 for factor in factors)
        assert all(low <= high for low, high in zip(factors, factors[1:]))
        for rate in [None, math.nan, math.inf, -math.inf] + [-rate for rate in rates]:
            assert congestion_factor(model, rate) == 1.0
        latencies, saturated = rate_noc_latencies(model, np.array(rates))
        assert np.isfinite(latencies).all()
        assert saturated.tolist() == [rate >= model.saturation_rate for rate in rates]


class TestClosedFormMatchesPerFlowLoop:
    @given(case=traffic(), fraction=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_latency_and_congestion_factor(self, case, fraction):
        topology, pattern, routing, packet_size, kwargs = case
        model = _model(case)
        if model is None:
            return
        rate = fraction * model.capacity_rate
        expected = per_flow_latency(topology, pattern, rate, packet_size, routing, **kwargs)
        assert model.latency(rate) == pytest.approx(expected, rel=1e-12)
        zero_load = per_flow_latency(topology, pattern, 0.0, packet_size, routing, **kwargs)
        assert model.zero_load_latency == pytest.approx(zero_load, rel=1e-12)
        assert model.latency(0.0) == model.zero_load_latency

        capped = min(rate, math.nextafter(model.saturation_rate, 0.0))
        ratio = per_flow_latency(
            topology, pattern, capped, packet_size, routing, **kwargs
        ) / zero_load
        expected_factor = max(1.0, ratio) if rate > 0.0 else 1.0
        assert congestion_factor(model, rate) == pytest.approx(
            expected_factor, rel=1e-12
        )
