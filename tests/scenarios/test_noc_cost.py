"""Tests for the process-wide analytic model cache and per-epoch NoC pricing."""

import threading

import numpy as np
import pytest

from repro.noc.analytic import (
    _MODEL_CACHE,
    _MODEL_KEY_LOCKS,
    AnalyticModel,
    analytic_model,
)
from repro.noc.topology import MeshTopology
from repro.scenarios.noc_cost import rate_noc_latencies


class TestModelCache:
    def test_cached_model_matches_a_fresh_one(self):
        cached = analytic_model(MeshTopology(4, 4), "uniform")
        fresh = AnalyticModel(MeshTopology(4, 4), "uniform", 4, "xy")
        assert cached.latency(0.05) == fresh.latency(0.05)
        assert cached.saturation_rate == fresh.saturation_rate

    def test_model_is_built_once_per_configuration(self):
        _MODEL_CACHE.clear()
        first = analytic_model(MeshTopology(5, 5), "uniform")
        assert analytic_model(MeshTopology(5, 5), "uniform") is first
        assert len(_MODEL_CACHE) == 1
        analytic_model(MeshTopology(5, 5), "uniform", routing="yx")
        assert len(_MODEL_CACHE) == 2

    def test_hotspot_kwargs_participate_in_the_key(self):
        _MODEL_CACHE.clear()
        analytic_model(MeshTopology(4, 4), "hotspot", hotspots=[(1, 1)])
        analytic_model(MeshTopology(4, 4), "hotspot", hotspots=[[1, 1]])
        assert len(_MODEL_CACHE) == 1
        analytic_model(MeshTopology(4, 4), "hotspot", hotspots=[(2, 2)])
        assert len(_MODEL_CACHE) == 2

    def test_concurrent_probes_are_consistent(self):
        _MODEL_CACHE.clear()
        models = []

        def worker():
            models.append(analytic_model(MeshTopology(4, 4), "uniform"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(model) for model in models}) == 1
        assert len(_MODEL_CACHE) == 1

    def test_rejected_channel_leaves_no_build_lock(self):
        before = dict(_MODEL_KEY_LOCKS)
        for routing in ("zz", "qq", "nope"):
            with pytest.raises(ValueError, match="routing"):
                analytic_model(MeshTopology(4, 4), "uniform", routing=routing)
        assert _MODEL_KEY_LOCKS == before


class TestEpochCosts:
    def model(self):
        return analytic_model(MeshTopology(4, 4), "uniform")

    def test_flat_scenario_uses_base_rate(self):
        model = self.model()
        latencies, saturated = rate_noc_latencies(model, np.full(5, 0.04))
        assert latencies.shape == (5,)
        assert np.all(latencies == model.latency(0.04))
        assert not saturated.any()

    def test_modulated_epochs_price_congestion(self):
        latencies, saturated = rate_noc_latencies(
            self.model(), np.array([0.02, 0.04, 0.08])
        )
        assert latencies[0] < latencies[1] < latencies[2]
        assert not saturated.any()

    def test_saturated_epochs_are_flagged_and_finite(self):
        model = self.model()
        # 10x the base rate pushes far past the 4x4 saturation rate.
        latencies, saturated = rate_noc_latencies(model, np.array([0.04, 0.4]))
        assert saturated.tolist() == [False, True]
        assert np.isfinite(latencies).all()
        assert latencies[1] > latencies[0]
