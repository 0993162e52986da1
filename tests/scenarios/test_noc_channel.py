"""The scenario ``noc`` channel: spec, compilation, pricing, registry."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.noc.analytic import analytic_model
from repro.noc.topology import MeshTopology
from repro.scenarios import (
    NocChannel,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    run_scenario,
)
from repro.scenarios.patterns import BurstPattern, ConstantPattern, HotspotPattern


def noc_spec(**channel_overrides):
    channel = dict(traffic="uniform", injection_rate=0.01)
    channel.update(channel_overrides)
    return ScenarioSpec(
        name="noc-test",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=8,
        settle_epochs=4,
        noc=NocChannel(**channel),
    )


class TestNocChannelSpec:
    def test_round_trips_through_json(self):
        spec = noc_spec(
            traffic="hotspot",
            rate_pattern=BurstPattern(base=1.0, peak=2.0, start_epoch=2, length=2),
            traffic_kwargs={"hotspots": [[1, 1]]},
            packet_size_flits=6,
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.canonical_json() == spec.canonical_json()

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError, match="unknown NoC traffic pattern"):
            NocChannel(traffic="gossip")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="injection_rate"):
            NocChannel(injection_rate=0.0)

    def test_spatial_rate_pattern_rejected(self):
        with pytest.raises(ValueError, match="chip-global"):
            NocChannel(rate_pattern=HotspotPattern(center=(1, 1), peak=2.0))

    def test_unknown_fields_rejected(self):
        payload = NocChannel().to_dict()
        payload["bandwidth"] = 1.0
        with pytest.raises(ValueError, match="unknown NoC channel fields"):
            NocChannel.from_dict(payload)

    def test_noc_field_type_checked(self):
        with pytest.raises(TypeError, match="noc must be a NocChannel"):
            ScenarioSpec(name="x", configuration="A", noc="uniform")

    def test_channel_changes_canonical_json(self):
        plain = dataclasses.replace(noc_spec(), noc=None)
        assert plain.canonical_json() != noc_spec().canonical_json()


class TestNocCompilation:
    def test_explicit_rate_pattern_scales_base_rate(self):
        spec = noc_spec(
            rate_pattern=BurstPattern(base=1.0, peak=3.0, start_epoch=2, length=2)
        )
        compiled = compile_scenario(spec)
        assert compiled.noc_model is not None
        expected = 0.01 * np.asarray([1, 1, 3, 3, 1, 1, 1, 1], dtype=float)
        np.testing.assert_allclose(compiled.window.noc_rates, expected)

    def test_without_rate_pattern_noc_tracks_load(self):
        spec = dataclasses.replace(noc_spec(), load=ConstantPattern(1.5))
        compiled = compile_scenario(spec)
        np.testing.assert_allclose(compiled.window.noc_rates, np.full(8, 0.015))

    def test_flat_scenario_uses_base_rate(self):
        compiled = compile_scenario(noc_spec())
        np.testing.assert_allclose(compiled.window.noc_rates, np.full(8, 0.01))

    def test_no_channel_compiles_to_none(self):
        spec = dataclasses.replace(noc_spec(), noc=None)
        compiled = compile_scenario(spec)
        assert compiled.noc_model is None and compiled.window.noc_rates is None

    def test_mesh_comes_from_the_configuration(self):
        spec = dataclasses.replace(noc_spec(), configuration="C")  # 5x5 chip
        compiled = compile_scenario(spec)
        assert compiled.noc_model is analytic_model(MeshTopology(5, 5), "uniform")


class TestNocResult:
    def test_summary_flags_saturated_epochs(self):
        spec = noc_spec(
            traffic="hotspot",
            injection_rate=0.006,
            rate_pattern=BurstPattern(base=1.0, peak=3.0, start_epoch=2, length=2),
            traffic_kwargs={"hotspots": [[1, 1]]},
        )
        outcome = run_scenario(spec)
        assert outcome.noc is not None
        assert outcome.noc.saturated_epochs == 2
        assert outcome.noc.peak_latency_cycles >= outcome.noc.mean_latency_cycles
        assert outcome.noc.peak_injection_rate == pytest.approx(0.018)
        assert 0 < outcome.noc.saturation_rate < 0.018

    def test_row_carries_the_latency_column(self):
        row = run_scenario(noc_spec()).to_row()
        assert isinstance(row["noc_latency_cyc"], float)
        plain = dataclasses.replace(noc_spec(), noc=None)
        assert run_scenario(plain).to_row()["noc_latency_cyc"] == "-"

    def test_registry_scenario_end_to_end(self):
        outcome = run_scenario(get_scenario("noc-congestion-burst"))
        assert outcome.noc is not None
        # Exactly the twelve burst epochs (10..15 and 26..31) saturate.
        assert outcome.noc.saturated_epochs == 12
        assert outcome.noc.peak_injection_rate > outcome.noc.saturation_rate

    def test_zero_extra_solves(self):
        """Pricing the NoC must not touch the thermal solver."""
        spec = noc_spec()
        compiled = compile_scenario(spec)
        solver = compiled.configuration.thermal_model.solver
        before = solver.steady_solve_count
        run_scenario(compiled)
        assert solver.steady_solve_count - before == compiled.expected_steady_solves()
