"""Instrumented subsystems feed the shared registry and tracer.

One test family per instrumented layer: thermal solver, LDPC decoders,
NoC vector engine, scenario probe cache, scenario
runs, and campaign execution.  Each asserts the *names* other tooling
depends on (``repro obs summary``, the trace exporter, the journal).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.analysis.report import compare_scenarios
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.manifest import journal_path, report_path
from repro.ldpc import TannerGraph, array_code_parity_matrix, make_decoder
from repro.noc.topology import MeshTopology
from repro.noc.traffic import make_traffic
from repro.noc.vector import VectorNetwork
from repro.scenarios import ScenarioSpec, all_scenarios, get_scenario, run_scenario
from repro.scenarios import compile as compile_module
from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver


def cheap_spec(name="obs-cheap", **overrides):
    params = dict(
        name=name,
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=6,
        settle_epochs=3,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestThermalSolver:
    @pytest.fixture
    def solver(self, mesh4):
        return ThermalSolver(build_thermal_network(mesh_floorplan(mesh4)))

    def _power(self, solver):
        return np.full((1, solver.network.num_nodes), 0.5)

    def test_instance_counters_work_with_telemetry_disabled(self, solver):
        solver.steady_state_batch(self._power(solver))
        assert solver.steady_solve_count == 1
        assert obs.get_registry().snapshot().empty

    def test_registry_mirrors_instance_counters(self, enabled, solver):
        solver.steady_state_batch(self._power(solver))
        solver.warm_state(self._power(solver)[0])
        solver.transient_sequence([1e-5], self._power(solver), time_step_s=1e-6)
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["thermal.steady_solves"] == 2
        assert snapshot.counters["thermal.transient_sequences"] == 1
        assert snapshot.counters["thermal.spectral_jumps"] == 1
        assert solver.steady_solve_count == 2
        assert solver.transient_sequence_count == 1
        assert solver.spectral_jump_count == 1

    @pytest.mark.parametrize("name", ["steady-baseline", "pe-fault-transient"])
    def test_scenario_steady_solves_match_the_solver(self, enabled, name):
        """Every steady solve of a run reaches the registry, warm starts too."""
        compiled = compile_module.compile_scenario(get_scenario(name))
        solver = compiled.configuration.thermal_model.solver
        solver_before = solver.steady_solve_count
        registry_before = obs.get_registry().snapshot().counters.get(
            "thermal.steady_solves", 0
        )
        run_scenario(compiled)
        registry_delta = (
            obs.get_registry().snapshot().counters["thermal.steady_solves"]
            - registry_before
        )
        assert registry_delta == solver.steady_solve_count - solver_before


class TestLdpcDecoders:
    @pytest.fixture(scope="class")
    def graph(self):
        return TannerGraph(array_code_parity_matrix(p=5, j=3, k=5))

    @pytest.mark.parametrize("variant", ["min-sum", "sum-product"])
    def test_decode_batch_counters_and_span(self, enabled, graph, variant):
        decoder = make_decoder(variant, graph, max_iterations=5)
        llr = np.full((3, graph.n), 4.0)  # all-zero codeword, high confidence
        batch = decoder.decode_batch(llr)
        assert len(batch) == 3
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["ldpc.decode_batches"] == 1
        assert snapshot.counters["ldpc.decode_blocks"] == 3
        assert snapshot.counters["ldpc.decode_iterations"] >= 3
        spans = [
            e for e in obs.get_tracer().events() if e.name == "ldpc.decode_batch"
        ]
        assert len(spans) == 1
        assert spans[0].args == {"blocks": 3}

    def test_disabled_decode_touches_nothing(self, graph):
        decoder = make_decoder("min-sum", graph, max_iterations=5)
        decoder.decode_batch(np.full((2, graph.n), 4.0))
        assert obs.get_registry().snapshot().empty
        assert len(obs.get_tracer()) == 0


class TestNocVectorEngine:
    def _engine(self, cycles=40):
        topology = MeshTopology(4, 4)
        generator = make_traffic("uniform", topology, injection_rate=0.1, seed=3)
        schedule = generator.schedule(cycles)
        return VectorNetwork(topology, [schedule, schedule])

    def test_run_and_drain_counters(self, enabled):
        engine = self._engine()
        engine.run(40)
        drained = engine.drain(max_cycles=2000)
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["noc.vector.runs"] == 1
        assert snapshot.counters["noc.vector.drains"] == 1
        assert snapshot.counters["noc.vector.lane_cycles"] == 2 * (40 + drained)
        by_name = {e.name: e for e in obs.get_tracer().events()}
        assert by_name["noc.vector.run"].args == {"lanes": 2, "cycles": 40}
        assert by_name["noc.vector.drain"].args["cycles"] == drained


class TestProbeCache:
    def test_miss_then_hit(self, enabled):
        graph = TannerGraph(array_code_parity_matrix(p=5, j=3, k=5))
        digest = "test-obs-unique-digest"
        first = compile_module._decode_probe(graph, digest, 4.0)
        second = compile_module._decode_probe(graph, digest, 4.0)
        assert first == second
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["scenario.probe_misses"] == 1
        assert snapshot.counters["scenario.probe_hits"] == 1
        spans = [
            e
            for e in obs.get_tracer().events()
            if e.name == "scenario.decode_probe"
        ]
        assert len(spans) == 1  # only the miss decodes


class TestScenarioTelemetry:
    def test_result_carries_scope_deltas(self, enabled):
        result = run_scenario(cheap_spec())
        assert result.telemetry is not None
        counters = result.telemetry["counters"]
        assert counters["scenario.runs"] == 1
        assert counters["thermal.steady_solves"] >= 1
        names = {e.name for e in obs.get_tracer().events()}
        assert {"scenario.run", "experiment.run", "thermal.steady_batch"} <= names

    def test_disabled_run_has_no_telemetry(self):
        result = run_scenario(cheap_spec())
        assert result.telemetry is None
        assert obs.get_registry().snapshot().empty

    def test_registry_pass_off_then_on(self):
        """A whole registry pass leaves no trace while telemetry is off and
        records every scenario once it is on."""
        specs = all_scenarios()
        compare_scenarios(specs)
        assert obs.get_registry().snapshot().empty
        assert len(obs.get_tracer()) == 0

        obs.enable()
        obs.start_tracing(clear=True)
        compare_scenarios(specs)
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["scenario.runs"] == len(specs) == 15
        assert snapshot.counters["thermal.steady_solves"] > 0
        assert len(obs.get_tracer()) > 0


class TestCampaignTelemetry:
    def _spec(self):
        return CampaignSpec(
            name="obs-camp",
            scenarios=(cheap_spec("c1"),),
            configurations=("A",),
            schemes=("xy-shift", "rotation"),
        )

    def test_journal_report_and_run_telemetry(self, enabled, tmp_path):
        run = run_campaign(self._spec(), tmp_path / "camp")
        assert run.evaluated == 2
        assert run.telemetry is not None
        assert run.telemetry["counters"]["campaign.evaluations"] == 2
        assert run.telemetry["timers"]["campaign.job"]["count"] == 2

        entries = [
            json.loads(line)
            for line in journal_path(tmp_path / "camp").read_text().splitlines()
        ]
        assert len(entries) == 2
        for entry in entries:
            assert entry["telemetry"]["counters"]["scenario.runs"] == 1

        report = json.loads(report_path(tmp_path / "camp").read_text())
        assert report["telemetry"]["counters"]["campaign.evaluations"] == 2

        names = [e.name for e in obs.get_tracer().events()]
        assert names.count("campaign.job") == 2
        assert names.count("campaign.run") == 1

    def test_replay_and_cache_hit_counters(self, enabled, tmp_path):
        shared = tmp_path / "cache"
        run_campaign(self._spec(), tmp_path / "one", cache_root=shared)
        obs.get_registry().reset()

        replayed = run_campaign(self._spec(), tmp_path / "one", cache_root=shared)
        assert replayed.evaluated == 0
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["campaign.journal_replays"] == 2
        assert "campaign.evaluations" not in snapshot.counters

        obs.get_registry().reset()
        warm = run_campaign(self._spec(), tmp_path / "two", cache_root=shared)
        assert warm.evaluated == 0
        snapshot = obs.get_registry().snapshot()
        assert snapshot.counters["campaign.cache_hits"] == 2

    def test_disabled_campaign_journal_has_no_telemetry(self, tmp_path):
        run = run_campaign(self._spec(), tmp_path / "camp")
        assert run.telemetry is None
        entries = [
            json.loads(line)
            for line in journal_path(tmp_path / "camp").read_text().splitlines()
        ]
        assert all("telemetry" not in entry for entry in entries)
