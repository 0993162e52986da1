"""Tests for the scenario suite runner and the comparison report."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.report import ScenarioComparison, compare_scenarios
from repro.analysis.runner import ScenarioRunner
from repro.scenarios import get_scenario
from repro.scenarios.patterns import ConstantPattern
from repro.scenarios.spec import ScenarioSpec


def _tiny_spec(name: str, configuration: str = "A", **kwargs) -> ScenarioSpec:
    defaults = dict(
        scheme="xy-shift",
        mode="steady",
        num_epochs=5,
        settle_epochs=4,
        load=ConstantPattern(1.0),
    )
    defaults.update(kwargs)
    return ScenarioSpec(name=name, configuration=configuration, **defaults)


class TestScenarioRunner:
    def test_results_in_suite_order(self):
        specs = [_tiny_spec("first"), _tiny_spec("second", scheme="static")]
        results = ScenarioRunner().run(specs)
        assert [r.spec.name for r in results] == ["first", "second"]
        assert results[0].experiment.migrations_performed == 4
        assert results[1].experiment.migrations_performed == 0

    def test_thread_pool_matches_serial(self):
        # A caller may run scenarios on threads of its own; the process-wide
        # probe, NoC-model and LU-factor caches they share must keep every
        # result equal to the serial run's.
        specs = [_tiny_spec("a"), _tiny_spec("b", configuration="C")]
        serial = ScenarioRunner().run(specs)
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda spec: ScenarioRunner().run([spec])[0], specs))
        for s, t in zip(serial, threaded):
            assert t.spec.name == s.spec.name
            assert t.experiment.settled_peak_celsius == pytest.approx(
                s.experiment.settled_peak_celsius, abs=1e-12
            )

    def test_feedback_stride_override(self):
        spec = _tiny_spec(
            "fb", scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 70.0},
        )
        assert spec.feedback_stride == 1
        results = ScenarioRunner(
            feedback_stride=5, feedback_predictor="previous"
        ).run([spec])
        assert results[0].spec.feedback_stride == 5
        assert results[0].spec.feedback_predictor == "previous"
        # The authored spec is untouched (specs are frozen; the override
        # replaces per task).
        assert spec.feedback_stride == 1

    def test_no_override_leaves_specs_as_authored(self):
        spec = _tiny_spec("plain")
        runner = ScenarioRunner()
        assert runner._apply_overrides(spec) is spec


class TestScenarioComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_scenarios([_tiny_spec("cool"), _tiny_spec("warm", configuration="C")])

    def test_rows_carry_all_scenarios(self, comparison):
        rows = comparison.to_rows()
        assert [row["scenario"] for row in rows] == ["cool", "warm"]
        for row in rows:
            assert {"settled_peak_c", "reduction_c", "migrations"} <= set(row)

    def test_lookup_and_names(self, comparison):
        assert comparison.names() == ["cool", "warm"]
        assert comparison.result("warm").spec.configuration == "C"
        with pytest.raises(KeyError):
            comparison.result("missing")

    def test_hottest_scenario(self, comparison):
        hottest = comparison.hottest_scenario()
        peaks = {
            entry.spec.name: entry.experiment.settled_peak_celsius
            for entry in comparison.results
        }
        assert peaks[hottest] == max(peaks.values())

    def test_format_table_mentions_everything(self, comparison):
        table = comparison.format_table()
        assert "cool" in table and "warm" in table
        assert "hottest" in table

    def test_feedback_overrides_reach_every_scenario(self):
        spec = _tiny_spec(
            "fb", scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 70.0},
        )
        comparison = compare_scenarios(
            [spec, _tiny_spec("plain")],
            feedback_stride=5,
            feedback_predictor="previous",
        )
        for name in ("fb", "plain"):
            assert comparison.result(name).spec.feedback_stride == 5
            assert comparison.result(name).spec.feedback_predictor == "previous"

    def test_registry_default_uses_named_scenario(self):
        comparison = compare_scenarios([get_scenario("steady-baseline")])
        assert comparison.names() == ["steady-baseline"]

    def test_empty_comparison_renders_and_guards(self):
        empty = ScenarioComparison(results=[])
        assert "no scenarios" in empty.format_table()
        with pytest.raises(ValueError, match="no scenarios"):
            empty.hottest_scenario()


class TestStreamingRunner:
    def test_streamed_suite_matches_batch(self):
        from repro.analysis.runner import run_streaming_scenario

        spec = _tiny_spec("streamed")
        batch = ScenarioRunner().run([spec])[0]
        streamed = run_streaming_scenario(spec, window_epochs=2)
        assert streamed.windows == 3  # 5 epochs in 2-epoch windows
        assert streamed.summary["epochs"] == 5
        assert streamed.experiment.settled_peak_celsius == pytest.approx(
            batch.experiment.settled_peak_celsius, abs=1e-9
        )
        assert (
            streamed.experiment.migrations_performed
            == batch.experiment.migrations_performed
        )

    def test_run_streaming_suite_order_and_overrides(self):
        specs = [_tiny_spec("first"), _tiny_spec("second", configuration="C")]
        results = ScenarioRunner().run_streaming(specs, window_epochs=3)
        assert [r.spec.name for r in results] == ["first", "second"]
        assert all(r.windows == 2 for r in results)

    def test_max_epochs_caps_the_stream(self):
        from repro.analysis.runner import run_streaming_scenario

        streamed = run_streaming_scenario(
            _tiny_spec("capped"), window_epochs=2, max_epochs=4
        )
        assert streamed.windows == 2
        assert streamed.summary["epochs"] == 4
