"""Tests for the scenario comparison report and its suite runs."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.report import ScenarioComparison, compare_scenarios
from repro.scenarios import get_scenario, run_scenario
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


class TestSuiteRuns:
    def test_results_in_suite_order(self):
        comparison = compare_scenarios(
            [_tiny_spec("first"), _tiny_spec("second", scheme="static")]
        )
        assert [entry.spec.name for entry in comparison.results] == ["first", "second"]
        assert comparison.results[0].experiment.migrations_performed == 4
        assert comparison.results[1].experiment.migrations_performed == 0

    def test_thread_pool_matches_serial(self):
        # A caller may run scenarios on threads of its own; the process-wide
        # probe, NoC-model and LU-factor caches they share must keep every
        # result equal to the serial run's.
        specs = [_tiny_spec("a"), _tiny_spec("b", configuration="C")]
        serial = [run_scenario(spec) for spec in specs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run_scenario, specs))
        for s, t in zip(serial, threaded):
            assert t.spec.name == s.spec.name
            assert t.experiment.settled_peak_celsius == pytest.approx(
                s.experiment.settled_peak_celsius, abs=1e-12
            )


class TestScenarioComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_scenarios([_tiny_spec("cool"), _tiny_spec("warm", configuration="C")])

    def test_rows_carry_all_scenarios(self, comparison):
        rows = comparison.to_rows()
        assert [row["scenario"] for row in rows] == ["cool", "warm"]
        for row in rows:
            assert {"settled_peak_c", "reduction_c", "migrations"} <= set(row)

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

    def test_registry_default_uses_named_scenario(self):
        comparison = compare_scenarios([get_scenario("steady-baseline")])
        assert [entry.spec.name for entry in comparison.results] == ["steady-baseline"]

    def test_empty_comparison_renders_and_guards(self):
        empty = ScenarioComparison(results=[])
        assert "no scenarios" in empty.format_table()
        with pytest.raises(ValueError, match="no scenarios"):
            empty.hottest_scenario()
