"""Tests for the paper reports: Figure 1, `paper_spec` and the DTM comparison."""

import pytest

from repro.analysis.report import (
    compare_with_migration,
    format_rows,
    generate_figure1,
    paper_spec,
)
from repro.chips import configuration_names, get_configuration
from repro.core.dtm import DvfsThrottling, StopGoThrottling
from repro.scenarios import run_scenario
from reference import peak_at_scale


@pytest.fixture(scope="module")
def small_report():
    """Figure 1 restricted to configurations A and E and two schemes."""
    return generate_figure1(
        configurations=["A", "E"],
        schemes=("rotation", "xy-shift"),
        period_us=109.0,
        num_epochs=21,
    )


class TestFigure1Report:
    def test_cell_count(self, small_report):
        assert len(small_report.cells) == 4

    def test_lookup(self, small_report):
        value = small_report.reduction("A", "xy-shift")
        assert isinstance(value, float)
        with pytest.raises(KeyError):
            small_report.reduction("Z", "xy-shift")

    def test_schemes_and_configurations_ordered(self, small_report):
        assert small_report.schemes() == ["rotation", "xy-shift"]
        assert small_report.configurations() == ["A", "E"]

    def test_average_reduction(self, small_report):
        avg = small_report.average_reduction("xy-shift")
        values = [c.reduction_celsius for c in small_report.cells if c.scheme == "xy-shift"]
        assert avg == pytest.approx(sum(values) / len(values))
        with pytest.raises(KeyError):
            small_report.average_reduction("warp")

    def test_best_scheme_is_xy_shift(self, small_report):
        """The paper's headline: X-Y shift has the highest average reduction."""
        assert small_report.best_scheme() == "xy-shift"

    def test_rows_and_table_formatting(self, small_report):
        rows = small_report.to_rows()
        assert len(rows) == 4
        assert {"configuration", "scheme", "reduction_c"} <= set(rows[0])
        table = small_report.format_table()
        assert "xy-shift" in table
        assert "A(85.44)" in table

    def test_baseline_peaks_match_paper(self, small_report):
        assert small_report._baseline("A") == pytest.approx(85.44, abs=0.01)
        assert small_report._baseline("E") == pytest.approx(75.98, abs=0.01)


class TestPaperSpec:
    def test_settles_every_epoch_after_the_first(self):
        spec = paper_spec("A", "xy-shift")
        assert (spec.num_epochs, spec.settle_epochs) == (41, 40)
        assert paper_spec("A", "xy-shift", num_epochs=1).settle_epochs == 1

    def test_one_figure1_cell(self):
        result = run_scenario(paper_spec("A", "xy-shift", num_epochs=21)).experiment
        assert result.configuration_name == "A"
        assert result.scheme_name == "periodic-xy-shift"
        assert result.peak_reduction_celsius > 0


class TestComparisonWithMigration:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_with_migration("A", scheme="xy-shift", num_epochs=21)

    def test_rows_structure(self, comparison):
        rows = comparison.to_rows()
        assert len(rows) == 3
        assert {"technique", "peak_c", "throughput_penalty_pct"} <= set(rows[0])

    def test_migration_much_cheaper_than_global_throttling(self, comparison):
        """The paper's motivating claim: reaching the migrated peak
        temperature by slowing the whole chip costs far more throughput than
        migration does."""
        assert comparison.migration_penalty < 0.05
        assert comparison.stop_go_penalty > 3 * comparison.migration_penalty
        assert comparison.dvfs_penalty > comparison.migration_penalty

    def test_throttling_penalties_reach_the_migrated_peak(self, comparison):
        chip = get_configuration("A")
        assert comparison.target_peak_celsius == comparison.migration_peak_celsius
        stop_go = StopGoThrottling(chip)
        duty = 1.0 - comparison.stop_go_penalty
        idle = stop_go.idle_fraction_of_power
        assert peak_at_scale(chip, duty + (1.0 - duty) * idle) == pytest.approx(
            comparison.target_peak_celsius, abs=0.2
        )
        dvfs = DvfsThrottling(chip)
        ratio = 1.0 - comparison.dvfs_penalty
        leak = dvfs.leakage_fraction_of_power
        dvfs_peak = peak_at_scale(chip, leak + (1.0 - leak) * dvfs._power_scale(ratio))
        assert dvfs_peak <= comparison.target_peak_celsius + 1e-6

    def test_migration_cheapest_on_every_configuration(self):
        for name in configuration_names():
            comparison = compare_with_migration(name, scheme="xy-shift", num_epochs=41)
            assert comparison.migration_penalty < 0.05, name
            assert comparison.stop_go_penalty > comparison.migration_penalty
            assert comparison.dvfs_penalty > comparison.migration_penalty

    def test_penalties_in_unit_interval(self, comparison):
        for value in (
            comparison.migration_penalty,
            comparison.stop_go_penalty,
            comparison.dvfs_penalty,
        ):
            assert 0.0 <= value < 1.0


class TestFormatRows:
    def test_negative_zero_prints_unsigned(self):
        table = format_rows([{"metric": "a", "value": -0.0}, {"metric": "b", "value": -0.28}])
        lines = table.splitlines()
        assert lines[2] == "a       0.0  "
        assert lines[3] == "b       -0.28"
        assert "-0.0" not in table

    def test_other_values_print_as_str(self):
        table = format_rows([{"n": 0, "x": 1.5, "name": None}])
        assert table.splitlines()[2] == "0  1.5  None"
