"""Report generation: the Figure 1 table and the in-text result summaries.

These helpers run the experiments behind each of the paper's results and
format them as plain-text tables (and CSV rows) so the CLI and the examples
can print exactly what the paper plots.

:func:`format_rows` is the shared table renderer for every layer above —
the CLI's scenario/sweep tables and the campaign engine's per-axis marginal
report (:mod:`repro.campaign.report`) all print through it, so fleet-scale
output lines up column-for-column with single-run output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..chips.configurations import ChipConfiguration, all_configurations, get_configuration
from ..core.experiment import ExperimentSettings, ThermalExperiment
from ..core.metrics import ExperimentResult
from ..core.policy import NoMigrationPolicy, PeriodicMigrationPolicy
from ..migration.transforms import FIGURE1_SCHEMES
from ..scenarios.compile import ScenarioResult
from ..scenarios.registry import all_scenarios
from ..scenarios.spec import ScenarioSpec

#: Experiment settings used for the Figure 1 reproduction: one static epoch
#: followed by 40 migrated epochs (40 divides the orbit length of every
#: Figure 1 transform on both the 4x4 and 5x5 meshes).
FIGURE1_SETTINGS = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)


def format_rows(rows: List[Dict[str, object]]) -> str:
    """Fixed-width text table of flat dict rows.

    The one renderer behind every tabular report (the CLI's table output and
    the scenario comparison): header, separator, one ljust-joined line per
    row.
    """
    if not rows:
        return "(no rows)"
    keys = list(rows[0].keys())
    widths = {
        key: max(len(str(key)), max(len(str(row[key])) for row in rows))
        for key in keys
    }
    header = "  ".join(str(key).ljust(widths[key]) for key in keys)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row[key]).ljust(widths[key]) for key in keys))
    return "\n".join(lines)


@dataclass
class Figure1Cell:
    """One bar of Figure 1: a configuration/scheme pair."""

    configuration: str
    scheme: str
    baseline_peak_celsius: float
    settled_peak_celsius: float
    reduction_celsius: float
    mean_increase_celsius: float
    throughput_penalty: float


@dataclass
class Figure1Report:
    """All bars of Figure 1 plus the paper's in-text aggregates."""

    cells: List[Figure1Cell]
    period_us: float

    def reduction(self, configuration: str, scheme: str) -> float:
        for cell in self.cells:
            if cell.configuration == configuration and cell.scheme == scheme:
                return cell.reduction_celsius
        raise KeyError(f"no cell for {configuration}/{scheme}")

    def schemes(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.scheme not in seen:
                seen.append(cell.scheme)
        return seen

    def configurations(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.configuration not in seen:
                seen.append(cell.configuration)
        return seen

    def average_reduction(self, scheme: str) -> float:
        """Average peak-temperature reduction of a scheme across configurations."""
        values = [cell.reduction_celsius for cell in self.cells if cell.scheme == scheme]
        if not values:
            raise KeyError(f"unknown scheme {scheme}")
        return float(np.mean(values))

    def best_scheme(self) -> str:
        """Scheme with the highest average reduction (paper: X-Y shift)."""
        return max(self.schemes(), key=self.average_reduction)

    def max_reduction(self) -> float:
        """Largest single-configuration reduction (paper: up to ~8 deg C)."""
        return max(cell.reduction_celsius for cell in self.cells)

    # ------------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "configuration": cell.configuration,
                "scheme": cell.scheme,
                "baseline_peak_c": round(cell.baseline_peak_celsius, 2),
                "peak_with_migration_c": round(cell.settled_peak_celsius, 2),
                "reduction_c": round(cell.reduction_celsius, 2),
                "mean_increase_c": round(cell.mean_increase_celsius, 3),
                "throughput_penalty_pct": round(100 * cell.throughput_penalty, 2),
            }
            for cell in self.cells
        ]

    def format_table(self) -> str:
        """Figure 1 as a text table: rows = schemes, columns = configurations."""
        configurations = self.configurations()
        lines = []
        base_row = "  ".join(
            f"{config}({self._baseline(config):.2f})" for config in configurations
        )
        lines.append(f"Reduction in peak temperature (deg C), period {self.period_us} us")
        lines.append(f"{'scheme':<14}" + base_row)
        for scheme in self.schemes():
            values = []
            for config in configurations:
                values.append(f"{self.reduction(config, scheme):>9.2f}")
            lines.append(f"{scheme:<14}" + "  ".join(values))
        lines.append("")
        for scheme in self.schemes():
            lines.append(
                f"average reduction {scheme:<12}: {self.average_reduction(scheme):+.2f} C"
            )
        return "\n".join(lines)

    def _baseline(self, configuration: str) -> float:
        for cell in self.cells:
            if cell.configuration == configuration:
                return cell.baseline_peak_celsius
        raise KeyError(configuration)


def run_figure1_cell(
    configuration: ChipConfiguration,
    scheme: str,
    period_us: float = 109.0,
    settings: Optional[ExperimentSettings] = None,
) -> ExperimentResult:
    """Run a single configuration/scheme experiment (one bar of Figure 1)."""
    policy = PeriodicMigrationPolicy(configuration.topology, scheme, period_us=period_us)
    experiment = ThermalExperiment(
        configuration, policy, settings=settings or FIGURE1_SETTINGS
    )
    return experiment.run()


def generate_figure1(
    configurations: Optional[Sequence[ChipConfiguration]] = None,
    schemes: Sequence[str] = FIGURE1_SCHEMES,
    period_us: float = 109.0,
    settings: Optional[ExperimentSettings] = None,
) -> Figure1Report:
    """Reproduce Figure 1: peak-temperature reduction per configuration/scheme."""
    if configurations is None:
        configurations = all_configurations()
    cells: List[Figure1Cell] = []
    for configuration in configurations:
        for scheme in schemes:
            result = run_figure1_cell(configuration, scheme, period_us, settings)
            cells.append(
                Figure1Cell(
                    configuration=configuration.name,
                    scheme=scheme,
                    baseline_peak_celsius=result.baseline_peak_celsius,
                    settled_peak_celsius=result.settled_peak_celsius,
                    reduction_celsius=result.peak_reduction_celsius,
                    mean_increase_celsius=result.mean_increase_celsius,
                    throughput_penalty=result.throughput_penalty,
                )
            )
    return Figure1Report(cells=cells, period_us=period_us)


@dataclass
class ScenarioComparison:
    """A scenario suite's results, side by side.

    The scenario counterpart of :class:`Figure1Report`: one row per scenario
    with the thermal outcome (settled/peak temperature, reduction vs the
    static baseline), the DTM interventions (migrations performed and their
    throughput cost) and the decoder-side throughput factor where the
    scenario drifts the channel.
    """

    results: List[ScenarioResult]

    def result(self, name: str) -> ScenarioResult:
        for entry in self.results:
            if entry.spec.name == name:
                return entry
        raise KeyError(f"no scenario named {name!r} in this comparison")

    def names(self) -> List[str]:
        return [entry.spec.name for entry in self.results]

    def hottest_scenario(self) -> str:
        """Scenario with the highest settled peak (the one to worry about)."""
        if not self.results:
            raise ValueError("the comparison holds no scenarios")
        return max(
            self.results, key=lambda entry: entry.experiment.settled_peak_celsius
        ).spec.name

    def to_rows(self) -> List[Dict[str, object]]:
        return [entry.to_row() for entry in self.results]

    def format_table(self) -> str:
        if not self.results:
            return "Scenario comparison (no scenarios)"
        header = (
            "Scenario comparison "
            f"({len(self.results)} scenarios; hottest: {self.hottest_scenario()})"
        )
        return header + "\n" + format_rows(self.to_rows())


def compare_scenarios(
    specs: Optional[Sequence[ScenarioSpec]] = None,
    feedback_stride: Optional[int] = None,
    feedback_predictor: Optional[str] = None,
) -> ScenarioComparison:
    """Run a scenario suite (default: the whole registry) and collect rows.

    Results keep suite order.  ``feedback_stride`` / ``feedback_predictor``
    override every spec's feedback refresh settings for the whole suite.
    """
    from .runner import ScenarioRunner

    if specs is None:
        specs = all_scenarios()
    runner = ScenarioRunner(
        feedback_stride=feedback_stride,
        feedback_predictor=feedback_predictor,
    )
    return ScenarioComparison(results=runner.run(list(specs)))


def table1_rows(mesh_size: int = 4) -> List[Dict[str, str]]:
    """The transformation functions of Table 1 in symbolic form."""
    n = mesh_size
    return [
        {"operation": "Rotation", "new_x": f"{n}-1-Y", "new_y": "X"},
        {"operation": "X Mirroring", "new_x": f"{n}-1-X", "new_y": "Y"},
        {"operation": "X Translation", "new_x": "X + Offset", "new_y": "Y"},
    ]
