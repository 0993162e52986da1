"""Report generation: the Figure 1 table and the in-text result summaries.

Every paper experiment is a :class:`~repro.scenarios.spec.ScenarioSpec` built
by :func:`paper_spec` and run through
:func:`~repro.scenarios.compile.run_scenario`, the same path that scenario
suites and campaigns take.  The helpers here loop over those runs and format
the results as plain-text tables (and CSV rows), so the CLI and the examples
print exactly what the paper plots.

:func:`format_rows` is the shared table renderer for every layer above —
the CLI's scenario/sweep tables and the campaign engine's per-axis marginal
report (:mod:`repro.campaign.report`) all print through it, so fleet-scale
output lines up column-for-column with single-run output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..chips.configurations import configuration_names, get_configuration
from ..core.dtm import DvfsThrottling, StopGoThrottling
from ..migration.transforms import FIGURE1_SCHEMES
from ..scenarios.compile import ScenarioResult, run_scenario
from ..scenarios.spec import ScenarioSpec


def paper_spec(
    configuration: str,
    scheme: str,
    *,
    period_us: float = 109.0,
    mode: str = "steady",
    num_epochs: int = 41,
    **fields: object,
) -> ScenarioSpec:
    """The scenario behind one of the paper's experiments.

    This is the one place that states the paper's settle rule: every epoch
    after the first (static) one is settled.  At the default 41 epochs that
    is 40, which divides the orbit length of every Figure 1 transform on
    both the 4x4 and 5x5 meshes.  ``fields`` sets any other
    :class:`ScenarioSpec` field (e.g. ``include_migration_energy``).
    """
    return ScenarioSpec(
        name=f"paper@{configuration}/{scheme}",
        configuration=configuration,
        scheme=scheme,
        period_us=period_us,
        mode=mode,
        num_epochs=num_epochs,
        settle_epochs=max(1, num_epochs - 1),
        **fields,  # type: ignore[arg-type]
    )


def unsigned_zero(value: object) -> object:
    """``value``, with a float zero's sign dropped (a rounded residue is ``-0.0``)."""
    return 0.0 if isinstance(value, float) and value == 0.0 else value


def format_rows(rows: List[Dict[str, object]]) -> str:
    """Fixed-width text table of flat dict rows.

    The one renderer behind every tabular report (the CLI's table output and
    the scenario comparison): header, separator, one ljust-joined line per
    row.  A float zero prints as ``0.0`` (see :func:`unsigned_zero`).
    """
    if not rows:
        return "(no rows)"
    keys = list(rows[0].keys())
    cells = [{key: str(unsigned_zero(row[key])) for key in keys} for row in rows]
    widths = {
        key: max(len(str(key)), max(len(row[key]) for row in cells))
        for key in keys
    }
    header = "  ".join(str(key).ljust(widths[key]) for key in keys)
    lines = [header, "-" * len(header)]
    for row in cells:
        lines.append("  ".join(row[key].ljust(widths[key]) for key in keys))
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


def generate_figure1(
    configurations: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = FIGURE1_SCHEMES,
    period_us: float = 109.0,
    num_epochs: int = 41,
) -> Figure1Report:
    """Reproduce Figure 1: peak-temperature reduction per configuration/scheme.

    ``configurations`` are chip names (default: A to E).
    """
    cells: List[Figure1Cell] = []
    for configuration in configurations or configuration_names():
        for scheme in schemes:
            result = run_scenario(
                paper_spec(
                    configuration, scheme, period_us=period_us, num_epochs=num_epochs
                )
            ).experiment
            cells.append(
                Figure1Cell(
                    configuration=result.configuration_name,
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


def compare_scenarios(specs: Sequence[ScenarioSpec]) -> ScenarioComparison:
    """Run a scenario suite, in suite order."""
    return ScenarioComparison(results=[run_scenario(spec) for spec in specs])


@dataclass
class DtmComparison:
    """Throughput cost of reaching the same peak temperature three ways."""

    configuration: str
    target_peak_celsius: float
    migration_scheme: str
    migration_penalty: float
    migration_peak_celsius: float
    stop_go_penalty: float
    dvfs_penalty: float

    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "technique": f"runtime reconfiguration ({self.migration_scheme})",
                "peak_c": round(self.migration_peak_celsius, 2),
                "throughput_penalty_pct": round(100 * self.migration_penalty, 2),
            },
            {
                "technique": "stop-go clock gating",
                "peak_c": round(self.target_peak_celsius, 2),
                "throughput_penalty_pct": round(100 * self.stop_go_penalty, 2),
            },
            {
                "technique": "global DVFS",
                "peak_c": round(self.target_peak_celsius, 2),
                "throughput_penalty_pct": round(100 * self.dvfs_penalty, 2),
            },
        ]


def compare_with_migration(
    configuration: str,
    scheme: str = "xy-shift",
    period_us: float = 109.0,
    num_epochs: int = 41,
) -> DtmComparison:
    """Make the paper's implicit comparison with chip-wide DTM explicit.

    Runs the migration experiment, takes the peak temperature it achieves,
    and asks what global stop-go or DVFS throttling
    (:mod:`repro.core.dtm`) would cost in throughput to reach the *same*
    peak on the *same* chip.
    """
    migration = run_scenario(
        paper_spec(configuration, scheme, period_us=period_us, num_epochs=num_epochs)
    ).experiment
    chip = get_configuration(configuration)
    target_peak = migration.settled_peak_celsius
    duty = StopGoThrottling(chip).duty_cycle_for_peak(target_peak)
    frequency = DvfsThrottling(chip).frequency_for_peak(target_peak)
    return DtmComparison(
        configuration=chip.name,
        target_peak_celsius=target_peak,
        migration_scheme=scheme,
        migration_penalty=migration.throughput_penalty,
        migration_peak_celsius=migration.settled_peak_celsius,
        stop_go_penalty=1.0 - duty,
        dvfs_penalty=1.0 - frequency,
    )
