"""Parameter sweeps: migration period and migration-energy ablation.

Reproduces the Section 3 in-text results: the throughput penalty and residual
peak-temperature behaviour at migration periods of 109, 437.2 and 874.4
microseconds, and the contribution of migration energy to the average chip
temperature (the paper's 0.3 °C note about rotation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.metrics import ExperimentResult
from ..scenarios.compile import run_scenario
from .report import paper_spec

#: The three migration periods evaluated in the paper (microseconds).
PAPER_PERIODS_US = (109.0, 437.2, 874.4)

#: Paper-reported throughput penalties for those periods (upper bounds).
PAPER_PENALTIES = {109.0: 0.016, 437.2: 0.004, 874.4: 0.002}


@dataclass
class PeriodSweepPoint:
    """Result of one migration period."""

    period_us: float
    throughput_penalty: float
    settled_peak_celsius: float
    peak_reduction_celsius: float
    migration_cycles_per_period: float


@dataclass
class PeriodSweepResult:
    """Full period sweep for one configuration and scheme."""

    configuration: str
    scheme: str
    points: List[PeriodSweepPoint]

    def peak_rise_vs_fastest(self) -> Dict[float, float]:
        """Peak temperature increase of each period relative to the shortest.

        The paper reports this rise to be under 0.1 °C when going from 109 us
        to 437.2 us.
        """
        fastest = min(self.points, key=lambda p: p.period_us)
        return {
            point.period_us: point.settled_peak_celsius - fastest.settled_peak_celsius
            for point in self.points
        }


def run_period_sweep(
    configuration: str,
    scheme: str = "xy-shift",
    periods_us: Sequence[float] = PAPER_PERIODS_US,
    mode: str = "transient",
    num_epochs: int = 41,
) -> PeriodSweepResult:
    """Sweep the migration period for one chip (by name) and scheme.

    Point order follows ``periods_us``.
    """
    points = []
    for period in periods_us:
        result = run_scenario(
            paper_spec(
                configuration, scheme, period_us=period, mode=mode, num_epochs=num_epochs
            )
        ).experiment
        migrations = max(result.migrations_performed, 1)
        points.append(
            PeriodSweepPoint(
                period_us=period,
                throughput_penalty=result.throughput_penalty,
                settled_peak_celsius=result.settled_peak_celsius,
                peak_reduction_celsius=result.peak_reduction_celsius,
                migration_cycles_per_period=(
                    result.performance.migration_cycles / migrations
                ),
            )
        )
    return PeriodSweepResult(configuration=configuration, scheme=scheme, points=points)


@dataclass
class EnergyAblationResult:
    """Effect of accounting (or not) for migration energy."""

    configuration: str
    scheme: str
    with_energy: ExperimentResult
    without_energy: ExperimentResult

    @property
    def mean_temperature_penalty_celsius(self) -> float:
        """Average-temperature increase attributable to migration energy."""
        return (
            self.with_energy.settled_mean_celsius
            - self.without_energy.settled_mean_celsius
        )

    @property
    def peak_temperature_penalty_celsius(self) -> float:
        return (
            self.with_energy.settled_peak_celsius
            - self.without_energy.settled_peak_celsius
        )


def run_energy_ablation(
    configuration: str,
    scheme: str = "rotation",
    period_us: float = 109.0,
    num_epochs: int = 41,
) -> EnergyAblationResult:
    """Compare an experiment with and without migration-energy accounting."""
    with_energy, without_energy = (
        run_scenario(
            paper_spec(
                configuration,
                scheme,
                period_us=period_us,
                num_epochs=num_epochs,
                include_migration_energy=include_energy,
            )
        ).experiment
        for include_energy in (True, False)
    )
    return EnergyAblationResult(
        configuration=configuration,
        scheme=scheme,
        with_energy=with_energy,
        without_energy=without_energy,
    )
