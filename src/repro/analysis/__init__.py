"""Reporting and sweep utilities that regenerate the paper's tables/figures."""

from .report import (
    DtmComparison,
    Figure1Cell,
    Figure1Report,
    compare_with_migration,
    generate_figure1,
    paper_spec,
    table1_rows,
)
from .sweep import (
    PAPER_PENALTIES,
    PAPER_PERIODS_US,
    EnergyAblationResult,
    PeriodSweepPoint,
    PeriodSweepResult,
    run_energy_ablation,
    run_period_sweep,
)
from .thermal_map import render_grid, render_heat_bar

__all__ = [
    "DtmComparison",
    "Figure1Cell",
    "Figure1Report",
    "compare_with_migration",
    "generate_figure1",
    "paper_spec",
    "table1_rows",
    "PAPER_PENALTIES",
    "PAPER_PERIODS_US",
    "EnergyAblationResult",
    "PeriodSweepPoint",
    "PeriodSweepResult",
    "run_energy_ablation",
    "run_period_sweep",
    "render_grid",
    "render_heat_bar",
]
