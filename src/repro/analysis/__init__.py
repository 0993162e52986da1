"""Reporting and sweep utilities that regenerate the paper's tables/figures."""

from .export import (
    experiment_result_to_dict,
    experiment_result_to_json,
    figure1_to_csv,
    figure1_to_json,
    period_sweep_to_csv,
)
from .runner import run_experiment_grid, run_single_experiment
from .report import (
    FIGURE1_SETTINGS,
    Figure1Cell,
    Figure1Report,
    generate_figure1,
    run_figure1_cell,
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
from .thermal_map import difference_map, render_grid, render_heat_bar, to_csv

__all__ = [
    "experiment_result_to_dict",
    "experiment_result_to_json",
    "figure1_to_csv",
    "figure1_to_json",
    "period_sweep_to_csv",
    "FIGURE1_SETTINGS",
    "Figure1Cell",
    "Figure1Report",
    "generate_figure1",
    "run_figure1_cell",
    "table1_rows",
    "PAPER_PENALTIES",
    "PAPER_PERIODS_US",
    "EnergyAblationResult",
    "PeriodSweepPoint",
    "PeriodSweepResult",
    "run_energy_ablation",
    "run_period_sweep",
    "run_experiment_grid",
    "run_single_experiment",
    "difference_map",
    "render_grid",
    "render_heat_bar",
    "to_csv",
]
