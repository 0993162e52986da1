"""Reproduction of "Hotspot Prevention Through Runtime Reconfiguration in
Network-on-Chip" (Link & Vijaykrishnan, DATE 2005).

The package is organised as the paper's experimental platform is:

* :mod:`repro.noc` — the 2-D mesh wormhole NoC and its closed-form latency
  model,
* :mod:`repro.ldpc` — the LDPC decoder workload and its mapping onto PEs,
* :mod:`repro.power` — technology constants and power traces standing in for
  Power Compiler,
* :mod:`repro.thermal` — HotSpot-style RC thermal model (40 °C ambient),
* :mod:`repro.placement` — the task-to-PE mapping migrations rewrite,
* :mod:`repro.migration` — the paper's contribution: plane transforms,
  congestion-free migration scheduling, migration cost and transparent I/O,
* :mod:`repro.chips` — the five evaluated configurations (A–E),
* :mod:`repro.core` — reconfiguration policies, controller and experiments,
* :mod:`repro.analysis` — report/sweep helpers that regenerate Figure 1 and
  the in-text results.

Quick start::

    from repro import get_configuration, ThermalExperiment, PeriodicMigrationPolicy

    chip = get_configuration("A")
    policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
    result = ThermalExperiment(chip, policy).run()
    print(result.peak_reduction_celsius)
"""

from .analysis import generate_figure1, run_energy_ablation, run_period_sweep
from .chips import (
    ChipConfiguration,
    all_configurations,
    configuration_names,
    get_configuration,
)
from .core import (
    AdaptiveMigrationPolicy,
    ExperimentResult,
    ExperimentSettings,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    ReconfigurationPolicy,
    RuntimeReconfigurationController,
    ThermalExperiment,
    ThresholdMigrationPolicy,
    make_policy,
)
from .migration import (
    FIGURE1_SCHEMES,
    MigrationTransform,
    MigrationUnit,
    available_transforms,
    make_transform,
)
from .noc import MeshTopology
from .placement import Mapping
from .thermal import HotSpotModel

__version__ = "1.0.0"

__all__ = [
    "generate_figure1",
    "run_energy_ablation",
    "run_period_sweep",
    "ChipConfiguration",
    "all_configurations",
    "configuration_names",
    "get_configuration",
    "AdaptiveMigrationPolicy",
    "ExperimentResult",
    "ExperimentSettings",
    "NoMigrationPolicy",
    "PeriodicMigrationPolicy",
    "ReconfigurationPolicy",
    "RuntimeReconfigurationController",
    "ThermalExperiment",
    "ThresholdMigrationPolicy",
    "make_policy",
    "FIGURE1_SCHEMES",
    "MigrationTransform",
    "MigrationUnit",
    "available_transforms",
    "make_transform",
    "MeshTopology",
    "Mapping",
    "HotSpotModel",
    "__version__",
]
