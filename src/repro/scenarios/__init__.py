"""Declarative time-varying scenarios compiled onto the batched epoch pipeline.

The paper's experiments hold the workload, the channel quality and the
ambient conditions fixed for a whole run.  This package multiplies one
experiment into an evaluation matrix (the Megaphone experiment harness is the
model: a small library of composable load patterns spanning a whole study):

* :mod:`repro.scenarios.patterns` — parameterized per-epoch modulators
  (constant, step, ramp, burst, diurnal, duty-cycle, SNR drift, ambient
  profiles, per-PE hotspot/fault injection) that compose additively and
  multiplicatively and evaluate vectorized over the whole epoch axis;
* :mod:`repro.scenarios.spec` — the declarative, JSON-round-trippable
  :class:`ScenarioSpec` binding a chip configuration, a reconfiguration
  policy and a set of patterns over a horizon;
* :mod:`repro.scenarios.compile` — compiles a spec into the epochs x units
  modulation of the controller's power rows plus per-epoch ambient/SNR
  schedules, and runs it through :class:`repro.core.experiment.ThermalExperiment`
  (still exactly one batched steady solve or one ``transient_sequence`` call
  per scenario);
* :mod:`repro.scenarios.registry` — the built-in named scenarios behind
  ``python -m repro scenario run|list|compare``.
"""

from .compile import (
    CompiledScenario,
    NocSummary,
    ScenarioResult,
    compile_scenario,
    run_scenario,
)
from .noc_cost import rate_noc_latencies
from .patterns import (
    BurstPattern,
    ConstantPattern,
    DiurnalPattern,
    DutyCyclePattern,
    FaultPattern,
    HotspotPattern,
    Pattern,
    ProductPattern,
    RampPattern,
    StepPattern,
    SumPattern,
    WallClockPattern,
    pattern_from_dict,
)
from .registry import all_scenarios, get_scenario
from .spec import NocChannel, ScenarioSpec

__all__ = [
    "BurstPattern",
    "CompiledScenario",
    "ConstantPattern",
    "DiurnalPattern",
    "DutyCyclePattern",
    "FaultPattern",
    "HotspotPattern",
    "NocChannel",
    "NocSummary",
    "rate_noc_latencies",
    "Pattern",
    "ProductPattern",
    "RampPattern",
    "ScenarioResult",
    "ScenarioSpec",
    "StepPattern",
    "SumPattern",
    "WallClockPattern",
    "all_scenarios",
    "compile_scenario",
    "get_scenario",
    "pattern_from_dict",
    "run_scenario",
]
