"""The built-in named scenarios behind ``python -m repro scenario``.

Fifteen scenarios spanning the five chip configurations, both experiment
modes and every pattern family.  Thirteen use feedback-free policies
(periodic or static), so each compiles to exactly one batched steady solve
or one ``transient_sequence`` call; ``threshold-under-burst`` and
``adaptive-diurnal`` exercise the chunked feedback loop — thermal-feedback
policies riding the scenario engine at ``ceil(num_epochs/feedback_stride)``
batched solves instead of one per epoch.
``tests/scenarios/test_compile.py`` guards both properties;
``ambient-swing-transient`` additionally pins the exact time-varying-ambient
boundary term riding the whole-trace spectral jump, and
``noc-congestion-burst`` exercises the first-class ``noc`` channel —
per-epoch network pricing through the cached analytic wormhole model at
zero extra thermal solves.  ``fluid-under-burst`` runs the staged
migration engine (fluid plans congestion-priced by the ``noc`` channel)
and ``period-schedule-diurnal`` drives the ``period`` channel through a
wall-clock diurnal schedule — both still one batched evaluation per
window.

``steady-baseline`` is deliberately the degenerate scenario (constant load
1.0, no ambient or SNR drift): the test suite pins it to the plain
:class:`repro.core.experiment.ThermalExperiment` result to 1e-9, anchoring
the whole scenario layer to the paper's reproduction.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .patterns import (
    BurstPattern,
    ConstantPattern,
    DiurnalPattern,
    DutyCyclePattern,
    FaultPattern,
    HotspotPattern,
    RampPattern,
    WallClockPattern,
)
from .spec import NocChannel, ScenarioSpec


def _steady_baseline() -> ScenarioSpec:
    return ScenarioSpec(
        name="steady-baseline",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=41,
        settle_epochs=40,
        load=ConstantPattern(1.0),
        description="Constant unit load: the paper's Figure 1 cell, pinned "
        "to the plain experiment by the parity tests",
    )


def _diurnal_load() -> ScenarioSpec:
    return ScenarioSpec(
        name="diurnal-load",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=48,
        settle_epochs=24,
        load=DiurnalPattern(mean=1.0, amplitude=0.3, period_epochs=24.0),
        description="Human-facing traffic: load breathes +-30% over a "
        "24-epoch day cycle",
    )


def _morning_rush_ramp() -> ScenarioSpec:
    return ScenarioSpec(
        name="morning-rush-ramp",
        configuration="C",
        scheme="xy-shift",
        mode="steady",
        num_epochs=41,
        settle_epochs=20,
        load=RampPattern(start=0.6, end=1.25, start_epoch=5, end_epoch=30),
        description="Load ramps 0.6x -> 1.25x over epochs 5..30 and holds "
        "(Megaphone's Fluid pattern)",
    )


def _burst_overload() -> ScenarioSpec:
    return ScenarioSpec(
        name="burst-overload",
        configuration="B",
        scheme="xy-shift",
        mode="steady",
        num_epochs=40,
        settle_epochs=20,
        load=BurstPattern(base=1.0, peak=1.5, start_epoch=8, length=4, every=12),
        description="Recurring 4-epoch 1.5x overload bursts every 12 epochs "
        "(Megaphone's Sudden pattern)",
    )


def _duty_cycle_idle() -> ScenarioSpec:
    return ScenarioSpec(
        name="duty-cycle-idle",
        configuration="D",
        scheme="right-shift",
        mode="steady",
        num_epochs=40,
        settle_epochs=20,
        load=DutyCyclePattern(on_value=1.0, off_value=0.35, on_epochs=6, off_epochs=2),
        description="Batch workload duty-cycled 6 epochs on / 2 epochs "
        "near-idle at 0.35x",
    )


def _heatwave_ambient() -> ScenarioSpec:
    return ScenarioSpec(
        name="heatwave-ambient",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=41,
        settle_epochs=10,
        load=DiurnalPattern(mean=1.0, amplitude=0.1, period_epochs=20.0),
        ambient_celsius=RampPattern(start=0.0, end=8.0, start_epoch=0, end_epoch=40),
        description="Ambient climbs +8 C over the horizon while load "
        "breathes +-10%: a datacenter heatwave",
    )


def _hotspot_attack() -> ScenarioSpec:
    return ScenarioSpec(
        name="hotspot-attack",
        configuration="E",
        scheme="rotation",
        mode="transient",
        num_epochs=32,
        settle_epochs=16,
        thermal_method="spectral",
        load=HotspotPattern(center=(2, 2), peak=1.6, sigma=1.0)
        * BurstPattern(base=1.0, peak=1.15, start_epoch=12, length=8),
        description="A 1.6x hotspot pinned on E's central PE (rotation's "
        "fixed point) with a mid-run chip-wide burst, integrated "
        "transiently through the spectral jump",
    )


def _pe_fault_transient() -> ScenarioSpec:
    return ScenarioSpec(
        name="pe-fault-transient",
        configuration="A",
        scheme="xy-shift",
        mode="transient",
        num_epochs=40,
        settle_epochs=16,
        load=FaultPattern(units=((1, 2), (2, 2)), level=0.2, start_epoch=20),
        description="Two hot-row PEs degrade to 0.2x power from epoch 20 "
        "(fault injection); the transient shows the die cooling "
        "around the dead units",
    )


def _ambient_swing_transient() -> ScenarioSpec:
    return ScenarioSpec(
        name="ambient-swing-transient",
        configuration="A",
        scheme="xy-shift",
        mode="transient",
        num_epochs=32,
        settle_epochs=16,
        # Epochs of 1 ms put the diurnal period (16 epochs) well past the
        # sink time constant (~1.7 ms), so the die visibly tracks the swing
        # instead of low-passing it away.
        period_us=1000.0,
        thermal_method="spectral",
        load=ConstantPattern(1.0),
        ambient_celsius=DiurnalPattern(mean=3.0, amplitude=3.0, period_epochs=16.0)
        + BurstPattern(base=0.0, peak=5.0, start_epoch=20, length=4),
        description="Diurnal ambient swing with a 4-epoch +5 C burst, "
        "integrated exactly: the time-varying ambient enters the "
        "spectral jump as an affine boundary term, not a "
        "quasi-static shift",
    )


def _threshold_under_burst() -> ScenarioSpec:
    return ScenarioSpec(
        name="threshold-under-burst",
        configuration="B",
        scheme="threshold-xy-shift",
        policy_params={"trigger_celsius": 90.0},
        mode="steady",
        num_epochs=40,
        settle_epochs=20,
        feedback_stride=4,
        load=BurstPattern(base=1.0, peak=1.4, start_epoch=8, length=4, every=12),
        description="Threshold policy (90 C trigger) under recurring 1.4x "
        "bursts: migrations fire only while the chip runs hot, "
        "with feedback temperatures refreshed every 4 epochs by "
        "one batched solve",
    )


def _adaptive_diurnal() -> ScenarioSpec:
    return ScenarioSpec(
        name="adaptive-diurnal",
        configuration="C",
        scheme="adaptive",
        mode="transient",
        num_epochs=32,
        settle_epochs=16,
        feedback_stride=4,
        feedback_predictor="previous",
        thermal_method="spectral",
        load=DiurnalPattern(mean=1.0, amplitude=0.25, period_epochs=16.0),
        description="Adaptive transform choice chasing the hotspot through "
        "a +-25% diurnal load swing, integrated transiently; the "
        "previous-batch predictor covers the 3 epochs between "
        "feedback refreshes at zero solves",
    )


def _noc_congestion_burst() -> ScenarioSpec:
    return ScenarioSpec(
        name="noc-congestion-burst",
        configuration="B",
        scheme="xy-shift",
        mode="steady",
        num_epochs=40,
        settle_epochs=20,
        load=BurstPattern(base=1.0, peak=1.3, start_epoch=10, length=6, every=16),
        noc=NocChannel(
            traffic="hotspot",
            # The (1,1) hotspot model saturates near 0.0156 flits/cycle/node:
            # the 0.006 base idles below the knee and the 3x bursts land past
            # it, so exactly the burst epochs are flagged saturated.
            injection_rate=0.006,
            rate_pattern=BurstPattern(
                base=1.0, peak=3.0, start_epoch=10, length=6, every=16
            ),
            traffic_kwargs={"hotspots": [[1, 1]]},
        ),
        description="Recurring compute bursts with a 3x NoC fan-in burst "
        "onto the (1,1) memory-controller hotspot: the analytic "
        "wormhole model prices each epoch's latency and flags "
        "the saturated ones",
    )


def _fluid_under_burst() -> ScenarioSpec:
    return ScenarioSpec(
        name="fluid-under-burst",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=48,
        settle_epochs=20,
        migration_style="fluid",
        units_per_epoch=2,
        load=BurstPattern(base=1.0, peak=1.4, start_epoch=8, length=6, every=16),
        noc=NocChannel(
            traffic="uniform",
            injection_rate=0.01,
            rate_pattern=BurstPattern(
                base=1.0, peak=2.5, start_epoch=8, length=6, every=16
            ),
        ),
        description="Staged fluid migration (a 2-PE epoch budget, so each "
        "4-PE xy-shift cycle occupies its own stage and a plan spans four "
        "epochs) under recurring 1.4x compute bursts; each stage's "
        "transfer cycles are congestion-priced by the epoch's NoC "
        "load, so migrating into a burst costs more",
    )


def _period_schedule_diurnal() -> ScenarioSpec:
    return ScenarioSpec(
        name="period-schedule-diurnal",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=48,
        settle_epochs=20,
        load=DiurnalPattern(mean=1.0, amplitude=0.2, period_epochs=24.0),
        # The period schedule is authored on a wall-clock seconds axis (a
        # 24-"hour" day of 109 us hours) and bound to epochs at compile
        # time from period_us, so sweeping the period keeps the day a day.
        period=WallClockPattern(
            inner=DiurnalPattern(
                mean=1.0, amplitude=0.5, period_epochs=24.0
            ),
            inner_step_s=109e-6,
        ),
        description="Migration period breathes +-50% over a wall-clock "
        "diurnal day while load swings +-20%: epochs stretch at "
        "night (fewer, cheaper migrations) and shrink under the "
        "daytime peak",
    )


def _snr_fade() -> ScenarioSpec:
    return ScenarioSpec(
        name="snr-fade",
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=41,
        settle_epochs=20,
        load=ConstantPattern(1.0),
        snr_db=RampPattern(start=3.0, end=1.25, start_epoch=5, end_epoch=35),
        description="Channel quality fades 3.0 -> 1.25 dB mid-run; the "
        "decoder burns more iterations per block and the report "
        "shows the throughput cost",
    )


_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {
    "steady-baseline": _steady_baseline,
    "diurnal-load": _diurnal_load,
    "morning-rush-ramp": _morning_rush_ramp,
    "burst-overload": _burst_overload,
    "duty-cycle-idle": _duty_cycle_idle,
    "heatwave-ambient": _heatwave_ambient,
    "hotspot-attack": _hotspot_attack,
    "pe-fault-transient": _pe_fault_transient,
    "ambient-swing-transient": _ambient_swing_transient,
    "threshold-under-burst": _threshold_under_burst,
    "adaptive-diurnal": _adaptive_diurnal,
    "noc-congestion-burst": _noc_congestion_burst,
    "fluid-under-burst": _fluid_under_burst,
    "period-schedule-diurnal": _period_schedule_diurnal,
    "snr-fade": _snr_fade,
}


def get_scenario(name: str) -> ScenarioSpec:
    """Named scenario spec (freshly built; specs are immutable anyway)."""
    builder = _REGISTRY.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(_REGISTRY)}"
        )
    return builder()


def all_scenarios() -> List[ScenarioSpec]:
    """Every registered scenario, in registry order."""
    return [builder() for builder in _REGISTRY.values()]
