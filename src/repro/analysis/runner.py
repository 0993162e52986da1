"""Serial experiment helpers for grids, scenario suites and streamed suites.

* :func:`run_experiment_grid` — the cross product of configurations x
  schemes x periods, returned in grid order;
* :class:`ScenarioRunner` — a scenario suite run end to end, in suite
  order, optionally with the suite-wide feedback overrides;
* :func:`run_streaming_scenario` — one scenario driven window by window
  through the streaming engine.

Everything here runs in the calling thread.  The one place that fans work
out is :func:`repro.campaign.run_campaign`, which shards a campaign's jobs
over worker processes; a grid or suite that should run in parallel is
written as a campaign.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from ..chips.configurations import ChipConfiguration
from ..core.experiment import ExperimentSettings, ThermalExperiment
from ..core.metrics import ExperimentResult
from ..core.policy import make_policy
from ..scenarios.compile import ScenarioResult, run_scenario
from ..scenarios.spec import ScenarioSpec


# ----------------------------------------------------------------------
# Experiment grid
# ----------------------------------------------------------------------
def run_single_experiment(
    configuration: ChipConfiguration,
    scheme: str,
    period_us: float,
    mode: str = "steady",
    num_epochs: int = 41,
    settings: Optional[ExperimentSettings] = None,
) -> ExperimentResult:
    """One (configuration, scheme, period) experiment — one grid cell.

    When ``settings`` is omitted, the sweep defaults are used: settle over
    everything after the first epoch.
    """
    policy = make_policy(scheme, configuration.topology, period_us=period_us)
    if settings is None:
        settings = ExperimentSettings(
            num_epochs=num_epochs, mode=mode, settle_epochs=max(1, num_epochs - 1)
        )
    return ThermalExperiment(configuration, policy, settings=settings).run()


def run_experiment_grid(
    configurations: Iterable[ChipConfiguration],
    schemes: Sequence[str],
    periods_us: Sequence[float],
    mode: str = "steady",
    num_epochs: int = 41,
) -> List[ExperimentResult]:
    """Every (configuration, scheme, period) combination, in grid order.

    Results are ordered with ``periods_us`` varying fastest, then
    ``schemes``, then configurations — the iteration order of the
    corresponding nested loops.
    """
    return [
        run_single_experiment(configuration, scheme, period, mode, num_epochs)
        for configuration in configurations
        for scheme in schemes
        for period in periods_us
    ]


# ----------------------------------------------------------------------
# Streaming scenarios
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StreamedScenarioResult:
    """Outcome of one scenario driven through the streaming engine."""

    spec: ScenarioSpec
    experiment: ExperimentResult
    #: Rolling-summary snapshot at end of stream (windows, epochs, running
    #: peak/mean, migration and decoder/NoC aggregates).
    summary: Dict[str, object]
    #: Windows actually processed.
    windows: int


def run_streaming_scenario(
    spec: ScenarioSpec,
    window_epochs: int,
    max_epochs: Optional[int] = None,
) -> StreamedScenarioResult:
    """Run one scenario through the streaming engine.

    Streams the scenario's own pattern cursors in ``window_epochs``-sized
    windows up to ``max_epochs`` (the spec's horizon by default — which
    reproduces the batch result), returning the finalized experiment result
    plus the rolling summary.
    """
    from ..stream import StreamingExperiment, scenario_windows
    from ..scenarios.compile import compile_scenario

    compiled = compile_scenario(spec)
    horizon = max_epochs if max_epochs is not None else spec.num_epochs
    engine = StreamingExperiment.from_scenario(compiled)
    windows = 0
    for _update in engine.process(
        scenario_windows(compiled, window_epochs, max_epochs=horizon)
    ):
        windows += 1
    return StreamedScenarioResult(
        spec=spec,
        experiment=engine.finalize(),
        summary=engine.summary.snapshot(),
        windows=windows,
    )


# ----------------------------------------------------------------------
# Scenario suites
# ----------------------------------------------------------------------
class ScenarioRunner:
    """Runs a scenario suite, one scenario after another, in suite order.

    Each scenario compiles and runs one :class:`repro.scenarios.spec.ScenarioSpec`
    end to end.

    ``feedback_stride`` / ``feedback_predictor`` override the corresponding
    spec fields for the whole suite (e.g. the CLI's ``--feedback-stride``),
    so one suite can be re-run at several feedback refresh rates without
    editing specs; ``None`` leaves each spec as authored.
    """

    def __init__(
        self,
        feedback_stride: Optional[int] = None,
        feedback_predictor: Optional[str] = None,
    ):
        self.feedback_stride = feedback_stride
        self.feedback_predictor = feedback_predictor

    def _apply_overrides(self, spec: ScenarioSpec) -> ScenarioSpec:
        overrides: Dict[str, object] = {}
        if self.feedback_stride is not None:
            overrides["feedback_stride"] = self.feedback_stride
        if self.feedback_predictor is not None:
            overrides["feedback_predictor"] = self.feedback_predictor
        if not overrides:
            return spec
        return dataclasses.replace(spec, **overrides)

    def run(self, specs: Sequence[ScenarioSpec]) -> List[ScenarioResult]:
        return [run_scenario(self._apply_overrides(spec)) for spec in specs]

    def run_streaming(
        self,
        specs: Sequence[ScenarioSpec],
        window_epochs: int,
        max_epochs: Optional[int] = None,
    ) -> List["StreamedScenarioResult"]:
        """Run each scenario through the streaming engine, in suite order.

        Every scenario is driven window by window (``window_epochs`` epochs
        per window) up to ``max_epochs`` (its own horizon by default) — the
        fleet counterpart of ``repro serve`` for suites whose members should
        all stream the same way.
        """
        return [
            run_streaming_scenario(
                self._apply_overrides(spec), window_epochs, max_epochs
            )
            for spec in specs
        ]
