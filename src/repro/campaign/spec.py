"""Declarative fleet-scale campaign specifications.

A :class:`CampaignSpec` names a set of scenarios and the axes to sweep them
over — chip configurations, reconfiguration schemes, feedback strides and
thermal methods — and expands, deterministically, into the cross-product of
:class:`CampaignJob` entries.  Like :class:`repro.scenarios.spec.ScenarioSpec`
it is a plain frozen dataclass that round-trips through JSON, so campaigns
live in version-controlled files and re-expand identically in every process.

Each job's derived scenario spec is the base scenario with the axis values
substituted via :func:`dataclasses.replace`; the scenario *name* is left
untouched so two campaigns whose grids overlap derive byte-identical specs
and therefore share content-addressed cache entries
(see :mod:`repro.campaign.cache`).

:class:`JobResult` is the durable outcome of one job — a flat, JSON-exact
record of the scalar metrics a campaign report aggregates.  It deliberately
excludes wall-clock time (that lives in the journal entry, see
:mod:`repro.campaign.manifest`), so a cached result is bit-identical to the
fresh run that produced it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.policy import policy_family
from ..scenarios.compile import run_scenario
from ..scenarios.patterns import check_field_types
from ..scenarios.registry import get_scenario
from ..scenarios.spec import ScenarioSpec, json_params

#: Sweep axes a campaign may pin, in expansion (outer -> inner) order, with
#: the :class:`ScenarioSpec` field each one substitutes.
CAMPAIGN_AXES: Tuple[Tuple[str, str], ...] = (
    ("configuration", "configuration"),
    ("scheme", "scheme"),
    ("feedback_stride", "feedback_stride"),
    ("thermal_method", "thermal_method"),
    ("migration_style", "migration_style"),
)


#: Each sweep axis field with the type of its values and that type's name.
_AXIS_TYPES: Dict[str, Tuple[type, str]] = {
    "configurations": (str, "a string"),
    "schemes": (str, "a string"),
    "feedback_strides": (numbers.Integral, "an integer"),
    "thermal_methods": (str, "a string"),
    "migration_styles": (str, "a string"),
    "stream_windows": (numbers.Integral, "an integer"),
}


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative sweep: scenarios x configurations x schemes x ..."""

    name: str
    #: Scenario names from the registry, or inline scenario dicts/specs.
    scenarios: Tuple[Union[str, ScenarioSpec], ...]
    #: Axis values to sweep; ``None`` keeps each scenario's own setting.
    configurations: Optional[Tuple[str, ...]] = None
    schemes: Optional[Tuple[str, ...]] = None
    feedback_strides: Optional[Tuple[int, ...]] = None
    #: ``ScenarioSpec.thermal_method`` labels to sweep: each value is its own
    #: job id and cache key, but every transient is the one closed form.
    thermal_methods: Optional[Tuple[str, ...]] = None
    #: Migration styles ("sudden" / "fluid" / "batched") to sweep; ``None``
    #: keeps each scenario's own style.
    migration_styles: Optional[Tuple[str, ...]] = None
    #: Streaming window sizes (epochs per window) to sweep; ``None`` keeps
    #: the classic whole-horizon batch evaluation.  Window sizes are an
    #: *evaluation* axis — they do not change the derived scenario spec, so
    #: the jobs get a distinct cache-key variant instead of a distinct spec.
    stream_windows: Optional[Tuple[int, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("a campaign needs a name")
        check_field_types(type(self), vars(self))
        if not isinstance(self.scenarios, (list, tuple)):
            raise ValueError(f"scenarios must be a list, got {self.scenarios!r}")
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        for axis, (kind, kind_name) in _AXIS_TYPES.items():
            values = getattr(self, axis)
            if values is None:
                continue
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{axis} must be a list or null, got {values!r}")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(
                        f"{axis} holds {value!r}; each value must be {kind_name}"
                    )
            values = tuple(values)
            if not values:
                raise ValueError(f"{axis} must be None or non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} contains duplicates: {values}")
            object.__setattr__(self, axis, values)
        if self.stream_windows is not None and any(
            window < 1 for window in self.stream_windows
        ):
            raise ValueError("stream_windows must be positive epoch counts")
        for entry in self.scenarios:
            if not isinstance(entry, (str, ScenarioSpec)):
                raise TypeError(
                    "scenarios must be registry names or ScenarioSpec instances, "
                    f"got {type(entry)}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenarios": [
                entry if isinstance(entry, str) else entry.to_dict()
                for entry in self.scenarios
            ],
            "configurations": list(self.configurations) if self.configurations else None,
            "schemes": list(self.schemes) if self.schemes else None,
            "feedback_strides": (
                list(self.feedback_strides) if self.feedback_strides else None
            ),
            "thermal_methods": (
                list(self.thermal_methods) if self.thermal_methods else None
            ),
            "migration_styles": (
                list(self.migration_styles) if self.migration_styles else None
            ),
            "stream_windows": (
                list(self.stream_windows) if self.stream_windows else None
            ),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        params = json_params(cls, payload, "campaign")
        scenarios = params.get("scenarios") or []
        if not isinstance(scenarios, list):
            raise ValueError(f"scenarios must be a list, got {scenarios!r}")
        for entry in scenarios:
            if not isinstance(entry, (str, dict)):
                raise ValueError(
                    f"scenarios holds {entry!r}; each must be a registry name "
                    "or a scenario object"
                )
        params["scenarios"] = tuple(
            entry if isinstance(entry, str) else ScenarioSpec.from_dict(entry)
            for entry in scenarios
        )
        return cls(**params)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _base_scenarios(self) -> List[ScenarioSpec]:
        return [
            get_scenario(entry) if isinstance(entry, str) else entry
            for entry in self.scenarios
        ]

    def expand(self) -> List["CampaignJob"]:
        """The deterministic job grid: scenarios x every pinned axis.

        Raises ``ValueError`` if two jobs would get the same id (two
        scenarios with one name, or a registry name listed twice).
        """
        axis_grids: Tuple[Sequence[object], ...] = (
            self.configurations or (None,),
            self.schemes or (None,),
            self.feedback_strides or (None,),
            self.thermal_methods or (None,),
            self.migration_styles or (None,),
        )
        windows: Tuple[Optional[int], ...] = self.stream_windows or (None,)
        jobs: List[CampaignJob] = []
        seen: Set[str] = set()
        for base in self._base_scenarios():
            for values in itertools.product(*axis_grids):
                overrides = {
                    field: value
                    for (axis, field), value in zip(CAMPAIGN_AXES, values)
                    if value is not None
                }
                derived = (
                    dataclasses.replace(base, **overrides) if overrides else base
                )
                if base.policy_params and policy_family(
                    derived.scheme
                ) != policy_family(base.scheme):
                    # The base's policy arguments fit its own policy class,
                    # not the one the overriding scheme builds.
                    derived = dataclasses.replace(derived, policy_params=None)
                style = values[-1]
                for window in windows:
                    axes = {
                        "scenario": base.name,
                        "configuration": derived.configuration,
                        "scheme": derived.scheme,
                        "feedback_stride": derived.feedback_stride,
                        "thermal_method": derived.thermal_method,
                    }
                    job_id = (
                        f"{base.name}@{derived.configuration}"
                        f"/{derived.scheme}"
                        f"/fs{derived.feedback_stride}"
                        f"/{derived.thermal_method}"
                    )
                    if style is not None:
                        # Like stream_windows, the style axis only decorates
                        # ids and axes when actually swept, keeping existing
                        # campaigns' journals and cache keys byte-stable.
                        axes["migration_style"] = str(style)
                        job_id += f"/{style}"
                    if window is not None:
                        # The streaming axis only decorates ids and axes when
                        # actually swept, keeping batch campaigns' journals
                        # and cache keys byte-stable.
                        axes["stream_window"] = int(window)
                        job_id += f"/w{int(window)}"
                    if job_id in seen:
                        # Two jobs with one id would share one journal line
                        # and one result.
                        raise ValueError(
                            f"campaign {self.name!r} expands to job id "
                            f"{job_id!r} twice; give each scenario a "
                            "distinct name"
                        )
                    seen.add(job_id)
                    jobs.append(
                        CampaignJob(
                            index=len(jobs),
                            job_id=job_id,
                            spec=derived,
                            axes=axes,
                            stream_window=(
                                int(window) if window is not None else None
                            ),
                        )
                    )
        return jobs


@dataclass(frozen=True)
class CampaignJob:
    """One cell of the expanded grid: a concrete scenario spec plus its axes."""

    index: int
    job_id: str
    spec: ScenarioSpec
    #: The axis values this job pins, for the per-axis marginal report.
    axes: Dict[str, object]
    #: Epochs per window when the job is evaluated through the streaming
    #: engine; ``None`` runs the classic whole-horizon batch path.
    stream_window: Optional[int] = None


@dataclass(frozen=True)
class JobResult:
    """Durable scalar outcome of one campaign job (JSON-exact, no wall time)."""

    job_id: str
    axes: Dict[str, object]
    baseline_peak_celsius: float
    settled_peak_celsius: float
    peak_reduction_celsius: float
    settled_mean_celsius: float
    throughput_penalty: float
    migrations: int
    #: Batched steady solves one evaluation of this job performs
    #: (:meth:`~repro.scenarios.compile.CompiledScenario.expected_steady_solves`).
    steady_solves: int
    ambient_span_celsius: float
    decoder_throughput_factor: Optional[float] = None
    noc_mean_latency_cycles: Optional[float] = None
    noc_saturated_epochs: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "axes": dict(self.axes),
            "baseline_peak_celsius": self.baseline_peak_celsius,
            "settled_peak_celsius": self.settled_peak_celsius,
            "peak_reduction_celsius": self.peak_reduction_celsius,
            "settled_mean_celsius": self.settled_mean_celsius,
            "throughput_penalty": self.throughput_penalty,
            "migrations": self.migrations,
            "steady_solves": self.steady_solves,
            "ambient_span_celsius": self.ambient_span_celsius,
            "decoder_throughput_factor": self.decoder_throughput_factor,
            "noc_mean_latency_cycles": self.noc_mean_latency_cycles,
            "noc_saturated_epochs": self.noc_saturated_epochs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobResult":
        params = dict(payload)
        unknown = set(params) - {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        if unknown:
            raise ValueError(f"unknown job-result fields: {sorted(unknown)}")
        return cls(**params)  # type: ignore[arg-type]


def evaluate_job(job: CampaignJob) -> JobResult:
    """Run one job's scenario and distil the durable result record.

    This is the single evaluation path for both serial and sharded campaign
    execution, so a cached :class:`JobResult` is bit-identical to a fresh one
    by construction (floats survive the JSON round-trip exactly).  Jobs with
    a ``stream_window`` run the same spec through the streaming engine in
    windows of that many epochs instead of one whole-horizon batch.
    """
    from ..scenarios.compile import compile_scenario

    compiled = compile_scenario(job.spec)
    if job.stream_window is not None:
        return _evaluate_streaming_job(job, compiled)
    outcome = run_scenario(compiled)
    experiment = outcome.experiment
    return JobResult(
        job_id=job.job_id,
        axes=dict(job.axes),
        baseline_peak_celsius=float(experiment.baseline_peak_celsius),
        settled_peak_celsius=float(experiment.settled_peak_celsius),
        peak_reduction_celsius=float(experiment.peak_reduction_celsius),
        settled_mean_celsius=float(experiment.settled_mean_celsius),
        throughput_penalty=float(experiment.throughput_penalty),
        migrations=int(experiment.migrations_performed),
        steady_solves=int(compiled.expected_steady_solves()),
        ambient_span_celsius=float(
            outcome.ambient_offset_max_celsius - outcome.ambient_offset_min_celsius
        ),
        decoder_throughput_factor=(
            float(outcome.decoder.throughput_factor) if outcome.decoder else None
        ),
        noc_mean_latency_cycles=(
            float(outcome.noc.mean_latency_cycles) if outcome.noc else None
        ),
        noc_saturated_epochs=(
            int(outcome.noc.saturated_epochs) if outcome.noc else None
        ),
    )


def _evaluate_streaming_job(job: CampaignJob, compiled) -> JobResult:
    """Evaluate one job through the streaming engine (windowed horizon)."""
    from ..stream import StreamingExperiment, scenario_windows

    window = int(job.stream_window)  # type: ignore[arg-type]
    engine = StreamingExperiment.from_scenario(compiled)
    for _update in engine.process(
        scenario_windows(compiled, window, max_epochs=job.spec.num_epochs)
    ):
        pass
    experiment = engine.finalize()
    summary = engine.summary
    offsets = compiled.window.ambient_offsets
    nominal = compiled.configuration.workload.parameters.iterations_per_block
    mean_iterations = summary.decoder_mean_iterations
    num_windows = -(-job.spec.num_epochs // window)
    return JobResult(
        job_id=job.job_id,
        axes=dict(job.axes),
        baseline_peak_celsius=float(experiment.baseline_peak_celsius),
        settled_peak_celsius=float(experiment.settled_peak_celsius),
        peak_reduction_celsius=float(experiment.peak_reduction_celsius),
        settled_mean_celsius=float(experiment.settled_mean_celsius),
        throughput_penalty=float(experiment.throughput_penalty),
        migrations=int(experiment.migrations_performed),
        steady_solves=int(compiled.expected_steady_solves(windows=num_windows)),
        ambient_span_celsius=(
            float(offsets.max() - offsets.min()) if offsets is not None else 0.0
        ),
        decoder_throughput_factor=(
            float(nominal / mean_iterations) if mean_iterations else None
        ),
        noc_mean_latency_cycles=(
            float(summary.noc_mean_latency_cycles)
            if summary.noc_mean_latency_cycles is not None
            else None
        ),
        noc_saturated_epochs=(
            int(summary.noc_saturated_epochs)
            if summary.noc_mean_latency_cycles is not None
            else None
        ),
    )
