"""Compile declarative scenarios onto the batched epoch pipeline.

:func:`compile_scenario` turns a :class:`repro.scenarios.spec.ScenarioSpec`
into one :class:`repro.stream.window.EpochWindow` over the whole horizon: the
``(num_epochs, num_units)`` **load modulation** of the controller's power
rows, the ``(num_epochs,)`` **ambient offset**, **SNR**, NoC-rate and period
schedules.  :func:`compile_window` evaluates the same channels over any
``[start, end)`` window through the patterns' cursors, so a stream never
materialises the horizon.  :func:`run_scenario` threads the window through
:class:`repro.core.experiment.ThermalExperiment` — the modulation scales each
epoch's power row as it is emitted, and the ambient schedule is exact in
*both* modes: steady mode adds the offsets after its one multi-RHS solve
(a uniform ambient shift moves every steady temperature equally), transient
mode integrates them as a per-interval affine boundary term inside its one
``transient_sequence`` call.  Scenario diversity is nearly free at run time:
the thermal work per scenario is identical to the plain experiment's.

The decoder-effort coupling: an SNR schedule maps to per-epoch mean decoder
iterations (measured by actually decoding a small batch of codewords through
the configuration's own LDPC code at each distinct quantized SNR, cached
process-wide), which the report surfaces as a throughput factor relative to
the workload's nominal iterations-per-block budget.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..chips.configurations import ChipConfiguration, get_configuration
from ..core.experiment import ExperimentSettings, ThermalExperiment
from ..core.metrics import ExperimentResult
from ..core.policy import ReconfigurationPolicy, make_policy
from ..ldpc import BpskAwgnChannel, LdpcEncoder, make_decoder
from ..noc.analytic import AnalyticModel, analytic_model
from ..obs import counter as _obs_counter
from ..obs import get_registry as _obs_registry
from ..obs import span as _obs_span
from ..thermal.hotspot import HotSpotModel
from .noc_cost import rate_noc_latencies
from .spec import ScenarioSpec

if TYPE_CHECKING:
    from ..stream.window import EpochWindow

#: SNR schedules are quantized to this grid (dB) before the decoder-effort
#: measurement, so a smooth drift costs a handful of decode batches, not one
#: per epoch.
SNR_QUANTUM_DB = 0.25

#: Codewords decoded per distinct SNR value for the effort estimate.
DECODER_PROBE_BLOCKS = 24

#: Decoder iteration cap for the effort estimate.
DECODER_PROBE_MAX_ITERATIONS = 25


@dataclass
class CompiledScenario:
    """A spec resolved against a real chip: policy, settings and channels."""

    spec: ScenarioSpec
    configuration: ChipConfiguration
    policy: ReconfigurationPolicy
    settings: ExperimentSettings
    #: The whole horizon's per-epoch channels, load modulation broadcast to
    #: ``(num_epochs, num_units)``; a channel the spec leaves undriven is None.
    window: EpochWindow
    #: The cached analytic model of the spec's ``noc`` channel, or None:
    #: it prices the channel's latencies and congestion-prices staged
    #: migration stages.
    noc_model: Optional[AnalyticModel] = None

    def experiment(self, thermal_model: Optional[HotSpotModel] = None) -> ThermalExperiment:
        """The fully-wired experiment this scenario compiles to."""
        return ThermalExperiment(
            self.configuration,
            self.policy,
            settings=self.settings,
            thermal_model=thermal_model,
            schedule=self.window,
            noc_model=self.noc_model,
        )

    @property
    def uses_thermal_feedback(self) -> bool:
        """Whether the compiled policy reads feedback temperatures."""
        return bool(getattr(self.policy, "requires_thermal_feedback", False))

    def expected_steady_solves(self, windows: Optional[int] = None) -> int:
        """Steady solves one run of this scenario performs — the test guard.

        Feedback-free scenarios cost one batched solve in steady mode and
        two (baseline + warm start) in transient mode.  Feedback policies
        add ``ceil(num_epochs / feedback_stride)`` chunked feedback batches
        on top — never a per-epoch solve.

        ``windows`` is the streamed evaluation of the same horizon split
        into that many windows: steady mode costs one batched solve *per
        window* (the baseline rides the first window's batch and the
        settled average the last's), transient mode still costs exactly the
        two fixed steady solves (the per-window work is ``transient_sequence``
        calls), and the feedback budget is windowing-invariant because the
        refresh cadence follows global epoch indices.
        """
        if windows is None:
            solves = 1 if self.spec.mode == "steady" else 2
        elif windows < 1:
            raise ValueError("windows must be at least 1")
        else:
            solves = windows if self.spec.mode == "steady" else 2
        if self.uses_thermal_feedback:
            solves += -(-self.spec.num_epochs // self.spec.feedback_stride)
        return solves


@dataclass
class DecoderEffort:
    """Decoder-side summary of a scenario's SNR schedule."""

    #: Mean decoder iterations per block over the horizon.
    mean_iterations: float
    #: Fraction of probed blocks that converged to a codeword.
    success_rate: float
    #: Nominal iterations-per-block budget divided by the mean iterations:
    #: >1 means the channel lets the decoder finish early (headroom), <1
    #: means blocks overrun the budget and decoding throughput drops.
    throughput_factor: float


@dataclass
class NocSummary:
    """NoC-side summary of a scenario's offered traffic schedule."""

    #: Mean / worst per-epoch average packet latency over the horizon
    #: (cycles, from the analytic wormhole model).
    mean_latency_cycles: float
    peak_latency_cycles: float
    #: Epochs whose injection rate met or exceeded the analytic saturation
    #: rate — where the communication budget breaks.
    saturated_epochs: int
    #: The model's saturation rate and the schedule's worst offered rate
    #: (flits/node/cycle), so reports can show the headroom.
    saturation_rate: float
    peak_injection_rate: float


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (experiment result + scenario context)."""

    spec: ScenarioSpec
    experiment: ExperimentResult
    ambient_offset_min_celsius: float
    ambient_offset_max_celsius: float
    decoder: Optional[DecoderEffort]
    noc: Optional[NocSummary] = None
    #: Per-run counter/timer deltas (``TelemetryScope.to_dict()``), attached
    #: only while telemetry is enabled.
    telemetry: Optional[Dict[str, object]] = None

    def to_row(self) -> Dict[str, object]:
        """Flat comparison-table row."""
        result = self.experiment
        row: Dict[str, object] = {
            "scenario": self.spec.name,
            "config": self.spec.configuration,
            "scheme": self.spec.scheme,
            "mode": self.spec.mode,
            "settled_peak_c": round(result.settled_peak_celsius, 2),
            "reduction_c": round(result.peak_reduction_celsius, 2),
            "migrations": result.migrations_performed,
            "throughput_penalty_pct": round(100 * result.throughput_penalty, 3),
            "ambient_span_c": round(
                self.ambient_offset_max_celsius - self.ambient_offset_min_celsius, 2
            ),
            "decoder_throughput_x": (
                round(float(self.decoder.throughput_factor), 3) if self.decoder else "-"
            ),
            "noc_latency_cyc": (
                round(self.noc.mean_latency_cycles, 1) if self.noc else "-"
            ),
        }
        return row


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _epoch_duration_s(spec: ScenarioSpec) -> float:
    """Wall-clock seconds per epoch — what binds wall-clock pattern axes."""
    return spec.period_us * 1e-6


def _channel_window(
    spec: ScenarioSpec,
    configuration: ChipConfiguration,
    start_epoch: int,
    end_epoch: int,
    whole_horizon: bool = False,
) -> EpochWindow:
    """Evaluate every channel pattern of ``spec`` over ``[start_epoch, end_epoch)``.

    The one channel evaluator behind :func:`compile_scenario` and
    :func:`compile_window`; the returned window validates the channels.
    ``whole_horizon`` evaluates ``[0, end_epoch)`` with
    :meth:`Pattern.evaluate`, so patterns that need the horizon (an
    open-ended ramp) see it; otherwise the :meth:`Pattern.evaluate_window`
    cursor evaluates the window without materialising its prefix.
    """
    # Imported here because the repro.stream package imports this module.
    from ..stream.window import EpochWindow

    duration_s = _epoch_duration_s(spec)
    topology = configuration.topology
    num_epochs = end_epoch - start_epoch

    def evaluate(pattern, spatial_topology=None) -> Optional[np.ndarray]:
        if pattern is None:
            return None
        bound = pattern.bind_time(duration_s)
        if whole_horizon:
            values = bound.evaluate(end_epoch, spatial_topology)
        else:
            values = bound.evaluate_window(start_epoch, end_epoch, spatial_topology)
        return np.asarray(values, dtype=float)

    load = evaluate(spec.load, topology)
    if load is not None and load.ndim == 1:
        load = np.broadcast_to(
            load[:, np.newaxis], (num_epochs, topology.num_nodes)
        ).copy()
    noc_rates: Optional[np.ndarray] = None
    if spec.noc is not None:
        factors = evaluate(spec.noc.rate_pattern)
        if factors is None:
            # No explicit rate schedule: the network tracks the compute
            # load, each epoch's mean modulation scaling the base rate.
            factors = load.mean(axis=1) if load is not None else np.ones(num_epochs)
        noc_rates = np.clip(factors, 0.0, None) * spec.noc.injection_rate
    return EpochWindow(
        num_epochs=num_epochs,
        start_epoch=start_epoch,
        load_modulation=load,
        ambient_offsets=evaluate(spec.ambient_celsius),
        snr_schedule=evaluate(spec.snr_db),
        noc_rates=noc_rates,
        period_scale=evaluate(spec.period),
    )


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Resolve a spec against its chip and evaluate every pattern.

    A ``noc`` channel resolves to its cached analytic model here, so a
    channel the model rejects (unknown routing or traffic argument, a
    hotspot off the mesh) raises ``ValueError`` before anything runs.
    """
    configuration = get_configuration(spec.configuration)
    policy = make_policy(
        spec.scheme,
        configuration.topology,
        period_us=spec.period_us,
        **(spec.policy_params or {}),
    )
    settings = ExperimentSettings(
        num_epochs=spec.num_epochs,
        mode=spec.mode,
        settle_epochs=spec.settle_epochs,
        include_migration_energy=spec.include_migration_energy,
        transient_steps_per_epoch=spec.transient_steps_per_epoch,
        feedback_stride=spec.feedback_stride,
        feedback_predictor=spec.feedback_predictor,
        migration_style=spec.migration_style,
        units_per_epoch=spec.units_per_epoch,
    )
    noc_model: Optional[AnalyticModel] = None
    if spec.noc is not None:
        channel = spec.noc
        noc_model = analytic_model(
            configuration.topology,
            channel.traffic,
            packet_size_flits=channel.packet_size_flits,
            routing=channel.routing,
            **(channel.traffic_kwargs or {}),
        )
    return CompiledScenario(
        spec=spec,
        configuration=configuration,
        policy=policy,
        settings=settings,
        window=_channel_window(
            spec, configuration, 0, spec.num_epochs, whole_horizon=True
        ),
        noc_model=noc_model,
    )


def compile_window(
    compiled: CompiledScenario, start_epoch: int, end_epoch: int
) -> EpochWindow:
    """Evaluate a compiled scenario's patterns over ``[start_epoch, end_epoch)``.

    The patterns are evaluated lazily via their window cursors, so a stream
    can walk epochs far beyond ``spec.num_epochs`` without ever
    materialising a whole-horizon array — and inside the horizon the
    channels are exactly the slices of :attr:`CompiledScenario.window`.
    """
    return _channel_window(
        compiled.spec, compiled.configuration, start_epoch, end_epoch
    )


# ----------------------------------------------------------------------
# Decoder-effort estimation
# ----------------------------------------------------------------------
#: (parity-matrix digest, quantized SNR) -> (mean iterations, success rate).
#: Keyed by the code itself, not the configuration name, so custom chip
#: variants are probed correctly and identical codes share probes.  The cache
#: is process-wide, so callers running scenarios on several threads probe it
#: concurrently: :data:`_PROBE_CACHE_LOCK` guards the dicts themselves, and a
#: short-lived per-key lock in :data:`_PROBE_KEY_LOCKS` serializes threads
#: asking for the *same* (code, SNR) — distinct keys still probe in parallel
#: (the numpy-heavy decode releases the GIL).
_PROBE_CACHE: Dict[Tuple[str, float], Tuple[float, float]] = {}
_PROBE_KEY_LOCKS: Dict[Tuple[str, float], threading.Lock] = {}
_PROBE_CACHE_LOCK = threading.Lock()

# Probe-cache telemetry: a "hit" is any lookup the cache satisfied (including
# threads that waited on a concurrent prober), a "miss" runs a decode batch.
_OBS_PROBE_HITS = _obs_counter("scenario.probe_hits")
_OBS_PROBE_MISSES = _obs_counter("scenario.probe_misses")
_OBS_SCENARIOS = _obs_counter("scenario.runs")


def _decode_probe(graph, code_digest: str, snr_q: float) -> Tuple[float, float]:
    """(mean iterations, success rate) of one LDPC code at one SNR.

    Decodes :data:`DECODER_PROBE_BLOCKS` random codewords through the
    batched decoder; cached process-wide so drifting schedules and whole
    scenario suites share probes.  Concurrent threads asking for the same
    (code, SNR) block on that key's lock and find the cache filled, so a
    probe batch never runs twice and cache writes never tear; threads
    probing different keys proceed concurrently.
    """
    key = (code_digest, snr_q)
    with _PROBE_CACHE_LOCK:
        cached = _PROBE_CACHE.get(key)
        if cached is not None:
            _OBS_PROBE_HITS.add()
            return cached
        key_lock = _PROBE_KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _PROBE_CACHE_LOCK:
            cached = _PROBE_CACHE.get(key)
        if cached is not None:
            _OBS_PROBE_HITS.add()
            return cached
        _OBS_PROBE_MISSES.add()
        with _obs_span("scenario.decode_probe", snr_db=snr_q):
            encoder = LdpcEncoder(graph.H)
            channel = BpskAwgnChannel(snr_db=snr_q, rate=encoder.rate, seed=97)
            codewords = [
                encoder.random_codeword(seed=seed)
                for seed in range(DECODER_PROBE_BLOCKS)
            ]
            llrs = np.stack([channel.transmit_llr(word) for word in codewords])
            decoder = make_decoder(
                "min-sum", graph, max_iterations=DECODER_PROBE_MAX_ITERATIONS
            )
            result = decoder.decode_batch(llrs)
        outcome = (float(result.iterations.mean()), float(result.success.mean()))
        with _PROBE_CACHE_LOCK:
            _PROBE_CACHE[key] = outcome
            # Late arrivals hit the cache before ever looking the lock up.
            _PROBE_KEY_LOCKS.pop(key, None)
        return outcome


def decoder_effort(
    configuration: ChipConfiguration, snr_schedule: np.ndarray
) -> DecoderEffort:
    """Per-horizon decoder effort under a per-epoch SNR schedule."""
    schedule = np.asarray(snr_schedule, dtype=float)
    if schedule.size == 0:
        raise ValueError("decoder_effort needs a non-empty SNR schedule")
    graph = configuration.workload.partition.graph
    code_digest = hashlib.sha1(
        np.ascontiguousarray(graph.H, dtype=np.uint8).tobytes()
    ).hexdigest()
    # Round-half-up, not np.round: banker's rounding sends half-quantum
    # boundaries (0.125 dB at the 0.25 dB grid) to the *even* neighbour, so
    # adjacent boundary values bucket inconsistently (0.125 -> 0.0 but
    # 0.375 -> 0.5).  floor(x/q + 0.5) quantizes every boundary the same way.
    quantized = np.floor(schedule / SNR_QUANTUM_DB + 0.5)
    values, counts = np.unique(quantized, return_counts=True)
    iterations = 0.0
    successes = 0.0
    for value, count in zip(values, counts):
        mean_iters, success = _decode_probe(
            graph, code_digest, float(value) * SNR_QUANTUM_DB
        )
        iterations += count * mean_iters
        successes += count * success
    mean_iterations = iterations / len(quantized)
    nominal = configuration.workload.parameters.iterations_per_block
    return DecoderEffort(
        mean_iterations=mean_iterations,
        success_rate=successes / len(quantized),
        throughput_factor=nominal / mean_iterations,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: "ScenarioSpec | CompiledScenario",
    thermal_model: Optional[HotSpotModel] = None,
) -> ScenarioResult:
    """Compile (if needed) and run one scenario end to end."""
    compiled = (
        scenario if isinstance(scenario, CompiledScenario) else compile_scenario(scenario)
    )
    registry = _obs_registry()
    scope_ctx = registry.scoped() if registry.enabled else None
    task_scope = None
    with _obs_span("scenario.run", scenario=compiled.spec.name):
        if scope_ctx is not None:
            task_scope = scope_ctx.__enter__()
        try:
            _OBS_SCENARIOS.add()
            result = compiled.experiment(thermal_model=thermal_model).run()

            window = compiled.window
            offsets = window.ambient_offsets
            effort = (
                decoder_effort(compiled.configuration, window.snr_schedule)
                if window.snr_schedule is not None
                else None
            )
            noc_summary: Optional[NocSummary] = None
            if compiled.noc_model is not None and window.noc_rates is not None:
                latencies, saturated = rate_noc_latencies(
                    compiled.noc_model, window.noc_rates
                )
                noc_summary = NocSummary(
                    mean_latency_cycles=float(latencies.mean()),
                    peak_latency_cycles=float(latencies.max()),
                    saturated_epochs=int(saturated.sum()),
                    saturation_rate=compiled.noc_model.saturation_rate,
                    peak_injection_rate=float(window.noc_rates.max()),
                )
        finally:
            if scope_ctx is not None:
                scope_ctx.__exit__(None, None, None)
    return ScenarioResult(
        spec=compiled.spec,
        experiment=result,
        ambient_offset_min_celsius=float(offsets.min()) if offsets is not None else 0.0,
        ambient_offset_max_celsius=float(offsets.max()) if offsets is not None else 0.0,
        decoder=effort,
        noc=noc_summary,
        telemetry=task_scope.to_dict() if task_scope is not None else None,
    )
