"""Per-epoch NoC communication-cost probes for the scenario engine.

Scenario load patterns modulate how hard each epoch drives the chip; the
on-chip network feels that as injection-rate changes, and congested epochs
pay a latency (and hence schedule-slack) penalty.  Simulating the NoC per
epoch would put an event simulation inside the scenario loop — instead this
module prices epochs with the closed-form
:mod:`repro.noc.analytic` wormhole model, which is exact about routes and
validated against the vector engine below saturation.

The expensive part of the analytic model — walking every source/destination
route and accumulating channel loads — depends only on (mesh, pattern,
routing, packet size), not on the rate, so built models are cached
process-wide under the same lock discipline as the decoder-effort probes in
:mod:`repro.scenarios.compile`: a global lock guards the dicts, a
short-lived per-key lock serializes threads building the *same* model, and
distinct keys build in parallel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..noc.analytic import AnalyticPoint, _AnalyticModel
from ..noc.topology import MeshTopology

__all__ = [
    "NocCostModel",
    "epoch_noc_latencies",
    "noc_cost_probe",
    "rate_noc_latencies",
]

#: (width, height, pattern, routing, packet size, pattern-kwarg items)
#: -> built analytic model.  See the module docstring for the locking.
_MODEL_CACHE: Dict[Tuple, _AnalyticModel] = {}
_MODEL_KEY_LOCKS: Dict[Tuple, threading.Lock] = {}
_MODEL_CACHE_LOCK = threading.Lock()


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _model_key(
    width: int,
    height: int,
    pattern: str,
    routing: str,
    packet_size_flits: int,
    pattern_kwargs: dict,
) -> Tuple:
    frozen = tuple(
        (name, _freeze(value)) for name, value in sorted(pattern_kwargs.items())
    )
    return (width, height, pattern, routing, packet_size_flits, frozen)


def _get_model(
    width: int,
    height: int,
    pattern: str,
    routing: str,
    packet_size_flits: int,
    pattern_kwargs: dict,
) -> _AnalyticModel:
    key = _model_key(width, height, pattern, routing, packet_size_flits, pattern_kwargs)
    with _MODEL_CACHE_LOCK:
        cached = _MODEL_CACHE.get(key)
        if cached is not None:
            return cached
        key_lock = _MODEL_KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _MODEL_CACHE_LOCK:
            cached = _MODEL_CACHE.get(key)
        if cached is not None:
            return cached
        kwargs = dict(pattern_kwargs)
        if "hotspots" in kwargs:
            kwargs["hotspots"] = [tuple(spot) for spot in kwargs["hotspots"]]
        model = _AnalyticModel(
            MeshTopology(width, height),
            pattern,
            packet_size_flits,
            routing,
            **kwargs,
        )
        with _MODEL_CACHE_LOCK:
            _MODEL_CACHE[key] = model
            _MODEL_KEY_LOCKS.pop(key, None)
        return model


def noc_cost_probe(
    width: int,
    height: int,
    pattern: str,
    injection_rate: float,
    *,
    packet_size_flits: int = 4,
    routing: str = "xy",
    **pattern_kwargs,
) -> AnalyticPoint:
    """Cached closed-form latency estimate for one mesh/pattern/rate.

    The first call for a (mesh, pattern, routing, packet size) builds and
    caches the channel-load model; every further rate evaluates in a few
    array operations.
    """
    model = _get_model(
        width, height, pattern, routing, packet_size_flits, pattern_kwargs
    )
    return model.evaluate(float(injection_rate))


@dataclass
class NocCostModel:
    """NoC pricing configuration a scenario binds once and reuses per epoch."""

    width: int
    height: int
    pattern: str = "uniform"
    base_injection_rate: float = 0.05
    packet_size_flits: int = 4
    routing: str = "xy"
    pattern_kwargs: dict = field(default_factory=dict)

    def _model(self) -> _AnalyticModel:
        return _get_model(
            self.width,
            self.height,
            self.pattern,
            self.routing,
            self.packet_size_flits,
            self.pattern_kwargs,
        )

    @property
    def saturation_rate(self) -> float:
        return self._model().saturation_rate

    @property
    def zero_load_latency(self) -> float:
        """Mean latency at vanishing load (``probe(0.0).avg_latency``)."""
        return self._model().zero_load_latency

    def probe(self, injection_rate: float) -> AnalyticPoint:
        return self._model().evaluate(float(injection_rate))


def epoch_noc_latencies(
    model: NocCostModel,
    load_modulation: Optional[np.ndarray],
    num_epochs: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-epoch average NoC latency under a scenario's load modulation.

    ``load_modulation`` is the compiled scenario's ``(epochs, units)``
    multiplier matrix (or ``None`` for a flat scenario, in which case
    ``num_epochs`` sizes the output).  Each epoch's mean modulation scales
    the model's base injection rate; epochs pushed past the analytic
    saturation rate report the latency *at* saturation and are flagged in
    the second return value — the knee is where the scenario's communication
    budget breaks, which is exactly what reconfiguration policies need to
    see.
    """
    if load_modulation is None:
        if num_epochs is None:
            raise ValueError("num_epochs is required when load_modulation is None")
        factors = np.ones(num_epochs, dtype=np.float64)
    else:
        modulation = np.asarray(load_modulation, dtype=np.float64)
        factors = modulation.mean(axis=1) if modulation.ndim == 2 else modulation
    rates = np.clip(factors, 0.0, None) * model.base_injection_rate
    return rate_noc_latencies(model, rates)


def rate_noc_latencies(
    model: NocCostModel, rates: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Latency schedule for explicit per-epoch injection rates.

    The pricing core shared by :func:`epoch_noc_latencies` (rates derived
    from a load modulation) and the scenario engine's ``noc`` channel
    (rates from an injection-rate pattern).  Epochs at or past the analytic
    saturation rate report the latency *at* saturation and are flagged in
    the second return value.
    """
    rates = np.asarray(rates, dtype=np.float64)
    sat = model.saturation_rate
    saturated = rates >= sat
    # Evaluate each distinct (quantized) rate once; scenarios repeat epochs.
    capped = np.where(saturated, np.nextafter(sat, 0.0), np.clip(rates, 0.0, None))
    quantized = np.round(capped, 6)
    latencies = np.empty_like(quantized)
    for rate in np.unique(quantized):
        latencies[quantized == rate] = model.probe(float(rate)).avg_latency
    return latencies, saturated
