"""Per-epoch NoC latencies for the scenario engine's ``noc`` channel.

Scenario load patterns modulate how hard each epoch drives the chip; the
on-chip network feels that as injection-rate changes, and congested epochs
pay a latency (and hence schedule-slack) penalty.  Simulating the NoC per
epoch would put an event simulation inside the scenario loop — instead the
compiled scenario holds the closed-form :mod:`repro.noc.analytic` wormhole
model of its channel (cached process-wide by
:func:`repro.noc.analytic.analytic_model`), which is exact about routes and
calibrated against the cycle-accurate engine below saturation, and this module
prices each epoch's injection rate through it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..noc.analytic import AnalyticModel

__all__ = ["rate_noc_latencies"]


def rate_noc_latencies(
    model: AnalyticModel, rates: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Latency schedule for explicit per-epoch injection rates.

    Epochs at or past the analytic saturation rate report the latency at the
    model's last validated rate and are flagged in the second return value —
    the knee is where the scenario's communication budget breaks, which is
    exactly what reconfiguration policies need to see.
    """
    rates = np.asarray(rates, dtype=np.float64)
    saturated = rates >= model.saturation_rate
    # Evaluate each distinct (quantized) rate once; scenarios repeat epochs.
    capped = np.where(
        saturated, model.last_validated_rate, np.clip(rates, 0.0, None)
    )
    quantized = np.round(capped, 6)
    latencies = np.empty_like(quantized)
    for rate in np.unique(quantized):
        latencies[quantized == rate] = model.latency(float(rate))
    return latencies, saturated
