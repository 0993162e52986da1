"""The unit of streaming work: one window of epochs and its schedules.

An :class:`EpochWindow` carries everything the experiment driver needs to
advance by ``num_epochs`` epochs: the optional load modulation (per-unit or
chip-global), the ambient-offset schedule and the channel SNR schedule,
plus the optional NoC injection rates for the pricing model and the
per-epoch migration-period multipliers.  It is the one carrier of these
channels and their one validator: the scenario compiler emits windows
(:func:`repro.scenarios.compile.compile_window`), the experiment's epoch loop
consumes them (:meth:`repro.core.experiment.ThermalExperiment.step_window`),
and they are the wire format of ``repro serve`` — one JSON object per line —
so a producer can feed an unbounded co-simulation over a pipe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..scenarios.patterns import _as_count

#: The per-epoch channel fields, in wire-format order.
CHANNELS = (
    "load_modulation",
    "ambient_offsets",
    "snr_schedule",
    "noc_rates",
    "period_scale",
)


def _as_schedule(
    values, name: str, num_epochs: int, ndims=(1,)
) -> Optional[np.ndarray]:
    """Coerce an optional per-epoch float schedule, validating it."""
    if values is None:
        return None
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numeric")
    array = array.astype(float, copy=False)
    if array.ndim not in ndims or array.shape[0] != num_epochs:
        raise ValueError(
            f"{name} must have {num_epochs} epochs, got shape {array.shape}"
        )
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


@dataclass
class EpochWindow:
    """One contiguous chunk of a (possibly unbounded) epoch stream.

    ``load_modulation`` may be chip-global ``(num_epochs,)`` — broadcast to
    every unit by the consumer — or per-unit ``(num_epochs, num_units)``.
    ``start_epoch`` is optional provenance: when set, the consumer checks it
    against its epoch cursor (resumed streams skip fully-processed windows).
    """

    num_epochs: int
    start_epoch: Optional[int] = None
    load_modulation: Optional[np.ndarray] = None
    ambient_offsets: Optional[np.ndarray] = None
    snr_schedule: Optional[np.ndarray] = None
    noc_rates: Optional[np.ndarray] = None
    period_scale: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.num_epochs = _as_count(self.num_epochs, "num_epochs")
        if self.num_epochs < 1:
            raise ValueError("a window must contain at least one epoch")
        if self.start_epoch is not None:
            self.start_epoch = _as_count(self.start_epoch, "start_epoch")
            if self.start_epoch < 0:
                raise ValueError("start_epoch must be non-negative")
        self.load_modulation = _as_schedule(
            self.load_modulation, "load_modulation", self.num_epochs, ndims=(1, 2)
        )
        if self.load_modulation is not None and (self.load_modulation < 0).any():
            raise ValueError("load_modulation must be non-negative")
        self.ambient_offsets = _as_schedule(
            self.ambient_offsets, "ambient_offsets", self.num_epochs
        )
        self.snr_schedule = _as_schedule(
            self.snr_schedule, "snr_schedule", self.num_epochs
        )
        self.noc_rates = _as_schedule(self.noc_rates, "noc_rates", self.num_epochs)
        if self.noc_rates is not None and (self.noc_rates < 0).any():
            raise ValueError("noc_rates must be non-negative")
        self.period_scale = _as_schedule(
            self.period_scale, "period_scale", self.num_epochs
        )
        if self.period_scale is not None and (self.period_scale <= 0).any():
            raise ValueError("period_scale must be positive")

    # ------------------------------------------------------------------
    def modulation_matrix(self, num_units: int) -> Optional[np.ndarray]:
        """The ``(num_epochs, num_units)`` modulation the driver consumes."""
        if self.load_modulation is None:
            return None
        values = self.load_modulation
        if values.ndim == 1:
            return np.broadcast_to(
                values[:, np.newaxis], (self.num_epochs, num_units)
            ).copy()
        if values.shape[1] != num_units:
            raise ValueError(
                f"load_modulation has {values.shape[1]} units, chip has {num_units}"
            )
        return values

    def head(self, num_epochs: int) -> "EpochWindow":
        """The first ``num_epochs`` epochs of this window (for cap trimming)."""
        if not 1 <= num_epochs <= self.num_epochs:
            raise ValueError("head() needs 1 <= num_epochs <= window size")
        if num_epochs == self.num_epochs:
            return self
        channels = {}
        for name in CHANNELS:
            values = getattr(self, name)
            if values is not None:
                channels[name] = values[:num_epochs]
        return EpochWindow(
            num_epochs=num_epochs, start_epoch=self.start_epoch, **channels
        )

    # ------------------------------------------------------------------
    # JSONL codec
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"num_epochs": self.num_epochs}
        if self.start_epoch is not None:
            record["start_epoch"] = self.start_epoch
        for name in CHANNELS:
            values = getattr(self, name)
            if values is not None:
                record[name] = values.tolist()
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "EpochWindow":
        unknown = set(record) - {"num_epochs", "start_epoch", *CHANNELS}
        if unknown:
            raise ValueError(f"unknown EpochWindow fields: {sorted(unknown)}")
        if "num_epochs" not in record:
            raise ValueError("EpochWindow record needs num_epochs")
        return cls(**record)  # type: ignore[arg-type]

    def to_json_line(self) -> str:
        """One JSONL record (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "EpochWindow":
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("an EpochWindow line must be a JSON object")
        return cls.from_dict(record)
