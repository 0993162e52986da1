"""Constant-memory rolling metrics over an unbounded epoch stream.

:class:`RollingSummary` folds each :class:`repro.core.experiment.WindowOutcome`
into O(1) aggregate state — running peak, epoch-weighted mean, decoder-effort
and NoC-latency aggregates — so a stream of any length reports exact totals
without retaining per-epoch history.  Migration totals are the controller's
(its snapshot reports them beside its own).  The state is JSON-round-trippable
(:meth:`state_dict` / :meth:`restore_state`) so checkpointed streams resume
with identical running statistics.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.controller import RuntimeReconfigurationController
from ..core.experiment import WindowOutcome


class RollingSummary:
    """Incremental aggregates of a streamed experiment."""

    def __init__(self) -> None:
        self.windows = 0
        self.epochs = 0
        #: Highest per-epoch peak temperature seen so far (None before data).
        self.peak_celsius: Optional[float] = None
        #: Most recent epoch's peak / mean temperature.
        self.last_peak_celsius: Optional[float] = None
        self.last_mean_celsius: Optional[float] = None
        self._mean_sum = 0.0
        # Decoder effort (epoch-weighted over the windows that carried SNR).
        self._decoder_epochs = 0
        self._decoder_iterations_sum = 0.0
        self.last_throughput_factor: Optional[float] = None
        # NoC pricing (epoch-weighted over the windows that carried rates).
        self._noc_epochs = 0
        self._noc_latency_sum = 0.0
        self.noc_saturated_epochs = 0

    # ------------------------------------------------------------------
    @property
    def mean_celsius(self) -> Optional[float]:
        """Epoch-weighted running mean of the per-epoch mean temperature."""
        if self.epochs == 0:
            return None
        return self._mean_sum / self.epochs

    @property
    def decoder_mean_iterations(self) -> Optional[float]:
        if self._decoder_epochs == 0:
            return None
        return self._decoder_iterations_sum / self._decoder_epochs

    @property
    def noc_mean_latency_cycles(self) -> Optional[float]:
        if self._noc_epochs == 0:
            return None
        return self._noc_latency_sum / self._noc_epochs

    # ------------------------------------------------------------------
    def observe_window(self, outcome: WindowOutcome) -> None:
        """Fold one stepped window's temperatures in."""
        self.windows += 1
        self.epochs += outcome.num_epochs
        window_peak = float(outcome.peak_by_epoch.max())
        if self.peak_celsius is None or window_peak > self.peak_celsius:
            self.peak_celsius = window_peak
        self.last_peak_celsius = float(outcome.peak_by_epoch[-1])
        self.last_mean_celsius = float(outcome.mean_by_epoch[-1])
        self._mean_sum += float(outcome.mean_by_epoch.sum())

    def observe_decoder(
        self, num_epochs: int, mean_iterations: float, throughput_factor: float
    ) -> None:
        """Fold one window's decoder-effort estimate in (epoch-weighted)."""
        self._decoder_epochs += num_epochs
        self._decoder_iterations_sum += num_epochs * float(mean_iterations)
        self.last_throughput_factor = float(throughput_factor)

    def observe_noc(self, latencies: np.ndarray, saturated: np.ndarray) -> None:
        """Fold one window's per-epoch NoC latencies in."""
        latencies = np.asarray(latencies, dtype=float)
        self._noc_epochs += latencies.size
        self._noc_latency_sum += float(latencies.sum())
        self.noc_saturated_epochs += int(np.asarray(saturated).sum())

    # ------------------------------------------------------------------
    def snapshot(
        self, controller: RuntimeReconfigurationController
    ) -> Dict[str, object]:
        """Flat report row of the running aggregates and ``controller``'s
        migration totals (JSON-ready): a staged plan counts as one migration
        while its energy sums over every stage."""
        row: Dict[str, object] = {
            "windows": self.windows,
            "epochs": self.epochs,
            "peak_c": self.peak_celsius,
            "mean_c": self.mean_celsius,
            "last_peak_c": self.last_peak_celsius,
            "last_mean_c": self.last_mean_celsius,
            "migrations": controller.migrations_performed,
            "migration_energy_j": controller.total_migration_energy_j,
        }
        if self._decoder_epochs:
            row["decoder_mean_iterations"] = self.decoder_mean_iterations
            row["decoder_throughput_x"] = self.last_throughput_factor
        if self._noc_epochs:
            row["noc_mean_latency_cyc"] = self.noc_mean_latency_cycles
            row["noc_saturated_epochs"] = self.noc_saturated_epochs
        return row

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "windows": self.windows,
            "epochs": self.epochs,
            "peak": self.peak_celsius,
            "last_peak": self.last_peak_celsius,
            "last_mean": self.last_mean_celsius,
            "mean_sum": self._mean_sum,
            "decoder_epochs": self._decoder_epochs,
            "decoder_iterations_sum": self._decoder_iterations_sum,
            "last_throughput_factor": self.last_throughput_factor,
            "noc_epochs": self._noc_epochs,
            "noc_latency_sum": self._noc_latency_sum,
            "noc_saturated_epochs": self.noc_saturated_epochs,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`."""
        self.windows = int(state["windows"])  # type: ignore[arg-type]
        self.epochs = int(state["epochs"])  # type: ignore[arg-type]
        self.peak_celsius = state["peak"]  # type: ignore[assignment]
        self.last_peak_celsius = state["last_peak"]  # type: ignore[assignment]
        self.last_mean_celsius = state["last_mean"]  # type: ignore[assignment]
        self._mean_sum = float(state["mean_sum"])  # type: ignore[arg-type]
        self._decoder_epochs = int(state["decoder_epochs"])  # type: ignore[arg-type]
        self._decoder_iterations_sum = float(state["decoder_iterations_sum"])  # type: ignore[arg-type]
        self.last_throughput_factor = state["last_throughput_factor"]  # type: ignore[assignment]
        self._noc_epochs = int(state["noc_epochs"])  # type: ignore[arg-type]
        self._noc_latency_sum = float(state["noc_latency_sum"])  # type: ignore[arg-type]
        self.noc_saturated_epochs = int(state["noc_saturated_epochs"])  # type: ignore[arg-type]
