"""The streaming co-simulation engine.

:class:`StreamingExperiment` drives a prepared
:class:`repro.core.experiment.ThermalExperiment` from an **iterator of epoch
windows** instead of a fixed horizon: each window goes through the same
batched machinery the whole-horizon path uses (one multi-RHS steady solve or
one ``transient_sequence`` call per window, thermal state and feedback state
carried across windows), each window's temperatures are folded into the
constant-memory :class:`repro.stream.summary.RollingSummary` (which reports
the controller's migration totals beside them), and an optional
:class:`repro.stream.checkpoint.CheckpointStore` publishes a resumable
snapshot after every window.  A window sized to the horizon *is* the batch
run — streaming is the general case, batch its special case.

Observability: every processed window runs under a ``stream.window`` span,
bumps the ``stream.windows`` / ``stream.epochs`` counters and sets the
``stream.lag_s`` gauge to the wall seconds the window took to process (the
serving lag a real-time co-simulator would accumulate).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

import numpy as np

from ..core.experiment import ThermalExperiment, WindowOutcome
from ..core.metrics import ExperimentResult
from ..obs import counter as _obs_counter
from ..obs import gauge as _obs_gauge
from ..obs import span as _obs_span
from ..scenarios.compile import (
    CompiledScenario,
    compile_scenario,
    decoder_effort,
)
from ..scenarios.noc_cost import rate_noc_latencies
from ..scenarios.spec import ScenarioSpec
from ..storage import CorruptJournalError, code_fingerprint
from ..thermal.hotspot import HotSpotModel
from .checkpoint import CheckpointStore
from .summary import RollingSummary
from .window import EpochWindow

_OBS_WINDOWS = _obs_counter("stream.windows")
_OBS_EPOCHS = _obs_counter("stream.epochs")
_OBS_LAG = _obs_gauge("stream.lag_s")


class CheckpointRestoreError(ValueError):
    """The newest checkpoint of a journal cannot resume this stream."""


class CheckpointMismatchError(CheckpointRestoreError):
    """The checkpoint journal was written by another stream (another identity)."""


@dataclass
class StreamUpdate:
    """What one processed window reports back to the consumer."""

    #: Global epoch index the window started at.
    start_epoch: int
    #: The window's batched outcome (window-local views).
    outcome: WindowOutcome
    #: Rolling-summary snapshot *after* folding this window in.
    summary: Dict[str, object]
    #: Wall seconds spent processing the window (the serving lag).
    lag_s: float
    #: Whether a checkpoint was published for this window.
    checkpointed: bool


class StreamingExperiment:
    """Consume an unbounded stream of epoch windows through one experiment.

    Parameters
    ----------
    experiment:
        The (unprepared) experiment to drive.  Windows carrying
        ``noc_rates`` are priced through its ``noc_model``, when it has one,
        into the rolling summary.
    settled_capacity:
        Settled-regime window for :meth:`ThermalExperiment.prepare`; defaults
        to ``settings.settle_epochs`` (an unbounded stream needs one of the
        two — there is no horizon to take a fraction of).
    warm_power:
        Optional transient warm-start override (see
        :meth:`ThermalExperiment.prepare`).
    checkpoint:
        Optional durable checkpoint store; when set, every processed window
        publishes a resumable snapshot and :meth:`prepare` restores the
        newest one.
    source_tag:
        Provenance string mixed into the checkpoint identity so a journal
        written by one stream is never restored into a different one.
    """

    def __init__(
        self,
        experiment: ThermalExperiment,
        *,
        settled_capacity: Optional[int] = None,
        warm_power: Optional[np.ndarray] = None,
        checkpoint: Optional[CheckpointStore] = None,
        source_tag: str = "windows",
    ):
        self.experiment = experiment
        self.summary = RollingSummary()
        self.checkpoint = checkpoint
        self._settled_capacity = settled_capacity
        self._warm_power = warm_power
        self._prepared = False
        self.identity = self._build_identity(source_tag)

    @classmethod
    def from_scenario(
        cls,
        scenario: "ScenarioSpec | CompiledScenario",
        *,
        settled_capacity: Optional[int] = None,
        warm_power: Optional[np.ndarray] = None,
        checkpoint: Optional[CheckpointStore] = None,
        thermal_model: Optional[HotSpotModel] = None,
    ) -> "StreamingExperiment":
        """Wire a streaming engine from a (compiled) scenario spec.

        The settled-regime window defaults to what the batch run of the same
        spec would use (``settings.settled_count(spec.num_epochs)``), so a
        stream capped at the spec's horizon reproduces the batch numbers.
        """
        compiled = (
            scenario
            if isinstance(scenario, CompiledScenario)
            else compile_scenario(scenario)
        )
        if settled_capacity is None:
            settled_capacity = compiled.settings.settled_count(
                compiled.spec.num_epochs
            )
        tag = hashlib.sha1(
            compiled.spec.canonical_json().encode("utf-8")
        ).hexdigest()[:12]
        return cls(
            compiled.experiment(thermal_model=thermal_model),
            settled_capacity=settled_capacity,
            warm_power=warm_power,
            checkpoint=checkpoint,
            source_tag=f"scenario:{compiled.spec.name}:{tag}",
        )

    # ------------------------------------------------------------------
    def _build_identity(self, source_tag: str) -> str:
        """Checkpoint-compatibility key: what must match to restore state.

        It starts with the code (:func:`repro.storage.code_fingerprint`): a
        checkpoint resumes only under the code that wrote it.
        """
        experiment = self.experiment
        settings = experiment.settings
        return "/".join([
            code_fingerprint(),
            experiment.configuration.name,
            experiment.policy.name,
            settings.mode,
            f"stride{settings.feedback_stride}",
            f"grid{experiment.thermal_model.resolution}",
            f"mig:{settings.migration_style}x{settings.units_per_epoch}",
            f"period{experiment.policy.period_us!r}us",
            source_tag,
        ])

    def prepare(self) -> int:
        """Arm the experiment, restoring the newest checkpoint if present.

        Returns the global epoch the stream resumes from (0 for a fresh
        run).  A journal written under another identity (scenario, policy,
        mode, thermal model, code, ...) raises
        :class:`CheckpointMismatchError` instead of silently corrupting the
        resumed stream, and one whose newest checkpoint does not restore
        :class:`CheckpointRestoreError`.
        """
        self.experiment.prepare(
            settled_capacity=self._settled_capacity,
            warm_power=self._warm_power,
            collect_records=False,
        )
        if self.checkpoint is not None:
            try:
                payload = self.checkpoint.load_latest()
                if payload is not None:
                    self._restore(payload)
            except (CheckpointRestoreError, CorruptJournalError):
                raise
            except (KeyError, TypeError, ValueError) as error:
                # A float array that does not decode, or state that does not
                # restore.
                raise CheckpointRestoreError(
                    f"{self.checkpoint.path}: newest checkpoint does not "
                    f"restore: {error}"
                ) from error
        self._prepared = True
        return self.experiment.next_epoch

    def _restore(self, payload: object) -> None:
        identity = payload.get("identity") if isinstance(payload, dict) else None
        if identity != self.identity:
            raise CheckpointMismatchError(
                "checkpoint identity mismatch: journal was written by "
                f"{identity!r}, this stream is {self.identity!r}"
            )
        self.experiment.restore_state(payload["experiment"])  # type: ignore[index]
        self.summary.restore_state(payload["summary"])  # type: ignore[index]

    # ------------------------------------------------------------------
    def process(
        self,
        windows: Iterable[EpochWindow],
        max_epochs: Optional[int] = None,
    ) -> Iterator[StreamUpdate]:
        """Drive the stream, yielding one :class:`StreamUpdate` per window.

        The iterator is consumed with one window of lookahead so the final
        window folds the settled-regime evaluation into its own batch
        (``is_last=True``) — a capped stream costs exactly as many solves as
        the batch run of the same horizon.  On a resumed stream, windows
        that carry ``start_epoch`` and fall entirely before the resume
        cursor are skipped; a window that straddles or leaps the cursor
        raises (checkpoints are per-window, so an aligned producer never
        straddles).  Windows without ``start_epoch`` are taken on faith as
        the next chunk.
        """
        if max_epochs is not None and max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if not self._prepared:
            self.prepare()
        experiment = self.experiment
        iterator = iter(windows)
        pending = next(iterator, None)
        while pending is not None:
            window = pending
            pending = next(iterator, None)
            cursor = experiment.next_epoch
            if max_epochs is not None and cursor >= max_epochs:
                break
            if window.start_epoch is not None:
                if window.start_epoch + window.num_epochs <= cursor:
                    # Already covered by the restored checkpoint: replay skip.
                    continue
                if window.start_epoch != cursor:
                    raise ValueError(
                        f"window starts at epoch {window.start_epoch} but the "
                        f"stream cursor is at {cursor}; windows must arrive "
                        "aligned and in order"
                    )
            if max_epochs is not None and cursor + window.num_epochs > max_epochs:
                window = window.head(max_epochs - cursor)
            is_last = pending is None or (
                max_epochs is not None and cursor + window.num_epochs >= max_epochs
            )
            yield self._process_window(window, cursor, is_last)

    def _process_window(
        self, window: EpochWindow, start_epoch: int, is_last: bool
    ) -> StreamUpdate:
        experiment = self.experiment
        began = time.perf_counter()
        with _obs_span(
            "stream.window", start_epoch=start_epoch, epochs=window.num_epochs
        ):
            outcome = experiment.step_window(window, is_last=is_last)
            self.summary.observe_window(outcome)
            if window.snr_schedule is not None:
                effort = decoder_effort(
                    experiment.configuration, window.snr_schedule
                )
                self.summary.observe_decoder(
                    window.num_epochs,
                    effort.mean_iterations,
                    effort.throughput_factor,
                )
            if window.noc_rates is not None and experiment.noc_model is not None:
                latencies, saturated = rate_noc_latencies(
                    experiment.noc_model, window.noc_rates
                )
                self.summary.observe_noc(latencies, saturated)
        lag_s = time.perf_counter() - began
        _OBS_WINDOWS.add()
        _OBS_EPOCHS.add(window.num_epochs)
        _OBS_LAG.set(lag_s)
        checkpointed = False
        if self.checkpoint is not None:
            self.checkpoint.save(
                {
                    "identity": self.identity,
                    "experiment": experiment.state_dict(),
                    "summary": self.summary.state_dict(),
                }
            )
            checkpointed = True
        return StreamUpdate(
            start_epoch=start_epoch,
            outcome=outcome,
            summary=self.summary.snapshot(experiment.controller),
            lag_s=lag_s,
            checkpointed=checkpointed,
        )

    # ------------------------------------------------------------------
    def finalize(self) -> ExperimentResult:
        """Close the stream and assemble the classic experiment result."""
        return self.experiment.finalize()
