"""Streaming co-simulation: unbounded epoch streams over the batch pipeline.

The batch experiment is one window of the streaming lifecycle; this package
adds the pieces that make the general case usable: the window record and its
JSONL wire format (:mod:`~repro.stream.window`), window producers
(:mod:`~repro.stream.source`), constant-memory rolling metrics
(:mod:`~repro.stream.summary`), durable torn-tail-tolerant checkpoints
(:mod:`~repro.stream.checkpoint`) and the driving engine
(:mod:`~repro.stream.engine`).
"""

from .checkpoint import CheckpointStore
from .engine import (
    CheckpointMismatchError,
    CheckpointRestoreError,
    StreamingExperiment,
    StreamUpdate,
)
from .source import jsonl_windows, scenario_windows
from .summary import RollingSummary
from .window import EpochWindow

__all__ = [
    "CheckpointMismatchError",
    "CheckpointRestoreError",
    "CheckpointStore",
    "EpochWindow",
    "RollingSummary",
    "StreamUpdate",
    "StreamingExperiment",
    "jsonl_windows",
    "scenario_windows",
]
