"""Durable checkpoints for streamed experiments.

A :class:`CheckpointStore` appends one JSON checkpoint per line to
``checkpoints.jsonl`` inside its directory, fsyncing each append so a
published checkpoint survives the process dying right after it.  A line is
:func:`encode_checkpoint` of the payload: JSON in which every float64 array
is written as exact binary, ``{"f64": <base64 of its little-endian float64
bytes>, "shape": [...]}``; :func:`decode_checkpoint` turns each such object
back into a read-only array and refuses one whose bytes do not fill its
shape.

The failure mode of an append-only journal is a **torn tail** — the
process died mid-line — and the store reads its journal by the rule the
campaign manifest shares (:func:`repro.storage.read_journal`): the bytes
after the last newline are truncated away on resume (the stream replays from
the previous good checkpoint); a malformed line before them means external
corruption and raises :class:`~repro.storage.CorruptJournalError`.  Compaction (keeping
only the newest checkpoints once the journal grows past ``max_entries``)
rewrites through a temp file published with ``os.replace`` — readers never
observe a partially-compacted journal.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import tempfile
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Optional

import numpy as np

from ..storage import read_journal, truncate_torn_tail

#: Journal file name inside the checkpoint directory.
CHECKPOINT_JOURNAL = "checkpoints.jsonl"


_FLOAT64 = np.dtype(np.float64)
_LITTLE_ENDIAN_FLOAT64 = np.dtype("<f8")


def _encode_array(value: object) -> Dict[str, object]:
    """The JSON object of a float64 array (the encoder's ``default``)."""
    if not (isinstance(value, np.ndarray) and value.dtype == _FLOAT64):
        kind = (
            f"a {value.dtype} array"
            if isinstance(value, np.ndarray)
            else type(value).__name__
        )
        raise TypeError(f"a checkpoint holds JSON values and float64 arrays, not {kind}")
    data = value.astype(_LITTLE_ENDIAN_FLOAT64, copy=False).tobytes()
    return {
        "f64": binascii.b2a_base64(data, newline=False).decode("ascii"),
        "shape": list(value.shape),
    }


def _decode_object(entry: Dict[str, object]) -> object:
    """``json.loads``'s ``object_hook``: an encoded array becomes the array."""
    if "f64" not in entry:
        return entry
    data, shape = entry["f64"], entry.get("shape")
    if (
        len(entry) != 2
        or not isinstance(data, str)
        or not isinstance(shape, list)
        or not all(type(size) is int and size >= 0 for size in shape)
    ):
        raise ValueError("malformed float array in checkpoint")
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except binascii.Error as error:
        raise ValueError(f"float array in checkpoint is not base64: {error}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(
            f"float array of shape {tuple(shape)} in checkpoint holds {len(raw)} "
            f"bytes, not {expected}"
        )
    return np.frombuffer(raw, dtype=_LITTLE_ENDIAN_FLOAT64).reshape(shape)


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_encode_array)


def encode_checkpoint(payload: Dict[str, object]) -> bytes:
    """One journal line (newline included): ``payload`` as compact JSON,
    every float64 array in it written as exact binary."""
    return (_ENCODER.encode(payload) + "\n").encode("utf-8")


def decode_checkpoint(line: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_checkpoint`: encoded arrays come back as
    read-only float64 arrays, bit for bit.  Raises ``ValueError`` for a line
    that is not JSON or an array whose bytes do not fill its shape."""
    return json.loads(line, object_hook=_decode_object)


class CheckpointStore:
    """Append-only, crash-tolerant checkpoint journal.

    Parameters
    ----------
    directory:
        Where the journal lives; created on first use.
    keep:
        Checkpoints retained by a compaction.
    max_entries:
        Journal length past which a save compacts.

    The store assumes it is the journal's **single writer**.  It reads and
    repairs the journal once, on first use, then keeps the entry count, the
    newest ``keep`` encoded lines and the journal's size in memory: a save
    is one append and a compaction rewrites those lines.  A journal whose
    size is not the one the store left (a torn tail from a writer that
    died) is re-read and repaired before the next append.
    """

    def __init__(self, directory, keep: int = 4, max_entries: int = 64):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        if max_entries < keep:
            raise ValueError("max_entries must be at least keep")
        self.directory = Path(directory)
        self._path = self.directory / CHECKPOINT_JOURNAL
        self.keep = keep
        self.max_entries = max_entries
        self._tail: Deque[bytes] = deque(maxlen=keep)
        self._entries = 0
        #: Journal bytes as this store left them; None until it is opened.
        self._size: Optional[int] = None

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    def repair(self) -> bool:
        """(Re-)open the journal, truncating a torn final line; True if one was cut.

        Safe to call any time: a journal whose last byte is a newline is
        left untouched.
        """
        journal = truncate_torn_tail(self.path)
        self._tail = deque(journal.lines, maxlen=self.keep)
        self._entries = len(journal.lines)
        self._size = journal.intact
        return journal.torn > 0

    # ------------------------------------------------------------------
    def save(self, payload: Dict[str, object]) -> None:
        """Append one checkpoint, durably; compacts past ``max_entries``."""
        line = encode_checkpoint(payload)
        if self._size != self._disk_size():
            self.repair()
        if self._size == 0:
            self.directory.mkdir(parents=True, exist_ok=True)
        with open(self._path, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._size += len(line)
        self._entries += 1
        self._tail.append(line)
        if self._entries > self.max_entries:
            self._compact()

    def _disk_size(self) -> int:
        try:
            return os.stat(self._path).st_size
        except FileNotFoundError:
            return 0

    def _compact(self) -> None:
        """Atomically rewrite the journal as its newest ``keep`` entries."""
        descriptor, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".checkpoints-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.writelines(self._tail)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._entries = len(self._tail)
        self._size = sum(len(line) for line in self._tail)

    # ------------------------------------------------------------------
    def load_latest(self) -> Optional[Dict[str, object]]:
        """The newest intact checkpoint, or None for a fresh run.

        Opens (and repairs) the journal if this store has not yet.  Raises
        ``ValueError`` for an array that does not decode.
        """
        if self._size is None:
            self.repair()
        return decode_checkpoint(self._tail[-1]) if self._tail else None
