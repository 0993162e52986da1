"""On-disk JSON: journals read by one rule, files published whole, code named.

The campaign manifest (:mod:`repro.campaign.manifest`), the served-stream
checkpoints (:mod:`repro.stream.checkpoint`) and the campaign cache's packs
(:mod:`repro.campaign.cache`) are JSON-lines journals with one reader,
:func:`read_journal`.  A writer killed mid-append leaves bytes after the
journal's last newline: that torn tail is not an entry, and a resuming
writer cuts it off (:func:`truncate_torn_tail`) before it appends.  A
malformed line that does end in a newline was damaged by something other
than a kill, and raises :class:`CorruptJournalError`.  A cache pack is read
with ``skip_malformed``: a campaign directory's journal is the record, so
a malformed pack line is only a miss.

Campaign specs and reports are written by :func:`publish_text`: a
temporary file in the target's directory renamed over the target, so a
reader or a kill sees the old file or the new one, never a torn one.  It
does not fsync: that guards against a killed process, not a power loss.

Campaign cache keys and served-stream checkpoint identities name the code
that wrote them (:func:`code_fingerprint`), so other code never reads them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional


class CorruptJournalError(ValueError):
    """A newline-terminated journal line does not parse."""


class Journal(NamedTuple):
    """The intact part of a journal file."""

    #: Each intact line, newline included (blank lines left out).
    lines: List[bytes]
    #: The parsed lines, in order.
    entries: List[Any]
    #: Bytes up to and including the last newline.
    intact: int
    #: Bytes after the last newline (0 when the file ends in one).
    torn: int


def read_journal(path: Path, *, skip_malformed: bool = False) -> Journal:
    """The journal at ``path``; a missing file is an empty journal.

    Raises :class:`CorruptJournalError` naming the first malformed
    newline-terminated line, or, with ``skip_malformed``, leaves each such
    line out.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return Journal([], [], 0, 0)
    *complete, tail = data.split(b"\n")
    lines: List[bytes] = []
    entries: List[Any] = []
    for index, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            if skip_malformed:
                continue
            raise CorruptJournalError(
                f"corrupt journal line {index + 1} in {path}: malformed but not "
                "the final (torn-tail) line"
            ) from None
        lines.append(line + b"\n")
    return Journal(lines, entries, len(data) - len(tail), len(tail))


def truncate_torn_tail(path: Path) -> Journal:
    """:func:`read_journal`, then cut the torn tail off the file.

    A writer calls this before its first append: an entry appended after a
    torn tail would be glued onto the fragment, and the kill's artefact
    would become a malformed interior line.
    """
    journal = read_journal(path)
    if journal.torn:
        with open(path, "r+b") as handle:
            handle.truncate(journal.intact)
    return journal


def publish_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a renamed temporary file."""
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except FileNotFoundError:
            pass
        raise


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


#: root -> fingerprint hex digest; sources don't change under a running
#: process, so the package is hashed once.
_FINGERPRINT_CACHE: Dict[str, str] = {}
_FINGERPRINT_LOCK = threading.Lock()


def code_fingerprint(root: Optional[Path] = None) -> str:
    """SHA-256 over every ``.py`` source of the package, plus numpy's version.

    Files are hashed in sorted relative-path order with their paths mixed in,
    so renames, additions and deletions all change the fingerprint, and the
    digest is independent of filesystem iteration order.
    """
    import numpy

    # Only the installed package root is memoized: its sources cannot change
    # under a running process.  Explicit roots (tests fingerprinting mutable
    # source trees) are re-hashed every call.
    memoize = root is None
    base = _package_root() if root is None else Path(root)
    key = str(base)
    if memoize:
        with _FINGERPRINT_LOCK:
            cached = _FINGERPRINT_CACHE.get(key)
        if cached is not None:
            return cached
    digest = hashlib.sha256(f"numpy {numpy.__version__}".encode("utf-8"))
    for source in sorted(base.rglob("*.py")):
        rel = source.relative_to(base).as_posix()
        digest.update(b"\x00")
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.read_bytes())
    fingerprint = digest.hexdigest()
    if memoize:
        with _FINGERPRINT_LOCK:
            _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint
