"""Content-addressed result cache for campaign jobs.

A job's cache key binds **what runs** to **the code that runs it**:

``sha256(canonical spec JSON + "\\n" + code fingerprint)``

The spec side is :meth:`repro.scenarios.spec.ScenarioSpec.canonical_json` —
sorted keys, no whitespace, repr-exact floats — so the same derived spec
hashes identically in every process on every platform.  The code side is a
fingerprint of every ``.py`` source of the ``repro`` package plus the numpy
version (:func:`repro.storage.code_fingerprint`, which also names the code
in a served stream's checkpoint identity).  A job's evaluation reaches well
beyond its own channels (a plain scenario imports the NoC and LDPC stacks,
and the campaign package itself distils the result), so any edit to the
package invalidates every cached result: sound beats minimal.

The cache itself is a directory of append-only JSON-lines **packs**, one
per writing run, under ``<root>/<code fingerprint>/``; each line is
``{"key": ..., "result": ...}``.  Every key commits to the fingerprint, so
a run reads only the packs that can hit.  It reads them once, on its first
:meth:`ResultCache.get`, with the journals' reader
(:func:`repro.storage.read_journal`): the bytes after a pack's last newline
are a write a kill interrupted, not an entry, and a malformed line is a
miss.  A run creates its pack on its first :meth:`ResultCache.put` and
flushes every line as it lands, so campaigns that share a root never
interleave or tear each other's lines, and a kill loses at most the
in-flight entry.  No pack is appended to by a later run, so none needs
repair.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, TextIO

from ..scenarios.spec import ScenarioSpec
from ..storage import code_fingerprint, read_journal


def job_cache_key(
    spec: ScenarioSpec, fingerprint: str, variant: Optional[str] = None
) -> str:
    """Content-addressed key of one job: spec identity x code identity.

    ``variant`` distinguishes evaluation modes of the same spec that can
    produce different payloads — e.g. ``"stream:w8"`` for a streamed job
    driven in 8-epoch windows — so batch and streamed results never share an
    entry.  ``None`` (the batch path) keeps historical keys unchanged.
    """
    payload = spec.canonical_json() + "\n" + fingerprint
    if variant is not None:
        payload += "\n" + variant
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Pack-backed content-addressed store of job-result payloads.

    Entries are immutable by construction — the key commits to both the spec
    and the code, so a stored payload is never rewritten with different
    content.  ``get`` is a lookup in the packs read on its first call, and
    ``put`` one append to this instance's own pack, which :meth:`close`
    closes.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        #: The packs written under the running code.
        self.directory = self.root / code_fingerprint()
        self._entries: Optional[Dict[str, Dict[str, object]]] = None
        self._pack: Optional[TextIO] = None

    def _index(self) -> Dict[str, Dict[str, object]]:
        """``key -> payload`` of every pack under the running code, read once."""
        if self._entries is None:
            self._entries = {}
            for pack in sorted(self.directory.glob("*.jsonl")):
                for line in read_journal(pack, skip_malformed=True).entries:
                    if not isinstance(line, dict):
                        continue
                    key, payload = line.get("key"), line.get("result")
                    if isinstance(key, str) and isinstance(payload, dict):
                        self._entries[key] = payload
        return self._entries

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or None on a miss."""
        return self._index().get(key)

    def put(self, key: str, payload: Dict[str, object]) -> str:
        """Append ``payload`` under ``key``; return the payload's JSON text.

        The text is the one serialization of the payload, so a caller can
        journal the same bytes without encoding it again.
        """
        text = json.dumps(payload, allow_nan=False)
        if self._pack is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            # A name no other writer holds (O_EXCL), so concurrent runs on
            # one root each append to a pack of their own.
            descriptor, _name = tempfile.mkstemp(
                dir=self.directory, prefix="pack-", suffix=".jsonl"
            )
            self._pack = os.fdopen(descriptor, "w", encoding="utf-8")
        self._pack.write(f'{{"key": {json.dumps(key)}, "result": {text}}}\n')
        self._pack.flush()
        if self._entries is not None:
            self._entries[key] = payload
        return text

    def close(self) -> None:
        """Close this instance's pack, if it opened one."""
        if self._pack is not None:
            self._pack.close()
            self._pack = None
