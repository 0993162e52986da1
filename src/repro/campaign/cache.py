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

The cache itself is a content-addressed directory store: one JSON file per
key, fanned out over 256 two-hex-digit shards, written atomically
(:func:`repro.storage.publish_text`) so concurrent shards and interrupted
campaigns never publish torn entries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from ..scenarios.spec import ScenarioSpec
from ..storage import publish_text


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
    """Directory-backed content-addressed store of job-result payloads.

    Entries are immutable by construction — the key commits to both the spec
    and the code, so a published payload is never rewritten with different
    content.  ``put`` is therefore a blind atomic publish and ``get`` a
    single read.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or None on a miss."""
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            # A torn entry can only come from an unclean copy of the cache
            # directory itself (writes are atomic); treat it as a miss and
            # let the next put repair it.
            return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically publish ``payload`` under ``key``."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        publish_text(path, json.dumps(payload, allow_nan=False))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
