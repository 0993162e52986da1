"""The resumable on-disk record of one campaign run.

A campaign directory holds:

``campaign.json``
    The :class:`~repro.campaign.spec.CampaignSpec` that owns the directory.
    Re-running the *same campaign* (matched by name) with an edited spec is
    the normal iterate-on-a-sweep workflow — the file is rewritten and the
    journal's per-entry key validation re-runs exactly the jobs the edit
    touched.  Pointing a directory at a *different* campaign is an error.

``manifest.jsonl``
    An append-only journal with one line per **completed** job, written and
    flushed the moment each result lands (not at campaign end) on the
    handle a run opens once (:func:`open_journal`).  A campaign killed
    mid-flight therefore resumes exactly: completed jobs replay from the
    journal, everything else re-runs.  Each entry records the job id, its
    content-addressed cache key, whether the result came from the cache, the
    wall time, and the full result payload.  It is read by the rule the
    checkpoint journal shares (:func:`repro.storage.read_journal`): the
    bytes after the last newline are the in-flight write a kill interrupted
    and are not an entry, even when they parse.  An entry only counts for a
    job whose *current* key matches the recorded one — so editing a
    scenario or the code between runs silently invalidates exactly the
    affected journal lines.

``report.json``
    The aggregate report, rewritten after every completed (non-dry) run.

``campaign.json`` and ``report.json`` are published whole
(:func:`repro.storage.publish_text`), so a kill never leaves either torn.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from ..storage import (
    CorruptJournalError,
    Journal,
    publish_text,
    read_journal,
    truncate_torn_tail,
)
from .spec import CampaignSpec

SPEC_FILENAME = "campaign.json"
JOURNAL_FILENAME = "manifest.jsonl"
REPORT_FILENAME = "report.json"


def spec_path(directory: Path) -> Path:
    return Path(directory) / SPEC_FILENAME


def journal_path(directory: Path) -> Path:
    return Path(directory) / JOURNAL_FILENAME


def report_path(directory: Path) -> Path:
    return Path(directory) / REPORT_FILENAME


def bind_directory(directory: Path, spec: CampaignSpec) -> None:
    """Claim (or re-validate) a campaign directory for ``spec``.

    First run writes ``campaign.json``.  Later runs with the same campaign
    *name* may carry an edited spec — the file is rewritten and the
    journal's key validation decides, per job, what survives the edit.
    Binding a directory to a differently named campaign is refused: the
    journal inside belongs to someone else's sweep.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = spec_path(directory)
    if path.exists():
        stored = CampaignSpec.from_json(path.read_text(encoding="utf-8"))
        if stored.name != spec.name:
            raise ValueError(
                f"directory {directory} belongs to campaign {stored.name!r}; "
                f"refusing to run campaign {spec.name!r} in it"
            )
        if stored.to_dict() == spec.to_dict():
            return
    publish_text(path, spec.to_json())


def load_spec(directory: Path) -> CampaignSpec:
    """The spec bound to an existing campaign directory."""
    path = spec_path(directory)
    if not path.exists():
        raise FileNotFoundError(f"{directory} is not a campaign directory ({path} missing)")
    return CampaignSpec.from_json(path.read_text(encoding="utf-8"))


def repair_journal(directory: Path) -> List[Dict[str, object]]:
    """Truncate the torn trailing write an interrupted run left behind.

    A resuming run calls this before it opens the journal, and replays the
    intact entries it returns.  A journal ending in a newline is left
    untouched.  Raises what :func:`load_journal` raises.
    """
    path = journal_path(directory)
    return _job_entries(path, truncate_torn_tail(path))


def open_journal(directory: Path) -> TextIO:
    """The journal, opened once per run for appending (after the repair)."""
    return open(journal_path(directory), "a", encoding="utf-8")


def append_journal_entry(
    journal: TextIO, entry: Dict[str, object], result_text: str
) -> None:
    """Append one completed-job line to the open journal and flush it.

    ``entry`` holds every field but the result; ``result_text`` is the
    result payload's JSON text, written as the line's last field,
    ``"result"``, so a payload the cache stored is not encoded again.
    """
    journal.write(
        json.dumps(entry, allow_nan=False)[:-1] + ', "result": ' + result_text + "}\n"
    )
    journal.flush()


def load_journal(directory: Path) -> List[Dict[str, object]]:
    """Every intact journal entry, in completion order.

    Raises :class:`~repro.storage.CorruptJournalError` (a ``ValueError``)
    for a malformed newline-terminated line, or one that parses to anything
    but a JSON object: damage from something other than a kill.
    """
    path = journal_path(directory)
    return _job_entries(path, read_journal(path))


def _job_entries(path: Path, journal: Journal) -> List[Dict[str, object]]:
    """The journal's entries, each checked to be a JSON object."""
    for index, entry in enumerate(journal.entries):
        if not isinstance(entry, dict):
            raise CorruptJournalError(
                f"corrupt journal entry {index + 1} in {path}: {entry!r} is not "
                "a JSON object"
            )
    return journal.entries


def replay_journal(
    entries: List[Dict[str, object]], current_keys: Dict[str, str]
) -> Dict[str, Dict[str, object]]:
    """Journal entries still valid under the current job -> key mapping.

    ``entries`` are a journal's, as :func:`repair_journal` or
    :func:`load_journal` read them.  Returns ``job_id -> entry`` keeping the
    *latest* valid entry per job.  An entry is valid only if the job still
    exists in the expansion and its recorded cache key equals the current
    one — stale lines from before a spec or code edit are ignored, which
    re-runs exactly the affected jobs.
    """
    valid: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        job_id = entry.get("job_id")
        key = entry.get("key")
        if not isinstance(job_id, str) or not isinstance(key, str):
            continue
        if current_keys.get(job_id) == key:
            valid[job_id] = entry
    return valid


def write_report(directory: Path, payload: Dict[str, object]) -> None:
    publish_text(
        report_path(directory), json.dumps(payload, indent=2, allow_nan=False) + "\n"
    )


def load_report(directory: Path) -> Optional[Dict[str, object]]:
    path = report_path(directory)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
