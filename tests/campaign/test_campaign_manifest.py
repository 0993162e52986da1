"""Campaign directory semantics: binding, journal replay, kill tolerance."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CampaignSpec
from repro.campaign import manifest
from repro.storage import CorruptJournalError

from test_campaign_spec import cheap_scenario


def append(directory, entry):
    """Append ``entry`` the way a run does: on the opened journal, with its
    result as JSON text."""
    fields = dict(entry)
    result_text = json.dumps(fields.pop("result"))
    with manifest.open_journal(directory) as journal:
        manifest.append_journal_entry(journal, fields, result_text)


def demo_spec(**overrides):
    params = dict(name="demo", scenarios=(cheap_scenario(),))
    params.update(overrides)
    return CampaignSpec(**params)


class TestBindDirectory:
    def test_first_bind_writes_spec(self, tmp_path):
        spec = demo_spec()
        manifest.bind_directory(tmp_path / "camp", spec)
        assert manifest.load_spec(tmp_path / "camp") == spec

    def test_rebind_with_same_spec_is_a_noop(self, tmp_path):
        spec = demo_spec()
        manifest.bind_directory(tmp_path, spec)
        manifest.bind_directory(tmp_path, spec)
        assert manifest.load_spec(tmp_path) == spec

    def test_rebind_with_edited_spec_updates_the_file(self, tmp_path):
        manifest.bind_directory(tmp_path, demo_spec())
        edited = demo_spec(scenarios=(cheap_scenario(num_epochs=9),))
        manifest.bind_directory(tmp_path, edited)
        assert manifest.load_spec(tmp_path) == edited

    def test_rebind_with_different_campaign_refused(self, tmp_path):
        manifest.bind_directory(tmp_path, demo_spec())
        with pytest.raises(ValueError, match="belongs to campaign 'demo'"):
            manifest.bind_directory(tmp_path, demo_spec(name="other"))

    def test_load_spec_requires_a_campaign_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            manifest.load_spec(tmp_path)


class TestJournal:
    def entry(self, job_id="j1", key="k1", value=1.0):
        return {
            "job_id": job_id,
            "key": key,
            "from_cache": False,
            "wall_s": 0.01,
            "result": {"value": value},
        }

    def test_append_then_load_round_trips(self, tmp_path):
        first, second = self.entry("j1"), self.entry("j2", "k2")
        append(tmp_path, first)
        append(tmp_path, second)
        assert manifest.load_journal(tmp_path) == [first, second]

    def test_missing_journal_is_empty(self, tmp_path):
        assert manifest.load_journal(tmp_path) == []

    def test_truncated_final_line_is_dropped(self, tmp_path):
        append(tmp_path, self.entry("j1"))
        path = manifest.journal_path(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            # The write a kill interrupted: valid JSON prefix, no newline.
            handle.write(json.dumps(self.entry("j2"))[:25])
        assert manifest.load_journal(tmp_path) == [self.entry("j1")]

    def test_unterminated_final_line_is_torn_even_if_it_parses(self, tmp_path):
        # Bytes after the last newline are the write a kill interrupted:
        # the next append's repair cuts them, so no reader may count them.
        append(tmp_path, self.entry("j1"))
        append(tmp_path, self.entry("j2"))
        path = manifest.journal_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        assert manifest.load_journal(tmp_path) == [self.entry("j1")]
        manifest.repair_journal(tmp_path)
        assert manifest.load_journal(tmp_path) == [self.entry("j1")]
        assert path.read_text() == json.dumps(self.entry("j1")) + "\n"

    def test_malformed_terminated_final_line_is_loud(self, tmp_path):
        append(tmp_path, self.entry("j1"))
        with open(manifest.journal_path(tmp_path), "a", encoding="utf-8") as handle:
            handle.write('{"broken": \n')
        with pytest.raises(ValueError, match="corrupt journal line 2"):
            manifest.load_journal(tmp_path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"done"', "null"])
    def test_a_line_that_is_not_an_object_is_loud(self, tmp_path, line):
        append(tmp_path, self.entry("j1"))
        path = manifest.journal_path(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        for read in (manifest.load_journal, manifest.repair_journal):
            with pytest.raises(CorruptJournalError, match="not a JSON object") as caught:
                read(tmp_path)
            assert str(path) in str(caught.value)

    def test_corrupt_interior_line_is_loud(self, tmp_path):
        path = manifest.journal_path(tmp_path)
        path.write_text('{"broken": \n' + json.dumps(self.entry("j2")) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            manifest.load_journal(tmp_path)

    def test_repair_truncates_torn_tail(self, tmp_path):
        append(tmp_path, self.entry("j1"))
        path = manifest.journal_path(tmp_path)
        intact = path.read_text()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert manifest.repair_journal(tmp_path) == [self.entry("j1")]
        assert path.read_text() == intact
        # Appending after repair stays parseable end to end.
        append(tmp_path, self.entry("j2"))
        assert manifest.load_journal(tmp_path) == [self.entry("j1"), self.entry("j2")]

    def test_repair_is_a_noop_on_clean_or_missing_journals(self, tmp_path):
        manifest.repair_journal(tmp_path)  # no journal at all
        append(tmp_path, self.entry("j1"))
        before = manifest.journal_path(tmp_path).read_text()
        manifest.repair_journal(tmp_path)
        assert manifest.journal_path(tmp_path).read_text() == before

    def test_blank_lines_are_ignored(self, tmp_path):
        path = manifest.journal_path(tmp_path)
        path.write_text(json.dumps(self.entry("j1")) + "\n\n")
        assert manifest.load_journal(tmp_path) == [self.entry("j1")]


class TestReplay:
    def test_replay_keeps_only_current_keys(self, tmp_path):
        append(tmp_path, TestJournal().entry("j1", key="current"))
        append(tmp_path, TestJournal().entry("j2", key="stale"))
        valid = manifest.replay_journal(
            manifest.load_journal(tmp_path), {"j1": "current", "j2": "now-different"}
        )
        assert set(valid) == {"j1"}

    def test_replay_drops_jobs_no_longer_expanded(self, tmp_path):
        append(tmp_path, TestJournal().entry("gone", key="k"))
        entries = manifest.load_journal(tmp_path)
        assert manifest.replay_journal(entries, {"j1": "k"}) == {}

    def test_latest_entry_per_job_wins(self, tmp_path):
        append(tmp_path, TestJournal().entry("j1", key="k", value=1.0))
        append(tmp_path, TestJournal().entry("j1", key="k", value=2.0))
        entries = manifest.load_journal(tmp_path)
        valid = manifest.replay_journal(entries, {"j1": "k"})
        assert valid["j1"]["result"] == {"value": 2.0}


class TestReport:
    def test_report_round_trips(self, tmp_path):
        payload = {"campaign": "demo", "jobs": 3}
        manifest.write_report(tmp_path, payload)
        assert manifest.load_report(tmp_path) == payload

    def test_missing_report_is_none(self, tmp_path):
        assert manifest.load_report(tmp_path) is None

    def test_interrupted_publish_keeps_the_previous_files(self, tmp_path, monkeypatch):
        # A campaign killed while it writes campaign.json or report.json
        # leaves the previous file whole: each is renamed into place.
        spec = demo_spec()
        manifest.bind_directory(tmp_path, spec)
        manifest.write_report(tmp_path, {"campaign": "demo", "jobs": 1})

        def killed(source, destination):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            manifest.write_report(tmp_path, {"campaign": "demo", "jobs": 2})
        edited = demo_spec(scenarios=(cheap_scenario(num_epochs=9),))
        with pytest.raises(KeyboardInterrupt):
            manifest.bind_directory(tmp_path, edited)
        monkeypatch.undo()
        assert manifest.load_report(tmp_path) == {"campaign": "demo", "jobs": 1}
        assert manifest.load_spec(tmp_path) == spec
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            manifest.SPEC_FILENAME, manifest.REPORT_FILENAME
        ]
