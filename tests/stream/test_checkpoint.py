"""CheckpointStore: durable appends, torn-tail repair and atomic compaction."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import CorruptJournalError
from repro.stream import CheckpointStore, checkpoint


def _lines(store):
    with store.path.open("rb") as handle:
        return sum(1 for _ in handle)


class TestSaveLoad:
    def test_round_trip_newest_last(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"next_epoch": 4})
        store.save({"next_epoch": 8})
        assert store.load_latest() == {"next_epoch": 8}
        assert [entry["next_epoch"] for entry in store.load_all()] == [4, 8]

    def test_empty_directory_is_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path / "never-created")
        assert store.load_latest() is None
        assert store.load_all() == []

    def test_validates_retention_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=4, max_entries=2)


class TestTornTail:
    def test_torn_final_line_is_skipped_on_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"next_epoch": 4})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"next_epoch": 8')  # crash mid-append
        assert store.load_latest() == {"next_epoch": 4}

    def test_repair_truncates_torn_tail(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"next_epoch": 4})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert store.repair() is True
        assert store.path.read_text().endswith("\n")
        assert store.load_latest() == {"next_epoch": 4}
        # Idempotent: a clean journal is untouched.
        assert store.repair() is False

    def test_save_repairs_before_appending(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"next_epoch": 4})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        store.save({"next_epoch": 8})
        assert [e["next_epoch"] for e in store.load_all()] == [4, 8]

    def test_interior_corruption_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"next_epoch": 4})
        store.save({"next_epoch": 8})
        lines = store.path.read_text().splitlines()
        lines[0] = '{"broken'
        store.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptJournalError, match="line 1"):
            store.load_all()


class TestCompaction:
    def test_compacts_past_max_entries(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3, max_entries=6)
        for epoch in range(8):
            store.save({"next_epoch": epoch})
        entries = store.load_all()
        # Every save past max_entries compacts down to the newest `keep`.
        assert len(entries) <= store.max_entries
        assert entries[-1] == {"next_epoch": 7}
        with store.path.open("rb") as handle:
            assert sum(1 for _ in handle) == len(entries)

    def test_compaction_preserves_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2, max_entries=2)
        for epoch in range(5):
            store.save({"next_epoch": epoch})
        assert store.load_latest() == {"next_epoch": 4}
        # No temp files left behind by the atomic rewrite.
        leftovers = [p for p in tmp_path.iterdir() if p.name != store.path.name]
        assert leftovers == []

    def test_payloads_survive_compaction_byte_exact(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1, max_entries=1)
        payload = {"identity": "x/y", "state": {"temps": [1.5, 2.25]}}
        store.save({"identity": "old"})
        store.save(payload)
        assert store.load_latest() == json.loads(json.dumps(payload))


class TestCompactionCadence:
    """A journal compacts on the save that takes it past ``max_entries``."""

    def test_fresh_journal_compacts_past_max_entries(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2, max_entries=4)
        for epoch in range(4):
            store.save({"next_epoch": epoch})
        assert _lines(store) == 4
        store.save({"next_epoch": 4})
        assert _lines(store) == 2
        assert store.load_all() == [{"next_epoch": 3}, {"next_epoch": 4}]

    def test_repaired_journal_compacts_past_max_entries(self, tmp_path):
        writer = CheckpointStore(tmp_path, keep=2, max_entries=4)
        writer.save({"next_epoch": 0})
        writer.save({"next_epoch": 1})
        with writer.path.open("a", encoding="utf-8") as handle:
            handle.write('{"next_epoch": 2')  # the writer died mid-append
        store = CheckpointStore(tmp_path, keep=2, max_entries=4)
        store.save({"next_epoch": 2})
        store.save({"next_epoch": 3})
        assert _lines(store) == 4
        store.save({"next_epoch": 4})
        assert store.load_all() == [{"next_epoch": 3}, {"next_epoch": 4}]


class TestSingleRead:
    def test_saves_and_compactions_do_not_reread_the_journal(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path, keep=2, max_entries=3)
        store.save({"next_epoch": 0})

        def reread(path):
            raise AssertionError("the journal was re-read after it was opened")

        monkeypatch.setattr(checkpoint, "read_journal", reread)
        monkeypatch.setattr(checkpoint, "truncate_torn_tail", reread)
        for epoch in range(1, 9):
            store.save({"next_epoch": epoch})
        assert store.load_latest() == {"next_epoch": 8}
        monkeypatch.undo()
        assert store.load_all()[-1] == {"next_epoch": 8}
        assert _lines(store) <= store.max_entries

    def test_interior_corruption_raises_when_a_store_opens(self, tmp_path):
        CheckpointStore(tmp_path).save({"next_epoch": 4})
        path = CheckpointStore(tmp_path).path
        path.write_text('{"broken\n{"next_epoch": 8}\n')
        with pytest.raises(CorruptJournalError, match="line 1"):
            CheckpointStore(tmp_path).save({"next_epoch": 12})
        with pytest.raises(CorruptJournalError, match="line 1"):
            CheckpointStore(tmp_path).load_latest()


_records = st.lists(
    st.fixed_dictionaries({
        "next_epoch": st.integers(0, 10**6),
        "temps": st.lists(st.floats(-50.0, 150.0), max_size=4),
    }),
    min_size=2,
    max_size=6,
)


class TestTornTailProperty:
    @given(records=_records, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_cut_inside_the_last_record_resumes_from_the_one_before(
        self, records, data
    ):
        last = len(json.dumps(records[-1], separators=(",", ":"))) + 1
        with tempfile.TemporaryDirectory() as directory:
            writer = CheckpointStore(directory)
            for record in records:
                writer.save(record)
            encoded = Path(writer.path).read_bytes()
            start, end = len(encoded) - last, len(encoded) - 1
            # Both ends of the last record (all of it gone, only its
            # newline gone) and a cut between them.
            for cut in (start, end, data.draw(st.integers(start, end))):
                Path(writer.path).write_bytes(encoded[:cut])
                store = CheckpointStore(directory)
                assert store.load_latest() == records[-2]
                store.save({"next_epoch": -1})
                lines = Path(store.path).read_bytes().split(b"\n")
                assert lines[-1] == b""
                assert [json.loads(line) for line in lines[:-1]] == [
                    *records[:-1], {"next_epoch": -1}
                ]
