"""Content-addressed cache keys: fingerprints, invalidation, determinism."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    code_fingerprint,
    job_cache_key,
)
from repro import storage as storage_module
from repro.campaign.executor import compute_job_keys
from repro.scenarios import NocChannel, ScenarioSpec
from repro.scenarios.patterns import RampPattern

from test_campaign_spec import cheap_scenario


class TestCodeFingerprint:
    def _tree(self, root: Path) -> Path:
        for package in ("core", "ldpc", "noc"):
            (root / package).mkdir(parents=True)
            (root / package / "mod.py").write_text(f"VALUE = {package!r}\n")
        return root

    def test_stable_for_unchanged_sources(self, tmp_path):
        root = self._tree(tmp_path)
        assert code_fingerprint(root) == code_fingerprint(root)

    @pytest.mark.parametrize("package", ["core", "ldpc", "noc"])
    def test_edit_anywhere_changes_fingerprint(self, tmp_path, package):
        root = self._tree(tmp_path)
        before = code_fingerprint(root)
        (root / package / "mod.py").write_text("VALUE = 'edited'\n")
        assert code_fingerprint(root) != before

    def test_rename_changes_fingerprint(self, tmp_path):
        root = self._tree(tmp_path)
        before = code_fingerprint(root)
        (root / "core" / "mod.py").rename(root / "core" / "renamed.py")
        assert code_fingerprint(root) != before

    def test_numpy_version_changes_fingerprint(self, tmp_path, monkeypatch):
        import numpy

        root = self._tree(tmp_path)
        before = code_fingerprint(root)
        monkeypatch.setattr(numpy, "__version__", "0.0.0")
        assert code_fingerprint(root) != before

    def test_default_root_covers_real_package(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        # Memoized: the second call must agree.
        assert code_fingerprint() == fingerprint

    def test_concurrent_callers_share_one_memoized_digest(self, monkeypatch):
        monkeypatch.setattr(storage_module, "_FINGERPRINT_CACHE", {})
        barrier = threading.Barrier(8)
        digests = []

        def worker():
            barrier.wait()
            digests.append(code_fingerprint())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(digests) == 8 and len(set(digests)) == 1
        assert list(storage_module._FINGERPRINT_CACHE.values()) == digests[:1]
        # The memoized digest is the one a fresh, unmemoized hash computes.
        assert code_fingerprint(storage_module._package_root()) == digests[0]


class TestKeyCoversEvaluatedCode:
    """A plain scenario's key binds code beyond its own channels."""

    @pytest.fixture
    def package_copy(self, tmp_path, monkeypatch):
        root = tmp_path / "repro"
        shutil.copytree(
            storage_module._package_root(),
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(storage_module, "_package_root", lambda: root)
        return root

    def _steady_baseline_key(self, monkeypatch) -> str:
        monkeypatch.setattr(storage_module, "_FINGERPRINT_CACHE", {})
        jobs = CampaignSpec(name="key", scenarios=("steady-baseline",)).expand()
        return compute_job_keys(jobs)[jobs[0].job_id]

    @pytest.mark.parametrize(
        "module", ["noc/routing.py", "ldpc/partition.py", "campaign/spec.py"]
    )
    def test_edit_changes_steady_baseline_key(
        self, package_copy, monkeypatch, module
    ):
        before = self._steady_baseline_key(monkeypatch)
        with open(package_copy / module, "a", encoding="utf-8") as handle:
            handle.write("# edited\n")
        assert self._steady_baseline_key(monkeypatch) != before


class TestJobCacheKey:
    def test_same_spec_same_code_same_key(self):
        spec = cheap_scenario()
        assert job_cache_key(spec, "f" * 64) == job_cache_key(spec, "f" * 64)

    def test_spec_edit_changes_key(self):
        import dataclasses

        spec = cheap_scenario()
        edited = dataclasses.replace(spec, num_epochs=7)
        assert job_cache_key(spec, "f" * 64) != job_cache_key(edited, "f" * 64)

    def test_fingerprint_change_changes_key(self):
        spec = cheap_scenario()
        assert job_cache_key(spec, "a" * 64) != job_cache_key(spec, "b" * 64)

    def test_key_is_identical_across_processes(self):
        """The whole point of content addressing: no per-process salt."""
        spec = cheap_scenario(
            period_us=109.7,
            noc=NocChannel(injection_rate=0.0123, traffic_kwargs={"hotspots": [[1, 1]]}),
            snr_db=RampPattern(start=3.0, end=1.25),
        )
        spec = ScenarioSpec.from_json(spec.to_json())
        here = job_cache_key(spec, "ab" * 32)
        script = (
            "import sys, json\n"
            "from repro.scenarios import ScenarioSpec\n"
            "from repro.campaign import job_cache_key\n"
            "spec = ScenarioSpec.from_json(sys.stdin.read())\n"
            "print(job_cache_key(spec, 'ab' * 32))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "random"},
            check=True,
        )
        assert completed.stdout.strip() == here


def packs(root: Path):
    """Every pack file under a cache root, in name order."""
    return sorted(root.rglob("*.jsonl"))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 1.25})
        assert cache.get(key) == {"value": 1.25}
        assert len(cache) == 1
        cache.close()

    def test_entries_append_to_one_pack_under_the_code_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, second = "cd" + "1" * 62, "ef" + "1" * 62
        assert cache.put(first, {"value": 0.1}) == json.dumps({"value": 0.1})
        cache.put(second, {})
        cache.close()
        (pack,) = packs(tmp_path)
        assert pack.parent == tmp_path / code_fingerprint()
        assert pack.read_text().splitlines() == [
            json.dumps({"key": first, "result": {"value": 0.1}}),
            json.dumps({"key": second, "result": {}}),
        ]

    def test_torn_entry_reads_as_miss(self, tmp_path):
        # A pack whose writer was killed mid-line: the cut entry misses,
        # and a later run's put stores it in a pack of its own.
        key = "ef" + "2" * 62
        writer = ResultCache(tmp_path)
        writer.put(key, {"value": 1})
        writer.close()
        (pack,) = packs(tmp_path)
        pack.write_bytes(pack.read_bytes()[:-5])
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, {"value": 2})
        cache.close()
        assert ResultCache(tmp_path).get(key) == {"value": 2}
        assert len(packs(tmp_path)) == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "3" * 62, {"x": 1})
        cache.close()
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert files == packs(tmp_path) and len(files) == 1
        assert not any(path.name.startswith(".tmp-") for path in tmp_path.rglob("*"))

    def test_interleaved_writers_on_one_root_each_keep_their_own_pack(
        self, tmp_path
    ):
        left, right = ResultCache(tmp_path), ResultCache(tmp_path)
        keys = [f"{index:02x}" + "4" * 62 for index in range(6)]
        for index, key in enumerate(keys):
            (left if index % 2 else right).put(key, {"index": index})
        left.close()
        right.close()
        assert len(packs(tmp_path)) == 2
        reader = ResultCache(tmp_path)
        assert [reader.get(key) for key in keys] == [
            {"index": index} for index in range(6)
        ]
        assert len(reader) == 6

    def test_pack_cut_mid_line_misses_only_that_entry(self, tmp_path):
        writer = ResultCache(tmp_path)
        keys = [f"{index:02x}" + "5" * 62 for index in range(3)]
        for index, key in enumerate(keys):
            writer.put(key, {"index": index})
        writer.close()
        (pack,) = packs(tmp_path)
        data = pack.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in (last + 10, len(data) - 1):
            # Mid-line, then only the final newline lost: bytes after the
            # last newline are not an entry, even when they parse.
            pack.write_bytes(data[:cut])
            reader = ResultCache(tmp_path)
            assert [reader.get(key) for key in keys] == [
                {"index": 0}, {"index": 1}, None
            ]

    def test_malformed_interior_line_is_a_miss_not_an_error(self, tmp_path):
        writer = ResultCache(tmp_path)
        keys = [f"{index:02x}" + "6" * 62 for index in range(3)]
        for index, key in enumerate(keys):
            writer.put(key, {"index": index})
        writer.close()
        (pack,) = packs(tmp_path)
        lines = pack.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:30] + "\n"
        pack.write_text("".join(lines + ['{"key": 5, "result": []}\n', "[]\n"]))
        reader = ResultCache(tmp_path)
        assert [reader.get(key) for key in keys] == [{"index": 0}, None, {"index": 2}]

    def test_packs_of_other_code_are_never_read(self, tmp_path):
        key = "ab" + "7" * 62
        line = json.dumps({"key": key, "result": {"value": 1}}) + "\n"
        for name in ("0" * 64, "ab"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "pack-other.jsonl").write_text(line)
        (tmp_path / "pack-root.jsonl").write_text(line)
        assert ResultCache(tmp_path).get(key) is None

    def test_packs_are_read_once_on_the_first_get(self, tmp_path, monkeypatch):
        from repro.campaign import cache as cache_module

        writer = ResultCache(tmp_path)
        writer.put("ab" + "8" * 62, {"value": 1})
        writer.close()
        reads = []
        real = cache_module.read_journal

        def counted(path, **kwargs):
            reads.append(path)
            return real(path, **kwargs)

        monkeypatch.setattr(cache_module, "read_journal", counted)
        reader = ResultCache(tmp_path)
        assert reads == []
        for _ in range(3):
            assert reader.get("ab" + "8" * 62) == {"value": 1}
            assert reader.get("cd" + "8" * 62) is None
        assert reads == packs(tmp_path)
