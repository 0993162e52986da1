"""Content-addressed cache keys: fingerprints, invalidation, determinism."""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import (
    ResultCache,
    code_fingerprint,
    job_cache_key,
    modules_for_spec,
)
from repro.scenarios import NocChannel, ScenarioSpec
from repro.scenarios.patterns import RampPattern

from test_campaign_spec import cheap_scenario


class TestModulesForSpec:
    def test_core_only_for_plain_scenarios(self):
        assert modules_for_spec(cheap_scenario()) == ("core",)

    def test_snr_channel_adds_ldpc(self):
        spec = cheap_scenario(snr_db=RampPattern(start=3.0, end=2.0))
        assert modules_for_spec(spec) == ("core", "ldpc")

    def test_noc_channel_adds_noc(self):
        spec = cheap_scenario(noc=NocChannel())
        assert modules_for_spec(spec) == ("core", "noc")


class TestCodeFingerprint:
    def _tree(self, root: Path) -> Path:
        for group in ("core", "ldpc", "noc"):
            (root / group).mkdir(parents=True)
            (root / group / "mod.py").write_text(f"VALUE = {group!r}\n")
        return root

    def test_stable_for_unchanged_sources(self, tmp_path):
        root = self._tree(tmp_path)
        assert code_fingerprint(("core",), root) == code_fingerprint(("core",), root)

    def test_edit_changes_fingerprint(self, tmp_path):
        root = self._tree(tmp_path)
        before = code_fingerprint(("core",), root)
        (root / "core" / "mod.py").write_text("VALUE = 'edited'\n")
        assert code_fingerprint(("core",), root) != before

    def test_rename_changes_fingerprint(self, tmp_path):
        root = self._tree(tmp_path)
        before = code_fingerprint(("core",), root)
        (root / "core" / "mod.py").rename(root / "core" / "renamed.py")
        assert code_fingerprint(("core",), root) != before

    def test_groups_are_independent(self, tmp_path):
        root = self._tree(tmp_path)
        core_before = code_fingerprint(("core",), root)
        both_before = code_fingerprint(("core", "ldpc"), root)
        (root / "ldpc" / "mod.py").write_text("VALUE = 'edited'\n")
        assert code_fingerprint(("core",), root) == core_before
        assert code_fingerprint(("core", "ldpc"), root) != both_before

    def test_group_order_is_irrelevant(self, tmp_path):
        root = self._tree(tmp_path)
        assert code_fingerprint(("ldpc", "core"), root) == code_fingerprint(
            ("core", "ldpc"), root
        )

    def test_unknown_group_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown module groups"):
            code_fingerprint(("warp-drive",), tmp_path)

    def test_default_root_covers_real_package(self):
        fingerprint = code_fingerprint(("core", "ldpc", "noc"))
        assert len(fingerprint) == 64
        # Memoized: the second call must agree.
        assert code_fingerprint(("core", "ldpc", "noc")) == fingerprint


    def test_concurrent_callers_share_one_memoized_digest(self, monkeypatch):
        from repro.campaign import cache as cache_module

        monkeypatch.setattr(cache_module, "_FINGERPRINT_CACHE", {})
        barrier = threading.Barrier(8)
        digests = []

        def worker():
            barrier.wait()
            digests.append(code_fingerprint(("core", "noc")))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(digests) == 8 and len(set(digests)) == 1
        assert list(cache_module._FINGERPRINT_CACHE.values()) == digests[:1]
        # The memoized digest is the one a fresh, unmemoized hash computes.
        root = cache_module._package_root()
        assert code_fingerprint(("core", "noc"), root) == digests[0]


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


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 1.25})
        assert cache.get(key) == {"value": 1.25}
        assert len(cache) == 1

    def test_entries_shard_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {})
        assert (tmp_path / "cd" / f"{key}.json").exists()

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        (tmp_path / "ef").mkdir(parents=True)
        (tmp_path / "ef" / f"{key}.json").write_text('{"value": 1')
        assert cache.get(key) is None
        cache.put(key, {"value": 2})
        assert cache.get(key) == {"value": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "3" * 62, {"x": 1})
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []
