"""Tests for repro.experiments.artifacts: the config-hashed cache."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.errors import ArtifactError
from repro.experiments.artifacts import SCHEMA_VERSION, ArtifactCache


class TestArtifactCache:
    def test_store_and_load(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("results", {"qoe": 1.5})
        assert cache.load("results") == {"qoe": 1.5}

    def test_has(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        assert not cache.has("missing")
        cache.store("present", [1, 2])
        assert cache.has("present")

    def test_load_missing_raises(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        with pytest.raises(ArtifactError):
            cache.load("missing")

    def test_different_fingerprints_isolated(self, tmp_path):
        a = ArtifactCache({"tier": "fast"}, root=tmp_path)
        b = ArtifactCache({"tier": "paper"}, root=tmp_path)
        a.store("x", 1)
        assert not b.has("x")

    def test_same_fingerprint_shares(self, tmp_path):
        a = ArtifactCache({"tier": "fast", "n": 3}, root=tmp_path)
        b = ArtifactCache({"n": 3, "tier": "fast"}, root=tmp_path)
        a.store("x", 42)
        assert b.load("x") == 42

    def test_get_or_compute_caches(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        assert cache.get_or_compute("thing", compute) == {"v": 7}
        assert cache.get_or_compute("thing", compute) == {"v": 7}
        assert len(calls) == 1

    def test_fingerprint_written_alongside(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("x", 1)
        assert (cache.directory / "config.json").exists()


class TestStaleTemporarySweep:
    def test_open_removes_dead_writers_files_only(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("x", 1)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid names no live process
        dead = cache.directory / f".agent_ckpt.npz.{child.pid}.140302459898752.tmp"
        live = cache.directory / (
            f".results.json.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        unrelated = cache.directory / ".notes.tmp"
        for path in (dead, live, unrelated):
            path.write_bytes(b"partial")
        reopened = ArtifactCache({"tier": "fast"}, root=tmp_path)
        assert not dead.exists()
        assert live.exists() and unrelated.exists()
        assert reopened.load("x") == 1

    def test_open_of_a_new_directory_is_a_no_op(self, tmp_path):
        cache = ArtifactCache({"tier": "fresh"}, root=tmp_path / "absent")
        assert not cache.directory.exists()


class TestArrayArtifacts:
    def test_store_and_load_arrays(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        weights = {"actor_0_p0": np.arange(6.0).reshape(2, 3), "actor_0_p1": np.ones(3)}
        assert not cache.has_arrays("agent_weights")
        cache.store_arrays("agent_weights", weights)
        assert cache.has_arrays("agent_weights")
        loaded = cache.load_arrays("agent_weights")
        assert set(loaded) == set(weights)
        for key in weights:
            assert np.array_equal(loaded[key], weights[key])

    def test_load_missing_arrays_raises(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        with pytest.raises(ArtifactError):
            cache.load_arrays("missing")

    def test_array_store_records_fingerprint(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store_arrays("weights", {"p0": np.zeros(2)})
        assert (cache.directory / "config.json").exists()

    def test_json_and_arrays_share_directory(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("meta", {"k": 1})
        cache.store_arrays("weights", {"p0": np.zeros(2)})
        assert cache.path("meta").parent == cache.array_path("weights").parent


class TestSchemaVersion:
    def test_version_recorded_in_fingerprint(self, tmp_path):
        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("x", 1)
        import json

        recorded = json.loads((cache.directory / "config.json").read_text())
        assert recorded["artifact_schema_version"] == SCHEMA_VERSION

    def test_bumping_version_misses_cache(self, tmp_path, monkeypatch):
        # Stale .npz artifacts from an older on-disk layout must never be
        # loaded: bumping SCHEMA_VERSION changes the directory hash, so a
        # new cache with the same user fingerprint starts empty.
        old = ArtifactCache({"tier": "fast"}, root=tmp_path)
        old.store_arrays("agent_weights", {"p0": np.zeros(2)})
        monkeypatch.setattr(
            "repro.experiments.artifacts.SCHEMA_VERSION", SCHEMA_VERSION + 1
        )
        bumped = ArtifactCache({"tier": "fast"}, root=tmp_path)
        assert bumped.key != old.key
        assert not bumped.has_arrays("agent_weights")

    def test_same_version_still_shares(self, tmp_path):
        a = ArtifactCache({"tier": "fast"}, root=tmp_path)
        b = ArtifactCache({"tier": "fast"}, root=tmp_path)
        a.store_arrays("w", {"p0": np.ones(1)})
        assert b.has_arrays("w")


class TestAtomicWrites:
    def test_crash_mid_write_leaves_old_artifact_intact(self, tmp_path, monkeypatch):
        import json

        from repro.util import serialization

        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("results", {"qoe": 1.0})

        real_dumps = json.dumps

        def exploding_dumps(*args, **kwargs):
            real_dumps(*args, **kwargs)  # serialize fully, then crash
            raise RuntimeError("crash mid-serialization")

        monkeypatch.setattr(serialization.json, "dumps", exploding_dumps)
        with pytest.raises(RuntimeError):
            cache.store("results", {"qoe": 2.0})
        monkeypatch.undo()
        # The previous artifact survives unharmed and no temp litter remains.
        assert cache.load("results") == {"qoe": 1.0}
        assert [p for p in cache.directory.iterdir() if p.suffix == ".tmp"] == []

    def test_interrupted_replace_never_yields_partial_json(self, tmp_path, monkeypatch):
        from repro.util import serialization

        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        cache.store("results", {"qoe": 1.0})

        def exploding_replace(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(serialization.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            cache.store("results", {"qoe": 2.0})
        monkeypatch.undo()
        assert cache.load("results") == {"qoe": 1.0}

    def test_concurrent_writers_leave_valid_json(self, tmp_path):
        import threading

        cache = ArtifactCache({"tier": "fast"}, root=tmp_path)
        payloads = [{"worker": i, "data": list(range(200))} for i in range(8)]
        threads = [
            threading.Thread(target=cache.store, args=("shared", payload))
            for payload in payloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whichever writer won, the artifact is complete, valid JSON.
        loaded = cache.load("shared")
        assert loaded in [
            {"worker": i, "data": list(range(200))} for i in range(8)
        ]
