"""Tests for repro.service.store: the pluggable two-tier session store.

The load-bearing property is *bitwise resumability*: a session evicted
to cold storage at any point, resumed through any store handle (same
backend, fresh backend over the same SQLite file — "another worker"),
must produce exactly the decision stream an uninterrupted monitor
would.  Hypothesis drives the eviction points.
"""

from __future__ import annotations

import json
import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import (
    DictBackend,
    DuplicateSessionError,
    SQLiteBackend,
    SessionStore,
    UnknownSessionError,
    build_demo_scheme,
    make_backend,
)
from repro.service.store import SNAPSHOT_VERSION
from repro.util.rng import rng_from_seed


@pytest.fixture(scope="module")
def runtime():
    return build_demo_scheme()


@pytest.fixture
def store(runtime):
    return SessionStore(DictBackend(), lambda scheme: runtime.new_monitor())


def _observations(count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(6, 8)) for _ in range(count)]


def _decision_key(decision) -> tuple:
    value = decision.signal_value
    return (
        decision.step,
        None if math.isnan(value) else value,
        decision.fired,
        decision.defaulted,
        decision.handoff,
        decision.recovered,
    )


class FakeClock:
    """A manually advanced monotonic clock for deterministic TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBackends:
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_put_get_delete_roundtrip(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path / "store.sqlite")
        assert backend.get("t", "s") is None
        backend.put("t", "s", "one")
        backend.put("t", "s", "two")
        backend.put("t2", "s", "other")
        assert backend.get("t", "s") == "two"
        assert backend.keys() == [("t", "s"), ("t2", "s")]
        assert len(backend) == 2
        assert backend.delete("t", "s")
        assert not backend.delete("t", "s")
        assert len(backend) == 1
        backend.close()

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_put_many_is_all_or_none(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path / "store.sqlite")
        backend.put_many([("t", "a", "old"), ("t", "b", "old")])

        def sweep():
            yield "t", "a", "new"
            yield "t", "c", "new"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            backend.put_many(sweep())
        assert backend.keys() == [("t", "a"), ("t", "b")]
        assert backend.get("t", "a") == "old"
        backend.put_many(iter([("t", "a", "new"), ("t", "c", "new")]))
        assert [backend.get("t", s) for s in "abc"] == ["new", "old", "new"]
        backend.close()

    def test_sqlite_payloads_survive_a_fresh_handle(self, tmp_path):
        path = tmp_path / "store.sqlite"
        first = SQLiteBackend(path)
        first.put("t", "s", json.dumps({"x": 1}))
        first.close()
        second = SQLiteBackend(path)
        assert json.loads(second.get("t", "s")) == {"x": 1}
        second.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown store backend"):
            make_backend("redis")

    def test_sqlite_requires_path(self):
        with pytest.raises(ServiceError, match="requires a store path"):
            make_backend("sqlite")


class TestSessionStoreBasics:
    def test_attach_checkout_detach(self, store):
        store.attach("t", "s", "demo", seed=7)
        entry, resumed = store.checkout("t", "s")
        assert not resumed
        assert entry.seed == 7
        assert store.hot_count == 1 and store.cold_count == 0
        stats = store.detach("t", "s")
        assert stats == {
            "steps": 0,
            "default_steps": 0,
            "default_fraction": 0.0,
            "resumes": 0,
        }
        assert store.hot_count == 0

    def test_duplicate_attach_rejected_hot_and_cold(self, store):
        store.attach("t", "s", "demo", seed=0)
        with pytest.raises(DuplicateSessionError):
            store.attach("t", "s", "demo", seed=1)
        store.evict_all()
        with pytest.raises(DuplicateSessionError):
            store.attach("t", "s", "demo", seed=1)

    def test_unknown_session_raises(self, store):
        with pytest.raises(UnknownSessionError):
            store.checkout("t", "nope")
        with pytest.raises(UnknownSessionError):
            store.detach("t", "nope")

    def test_same_session_id_isolated_per_tenant(self, store):
        store.attach("a", "s", "demo", seed=0)
        store.attach("b", "s", "demo", seed=0)
        entry_a, _ = store.checkout("a", "s")
        entry_b, _ = store.checkout("b", "s")
        assert entry_a is not entry_b
        entry_a.monitor.observe(np.zeros((6, 8)))
        assert entry_b.monitor.total_steps == 0

    def test_invalid_ttl_rejected(self, runtime):
        with pytest.raises(ServiceError, match="hot_ttl_s"):
            SessionStore(
                DictBackend(),
                lambda scheme: runtime.new_monitor(),
                hot_ttl_s=0.0,
            )


class TestTTLEviction:
    def test_only_idle_sessions_evicted(self, runtime):
        clock = FakeClock()
        store = SessionStore(
            DictBackend(),
            lambda scheme: runtime.new_monitor(),
            hot_ttl_s=10.0,
            clock=clock,
        )
        store.attach("t", "old", "demo", seed=0)
        clock.advance(9.0)
        store.attach("t", "young", "demo", seed=1)
        clock.advance(1.0)
        assert store.evict_idle() == 1
        assert store.hot_keys() == [("t", "young")]
        assert store.backend.keys() == [("t", "old")]
        assert store.evictions == 1

    def test_checkout_refreshes_the_ttl(self, runtime):
        clock = FakeClock()
        store = SessionStore(
            DictBackend(),
            lambda scheme: runtime.new_monitor(),
            hot_ttl_s=10.0,
            clock=clock,
        )
        store.attach("t", "s", "demo", seed=0)
        clock.advance(9.0)
        store.checkout("t", "s")
        clock.advance(9.0)
        assert store.evict_idle() == 0
        clock.advance(1.0)
        assert store.evict_idle() == 1

    def test_evicted_session_resumes_on_checkout(self, store):
        store.attach("t", "s", "demo", seed=0)
        entry, _ = store.checkout("t", "s")
        for observation in _observations(5):
            entry.monitor.observe(observation)
        assert store.evict_all() == 1
        assert store.hot_count == 0 and store.cold_count == 1
        entry, resumed = store.checkout("t", "s")
        assert resumed
        assert entry.monitor.total_steps == 5
        assert entry.resumes == 1
        assert store.resumes == 1
        # Moving back to hot clears the cold copy (single home of state).
        assert store.cold_count == 0


class FlakyBackend(DictBackend):
    """A dict backend whose writes fail while ``failing`` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.failing = False

    def put_many(self, items) -> None:
        if self.failing:
            raise sqlite3.OperationalError("database is locked")
        super().put_many(items)


class TestFailedEviction:
    def test_failed_sweep_loses_no_session(self, runtime):
        backend = FlakyBackend()
        store = SessionStore(backend, lambda scheme: runtime.new_monitor())
        store.attach("t", "cold", "demo", seed=0)
        assert store.evict_all() == 1
        cold_payload = backend.get("t", "cold")
        seeds = (3, 4, 5)
        observations = {seed: _observations(12, seed=seed) for seed in seeds}
        streams = {seed: [] for seed in seeds}
        for seed in seeds:
            store.attach("t", f"s{seed}", "demo", seed=seed)

        def play(steps):
            for index in steps:
                for seed in seeds:
                    entry, _ = store.checkout("t", f"s{seed}")
                    decision = entry.monitor.observe(observations[seed][index])
                    streams[seed].append(
                        _decision_key(decision) + (float(entry.rng.random()),)
                    )

        play(range(5))
        backend.failing = True
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.evict_all()
        # Nothing moved: every session is still hot, the cold tier and
        # the eviction counter are as they were.
        assert store.hot_keys() == [("t", f"s{seed}") for seed in seeds]
        assert backend.keys() == [("t", "cold")]
        assert backend.get("t", "cold") == cold_payload
        assert store.evictions == 1
        play(range(5, 8))
        backend.failing = False
        assert store.evict_all() == 3
        play(range(8, 12))
        for seed in seeds:
            assert streams[seed] == _reference_stream(runtime, 12, seed)
        assert store.resumes == 3


class TestSnapshotGuards:
    def test_version_mismatch_rejected(self, store):
        store.attach("t", "s", "demo", seed=0)
        store.evict_all()
        snapshot = json.loads(store.backend.get("t", "s"))
        assert snapshot["version"] == SNAPSHOT_VERSION
        snapshot["version"] = SNAPSHOT_VERSION + 1
        store.backend.put("t", "s", json.dumps(snapshot))
        with pytest.raises(ServiceError, match="snapshot version"):
            store.checkout("t", "s")

    def test_foreign_rng_rejected(self, store):
        store.attach("t", "s", "demo", seed=0)
        store.evict_all()
        snapshot = json.loads(store.backend.get("t", "s"))
        snapshot["rng"]["bit_generator"] = "MT19937"
        store.backend.put("t", "s", json.dumps(snapshot))
        with pytest.raises(ServiceError, match="MT19937"):
            store.checkout("t", "s")

    def test_detach_reports_cold_session_stats(self, store):
        store.attach("t", "s", "demo", seed=0)
        entry, _ = store.checkout("t", "s")
        for observation in _observations(8):
            entry.monitor.observe(observation)
        defaults = entry.monitor.default_steps
        store.evict_all()
        stats = store.detach("t", "s")
        assert stats["steps"] == 8
        assert stats["default_steps"] == defaults
        assert store.cold_count == 0


def _drive_with_evictions(
    store_factory, evict_after: list[int], steps: int, seed: int
) -> list[tuple]:
    """Decision stream + RNG draws for a session evicted at the given
    step indices, resumed through a *fresh store handle* each time."""
    store = store_factory()
    store.attach("t", "s", "demo", seed=seed)
    observations = _observations(steps, seed=seed)
    keys = []
    for index, observation in enumerate(observations):
        if index in evict_after:
            assert store.evict_all() == 1
            store = store_factory()  # a different worker picks it up
        entry, _ = store.checkout("t", "s")
        decision = entry.monitor.observe(observation)
        keys.append(_decision_key(decision) + (float(entry.rng.random()),))
    return keys


class TestResumeBitwiseEquality:
    @settings(max_examples=15, deadline=None)
    @given(
        evictions=st.lists(st.integers(0, 19), max_size=4, unique=True),
        seed=st.integers(0, 100),
    )
    def test_dict_backend_streams_identical(self, runtime, evictions, seed):
        backend = DictBackend()

        def factory():
            return SessionStore(backend, lambda scheme: runtime.new_monitor())

        interrupted = _drive_with_evictions(factory, evictions, 20, seed)
        reference = _reference_stream(runtime, 20, seed)
        assert interrupted == reference

    @settings(max_examples=5, deadline=None)
    @given(
        evictions=st.lists(st.integers(0, 11), max_size=2, unique=True),
        seed=st.integers(0, 20),
    )
    def test_sqlite_backend_streams_identical(
        self, runtime, tmp_path_factory, evictions, seed
    ):
        path = tmp_path_factory.mktemp("svc") / "store.sqlite"

        def factory():
            # A brand-new connection per handle: nothing shared but the file.
            return SessionStore(
                SQLiteBackend(path), lambda scheme: runtime.new_monitor()
            )

        interrupted = _drive_with_evictions(factory, evictions, 12, seed)
        reference = _reference_stream(runtime, 12, seed)
        assert interrupted == reference

    def test_rng_state_roundtrips_bitwise(self, runtime):
        backend = DictBackend()
        store = SessionStore(backend, lambda scheme: runtime.new_monitor())
        store.attach("t", "s", "demo", seed=123)
        entry, _ = store.checkout("t", "s")
        drawn = [entry.rng.random() for _ in range(7)]
        store.evict_all()
        fresh = SessionStore(backend, lambda scheme: runtime.new_monitor())
        entry, resumed = fresh.checkout("t", "s")
        assert resumed
        reference = rng_from_seed(123)
        assert [reference.random() for _ in range(7)] == drawn
        assert entry.rng.random() == reference.random()


def _reference_stream(runtime, steps: int, seed: int) -> list[tuple]:
    """The uninterrupted decision stream for the same observations."""
    monitor = runtime.new_monitor()
    monitor.reset()
    rng = rng_from_seed(seed)
    keys = []
    for observation in _observations(steps, seed=seed):
        decision = monitor.observe(observation)
        keys.append(_decision_key(decision) + (float(rng.random()),))
    return keys
