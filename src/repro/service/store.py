"""The pluggable session store: hot live monitors, cold JSON snapshots.

The service keeps every attached session's state in a
:class:`SessionStore` keyed by ``(tenant_id, session_id)``.  The store
is two-tier:

* the **hot tier** holds live :class:`~repro.core.monitor.SafetyMonitor`
  objects plus each session's policy RNG — zero serialization on the
  step hot path;
* the **cold tier** is a pluggable :class:`StoreBackend` holding JSON
  snapshots built from the monitor's versioned
  :meth:`~repro.core.monitor.SafetyMonitor.state_dict` and the RNG's
  bit-generator state.

TTL eviction (:meth:`SessionStore.evict_idle`) snapshots idle hot
sessions to the cold tier; the next ``step`` for an evicted key resumes
it transparently — a fresh monitor is minted from the scheme's
prototype, the snapshot is loaded, and the remaining decisions are
bitwise-identical to an uninterrupted session.  Because the snapshot is
self-contained JSON, *any* worker holding the same scheme artifacts can
resume *any* session from a shared backend: compute stays stateless,
storage stays stateful.

Backends: :class:`DictBackend` (in-process mapping — one worker, tests,
benchmarks) and :class:`SQLiteBackend` (a shared file — sessions survive
process restarts and hop between workers).  Both sit behind the same
:class:`StoreBackend` interface; :func:`make_backend` builds one from a
CLI-friendly name.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core.monitor import SafetyMonitor
from repro.errors import ServiceError
from repro.util.rng import rng_from_seed

__all__ = [
    "SNAPSHOT_VERSION",
    "DictBackend",
    "DuplicateSessionError",
    "HotSession",
    "SQLiteBackend",
    "SessionStore",
    "StoreBackend",
    "UnknownSessionError",
    "make_backend",
]

#: Schema version of the cold-tier session snapshot (bump on changes).
SNAPSHOT_VERSION = 1


class UnknownSessionError(ServiceError):
    """The ``(tenant, session)`` key is neither hot nor in cold storage."""

    code = "unknown-session"


class DuplicateSessionError(ServiceError):
    """An ``attach`` named a ``(tenant, session)`` key that already exists."""

    code = "session-exists"


class StoreBackend:
    """Cold storage for session snapshots, keyed by ``(tenant, session)``.

    Implementations store opaque JSON payload strings; the
    :class:`SessionStore` owns the snapshot schema.  All methods are
    synchronous and some run on the step path: a step that resumes an
    evicted session pays one ``get`` and one ``delete``.
    :meth:`put_many` is the one write method; an eviction sweep is one
    call, so it commits (or fails) as a whole.
    """

    #: CLI-friendly backend name (``"memory"`` / ``"sqlite"``).
    kind = "abstract"

    def put(self, tenant: str, session: str, payload: str) -> None:
        """Insert or replace the snapshot for ``(tenant, session)``."""
        self.put_many([(tenant, session, payload)])

    def put_many(self, items: Iterable[tuple[str, str, str]]) -> None:
        """Insert or replace every ``(tenant, session, payload)``: all or none."""
        raise NotImplementedError

    def get(self, tenant: str, session: str) -> str | None:
        """The stored snapshot payload, or ``None`` when absent."""
        raise NotImplementedError

    def delete(self, tenant: str, session: str) -> bool:
        """Remove the snapshot; returns whether one existed."""
        raise NotImplementedError

    def keys(self) -> list[tuple[str, str]]:
        """Every stored ``(tenant, session)`` key, sorted."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of stored snapshots."""
        return len(self.keys())

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class DictBackend(StoreBackend):
    """An in-process mapping backend: one worker, tests, benchmarks.

    Snapshots live in a plain dict owned by this object, so two
    :class:`SessionStore` handles sharing one ``DictBackend`` instance
    model two workers over shared storage without touching disk.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._payloads: dict[tuple[str, str], str] = {}

    def put_many(self, items: Iterable[tuple[str, str, str]]) -> None:
        """Insert or replace every ``(tenant, session, payload)``: all or none."""
        self._payloads.update(
            {(tenant, session): payload for tenant, session, payload in items}
        )

    def get(self, tenant: str, session: str) -> str | None:
        """The stored snapshot payload, or ``None`` when absent."""
        return self._payloads.get((tenant, session))

    def delete(self, tenant: str, session: str) -> bool:
        """Remove the snapshot; returns whether one existed."""
        return self._payloads.pop((tenant, session), None) is not None

    def keys(self) -> list[tuple[str, str]]:
        """Every stored ``(tenant, session)`` key, sorted."""
        return sorted(self._payloads)


class SQLiteBackend(StoreBackend):
    """A SQLite file backend: snapshots shared across workers/restarts.

    One table keyed by ``(tenant, session)`` with an ``updated_at``
    wall-clock column for operators.  The database runs in WAL mode
    with ``synchronous=FULL``: every commit is durable before the call
    returns, and costs one append to the ``-wal`` file plus one fsync.
    The connection is guarded by a lock and created with
    ``check_same_thread=False`` so a background service thread and a
    foreground CLI can share one handle.
    """

    kind = "sqlite"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock, self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS sessions ("
                " tenant TEXT NOT NULL,"
                " session TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " updated_at REAL NOT NULL,"
                " PRIMARY KEY (tenant, session))"
            )

    def put_many(self, items: Iterable[tuple[str, str, str]]) -> None:
        """Insert or replace every ``(tenant, session, payload)``: all or none.

        The batch is one transaction: it commits once, and any error
        (or a crash) part-way leaves every stored row as it was.
        """
        now = time.time()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO sessions (tenant, session, payload, updated_at)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT (tenant, session)"
                " DO UPDATE SET payload = excluded.payload,"
                " updated_at = excluded.updated_at",
                (
                    (tenant, session, payload, now)
                    for tenant, session, payload in items
                ),
            )

    def get(self, tenant: str, session: str) -> str | None:
        """The stored snapshot payload, or ``None`` when absent."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM sessions WHERE tenant = ? AND session = ?",
                (tenant, session),
            ).fetchone()
        return None if row is None else row[0]

    def delete(self, tenant: str, session: str) -> bool:
        """Remove the snapshot; returns whether one existed."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "DELETE FROM sessions WHERE tenant = ? AND session = ?",
                (tenant, session),
            )
        return cursor.rowcount > 0

    def keys(self) -> list[tuple[str, str]]:
        """Every stored ``(tenant, session)`` key, sorted."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, session FROM sessions ORDER BY tenant, session"
            ).fetchall()
        return [(tenant, session) for tenant, session in rows]

    def __len__(self) -> int:
        """Number of stored snapshots."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM sessions"
            ).fetchone()
        return int(count)

    def close(self) -> None:
        """Close the SQLite connection (idempotent)."""
        with self._lock:
            self._conn.close()


def make_backend(kind: str, path: str | Path | None = None) -> StoreBackend:
    """Build a cold-store backend from a CLI-friendly name.

    ``"memory"`` needs no path; ``"sqlite"`` requires the database file
    path.  Unknown kinds raise :class:`~repro.errors.ServiceError`.
    """
    if kind == "memory":
        return DictBackend()
    if kind == "sqlite":
        if path is None:
            raise ServiceError("the sqlite backend requires a store path")
        return SQLiteBackend(path)
    raise ServiceError(
        f"unknown store backend {kind!r}; expected 'memory' or 'sqlite'"
    )


@dataclass
class HotSession:
    """One live session in the hot tier: monitor, RNG, bookkeeping."""

    tenant: str
    session: str
    scheme: str
    seed: int
    monitor: SafetyMonitor
    rng: np.random.Generator
    last_used: float
    #: How many times this session has been resumed from cold storage.
    resumes: int = 0

    def snapshot(self) -> dict:
        """This session's full state as a JSON-able cold-tier snapshot."""
        return {
            "version": SNAPSHOT_VERSION,
            "tenant": self.tenant,
            "session": self.session,
            "scheme": self.scheme,
            "seed": int(self.seed),
            "resumes": int(self.resumes),
            "monitor": self.monitor.state_dict(),
            "rng": self.rng.bit_generator.state,
        }

    def stats(self) -> dict:
        """Final counters reported by ``detach``."""
        monitor = self.monitor
        return {
            "steps": int(monitor.total_steps),
            "default_steps": int(monitor.default_steps),
            "default_fraction": float(monitor.default_fraction),
            "resumes": int(self.resumes),
        }


def _restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a snapshot's bit-generator state."""
    rng = rng_from_seed(0)
    expected = type(rng.bit_generator).__name__
    if state.get("bit_generator") != expected:
        raise ServiceError(
            f"snapshot RNG is {state.get('bit_generator')!r}, "
            f"this runtime uses {expected!r}"
        )
    rng.bit_generator.state = state
    return rng


class SessionStore:
    """Two-tier monitor state keyed by ``(tenant, session)``.

    *backend* is the cold tier; *monitor_factory* maps a scheme name to
    a fresh, config-matching :class:`~repro.core.monitor.SafetyMonitor`
    (the service passes its scheme registry's
    :meth:`~repro.service.schemes.SchemeRuntime.new_monitor`).
    *hot_ttl_s* is the idle bound for :meth:`evict_idle` (``inf``: no
    TTL eviction; NaN is refused); *clock* is injectable so tests drive
    eviction deterministically.

    All methods are lock-guarded: the asyncio service is single-threaded
    but tests and the benchmark drive stores from helper threads.
    """

    def __init__(
        self,
        backend: StoreBackend,
        monitor_factory: Callable[[str], SafetyMonitor],
        hot_ttl_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not hot_ttl_s > 0:
            raise ServiceError(f"hot_ttl_s must be > 0, got {hot_ttl_s}")
        self.backend = backend
        self.hot_ttl_s = float(hot_ttl_s)
        self._factory = monitor_factory
        self._clock = clock
        self._hot: dict[tuple[str, str], HotSession] = {}
        self._lock = threading.RLock()
        #: Total sessions snapshotted to cold storage by eviction.
        self.evictions = 0
        #: Total sessions resumed from cold storage.
        self.resumes = 0

    @property
    def hot_count(self) -> int:
        """Live sessions currently occupying hot slots."""
        with self._lock:
            return len(self._hot)

    @property
    def cold_count(self) -> int:
        """Snapshots currently in the cold tier."""
        return len(self.backend)

    def contains(self, tenant: str, session: str) -> bool:
        """Whether the key exists in either tier."""
        key = (tenant, session)
        with self._lock:
            if key in self._hot:
                return True
        return self.backend.get(tenant, session) is not None

    def hot_keys(self) -> list[tuple[str, str]]:
        """Every hot ``(tenant, session)`` key, sorted."""
        with self._lock:
            return sorted(self._hot)

    def attach(
        self, tenant: str, session: str, scheme: str, seed: int
    ) -> HotSession:
        """Register a new session and return its live hot entry.

        Raises :class:`DuplicateSessionError` when the key already
        exists in either tier — re-attaching would silently discard
        monitor state.
        """
        key = (tenant, session)
        with self._lock:
            if key in self._hot or self.backend.get(tenant, session) is not None:
                raise DuplicateSessionError(
                    f"session {tenant}/{session} is already attached"
                )
            monitor = self._factory(scheme)
            monitor.reset()
            entry = HotSession(
                tenant=tenant,
                session=session,
                scheme=scheme,
                seed=int(seed),
                monitor=monitor,
                rng=rng_from_seed(int(seed)),
                last_used=self._clock(),
            )
            self._hot[key] = entry
            return entry

    def checkout(self, tenant: str, session: str) -> tuple[HotSession, bool]:
        """The live entry for a key, resuming from cold when evicted.

        Returns ``(entry, resumed)``; a resumed entry was rebuilt from
        its snapshot (fresh monitor from the scheme factory, restored
        state and RNG) and produces bitwise-identical decisions from
        here on.  Raises :class:`UnknownSessionError` for absent keys.
        """
        key = (tenant, session)
        with self._lock:
            entry = self._hot.get(key)
            if entry is not None:
                entry.last_used = self._clock()
                return entry, False
            payload = self.backend.get(tenant, session)
            if payload is None:
                raise UnknownSessionError(
                    f"session {tenant}/{session} is not attached"
                )
            entry = self._resume(payload)
            # The cold row goes (durably) before the entry turns hot: a
            # hot session never has a cold copy a crash could leave
            # behind to be resumed stale.
            self.backend.delete(tenant, session)
            self._hot[key] = entry
            self.resumes += 1
            obs.inc("service.resumes", tenant=tenant)
            return entry, True

    def _resume(self, payload: str) -> HotSession:
        """Rebuild a hot entry from a cold-tier snapshot payload."""
        snapshot = json.loads(payload)
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ServiceError(
                f"session snapshot version {version!r} is not {SNAPSHOT_VERSION}"
            )
        monitor = self._factory(snapshot["scheme"])
        monitor.load_state_dict(snapshot["monitor"])
        return HotSession(
            tenant=snapshot["tenant"],
            session=snapshot["session"],
            scheme=snapshot["scheme"],
            seed=int(snapshot["seed"]),
            monitor=monitor,
            rng=_restore_rng(snapshot["rng"]),
            last_used=self._clock(),
            resumes=int(snapshot.get("resumes", 0)) + 1,
        )

    def evict_idle(
        self, max_idle_s: float | None = None, now: float | None = None
    ) -> int:
        """Snapshot hot sessions idle for ``>= max_idle_s`` to cold.

        *max_idle_s* defaults to the store's TTL; ``0`` evicts
        everything (the ``reopen``/shutdown path).  The sweep is one
        :meth:`StoreBackend.put_many` call: sessions leave the hot tier
        only once it has returned, so a failed write loses none.
        Returns how many sessions moved.
        """
        bound = self.hot_ttl_s if max_idle_s is None else float(max_idle_s)
        with self._lock:
            current = self._clock() if now is None else now
            idle = [
                (key, entry)
                for key, entry in self._hot.items()
                if current - entry.last_used >= bound
            ]
            self.backend.put_many(
                [(*key, json.dumps(entry.snapshot())) for key, entry in idle]
            )
            for (tenant, session), _ in idle:
                del self._hot[tenant, session]
                obs.inc("service.evictions", tenant=tenant)
            self.evictions += len(idle)
        return len(idle)

    def evict_all(self) -> int:
        """Snapshot every hot session to cold (shutdown/reopen path)."""
        return self.evict_idle(max_idle_s=0.0)

    def detach(self, tenant: str, session: str) -> dict:
        """Remove a session from both tiers; returns its final counters.

        Works on hot and evicted sessions alike; raises
        :class:`UnknownSessionError` for absent keys.
        """
        key = (tenant, session)
        with self._lock:
            entry = self._hot.pop(key, None)
            if entry is not None:
                self.backend.delete(tenant, session)
                return entry.stats()
            payload = self.backend.get(tenant, session)
            if payload is None:
                raise UnknownSessionError(
                    f"session {tenant}/{session} is not attached"
                )
            self.backend.delete(tenant, session)
        snapshot = json.loads(payload)
        monitor_state = snapshot["monitor"]
        steps = int(monitor_state["total_steps"])
        default_steps = int(monitor_state["default_steps"])
        return {
            "steps": steps,
            "default_steps": default_steps,
            "default_fraction": default_steps / steps if steps else 0.0,
            "resumes": int(snapshot.get("resumes", 0)),
        }

    def close(self) -> None:
        """Close the cold backend (hot entries are discarded)."""
        self.backend.close()
