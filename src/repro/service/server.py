"""The multi-tenant safety service: asyncio line-JSON over a socket.

:class:`SafetyService` is the long-lived server.  It holds only
*stateless* artifacts per scheme (:class:`~repro.service.schemes
.SchemeRuntime`) plus one pluggable
:class:`~repro.service.store.SessionStore`; clients own their
environments and send raw observations, the service answers each with a
monitored action.  Because every byte of session state lives in the
store, any worker booted with the same schemes can resume any session —
including one TTL-evicted to cold storage — with bitwise-identical
decisions.

Overload handling is two-layered and *structured* (clients always get a
machine-readable code, never a dropped connection):

* **admission control** — ``attach`` beyond the ``max_sessions``
  hot-slot budget first tries a TTL eviction pass to free idle slots,
  then rejects with ``overloaded``;
* **load shedding** — when more than ``max_inflight`` stateful requests
  are already executing, new ones are refused with ``shed`` before any
  work happens (``stats``/``ping``/admin ops are never shed, so
  operators can always look inside a saturated service).

:class:`BackgroundService` runs a service event loop in a daemon thread
for tests, benchmarks, and notebooks.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import sys
import threading
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ServiceError
from repro.service import protocol
from repro.service.protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_OVERLOADED,
    CODE_SHED,
    CODE_UNKNOWN_OP,
    CODE_UNKNOWN_SCHEME,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.schemes import SchemeRuntime
from repro.service.store import SessionStore, make_backend

__all__ = [
    "SHEDDABLE_OPS",
    "BackgroundService",
    "SafetyService",
    "ServiceConfig",
    "UnknownSchemeError",
]

#: Stateful operations subject to load shedding; admin/health ops are
#: always admitted so a saturated service stays observable.
SHEDDABLE_OPS = frozenset({"attach", "step", "detach", "sleep"})

#: Upper bound accepted by the ``sleep`` diagnostic op.
_MAX_SLEEP_S = 10.0


class UnknownSchemeError(ServiceError):
    """``attach`` named a scheme the service was not booted with."""

    code = CODE_UNKNOWN_SCHEME


@dataclass
class ServiceConfig:
    """Boot-time configuration of a :class:`SafetyService`."""

    #: Interface to bind; loopback by default.
    host: str = "127.0.0.1"
    #: TCP port; ``0`` lets the OS pick (read ``bound_port`` after boot).
    port: int = 0
    #: Cold-store backend kind: ``"memory"`` or ``"sqlite"``.
    store: str = "memory"
    #: SQLite database path (required when ``store == "sqlite"``).
    store_path: str | None = None
    #: Idle bound before a hot session is snapshotted to cold storage;
    #: ``inf`` means never (only an explicit ``evict`` moves it).
    hot_ttl_s: float = 300.0
    #: Period of the background eviction task; ``0`` disables it and
    #: ``inf`` starts a task that never sweeps.
    evict_interval_s: float = 0.0
    #: Hot-slot budget enforced by admission control on ``attach``.
    max_sessions: int = 64
    #: Concurrent stateful requests before load shedding kicks in.
    max_inflight: int = 64

    def __post_init__(self) -> None:
        """Reject configurations the service could not run under."""
        if self.store not in ("memory", "sqlite"):
            raise ServiceError(
                f"unknown store backend {self.store!r};"
                " expected 'memory' or 'sqlite'"
            )
        if self.store == "sqlite" and not self.store_path:
            raise ServiceError("the sqlite backend requires a store path")
        # Negated comparisons, so NaN (False against everything) fails.
        if not self.hot_ttl_s > 0:
            raise ServiceError(f"hot_ttl_s must be > 0, got {self.hot_ttl_s}")
        if not self.evict_interval_s >= 0:
            raise ServiceError(
                f"evict_interval_s must be >= 0, got {self.evict_interval_s}"
            )
        if self.max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


def _require_str(message: dict, fld: str) -> str:
    """The non-empty string under *fld*, or a :class:`ProtocolError`."""
    value = message.get(fld)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"field {fld!r} must be a non-empty string")
    # json.loads passes lone surrogates ("\ud800") through; the SQLite
    # store cannot encode them, so such a key would fail every sweep.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"field {fld!r} is not valid UTF-8: {exc}") from exc
    return value


#: The types ``json.loads`` gives numbers (``bool`` is not among them).
_NUMBER_TYPES = frozenset((int, float))


def _require_observation(message: dict) -> np.ndarray:
    """The request's observation as a float array, strictly validated."""
    value = message.get("observation")
    if not isinstance(value, list):
        raise ProtocolError("field 'observation' must be a JSON array")
    # Every leaf must be a JSON number: numpy would read "1" and true as
    # 1.0 and feed them to the signal.  Walk the nesting one level at a
    # time; a level mixing lists with anything else is ragged.
    level = value
    kinds = set(map(type, level))
    while kinds == {list}:
        level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
    strays = kinds - _NUMBER_TYPES
    if strays:
        bad = next(entry for entry in level if type(entry) in strays)
        raise ProtocolError(f"observation entries must be JSON numbers, got {bad!r}")
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"observation is not numeric: {exc}") from exc
    if array.size == 0:
        raise ProtocolError("observation must not be empty")
    # json.loads accepts NaN/Infinity literals; one folded into a trigger
    # window would keep that session's trigger from firing.
    if not np.isfinite(array).all():
        raise ProtocolError("observation must be finite (no NaN or Infinity)")
    return array


class SafetyService:
    """A long-lived multi-tenant OSAP server over line-delimited JSON.

    *schemes* are the runtimes this worker can serve; *config* fixes
    the bind address, the store backend, and the overload budgets.
    *clock* is injected into the session store so tests can drive TTL
    eviction deterministically.  Boot with :meth:`run` (an ``async``
    main) or wrap in :class:`BackgroundService` for a thread.
    """

    def __init__(
        self,
        schemes: list[SchemeRuntime],
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not schemes:
            raise ServiceError("a service needs at least one scheme")
        self.schemes = {runtime.name: runtime for runtime in schemes}
        if len(self.schemes) != len(schemes):
            raise ServiceError("scheme names must be unique")
        shapes = {runtime.observation_shape for runtime in schemes}
        # ``step`` rejects a shape no scheme declares before the store
        # checkout, so a bad line never resumes an evicted session; an
        # unchecked (``None``) scheme accepts any shape and disables it.
        self._step_shapes = None if None in shapes else sorted(shapes)
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.store = self._new_store(self._new_backend())
        #: Host the server actually bound (set once :meth:`run` is up).
        self.bound_host: str | None = None
        #: Port the server actually bound (set once :meth:`run` is up).
        self.bound_port: int | None = None
        #: Called with the service once it is accepting connections.
        self.on_ready: Callable[["SafetyService"], None] | None = None
        #: Requests refused by load shedding since boot.
        self.shed_count = 0
        #: Attaches refused by admission control since boot.
        self.overload_count = 0
        #: Background TTL sweeps that raised since boot.
        self.failed_sweeps = 0
        self._inflight = 0
        self._shutdown_event: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._handlers = {
            "ping": self._op_ping,
            "attach": self._op_attach,
            "step": self._op_step,
            "detach": self._op_detach,
            "stats": self._op_stats,
            "evict": self._op_evict,
            "reopen": self._op_reopen,
            "sleep": self._op_sleep,
            "shutdown": self._op_shutdown,
        }

    def _new_backend(self):
        """A cold-store backend per the service configuration."""
        return make_backend(self.config.store, self.config.store_path)

    def _new_store(self, backend) -> SessionStore:
        """A session store over *backend* with this service's TTL."""
        return SessionStore(
            backend,
            self._new_monitor,
            hot_ttl_s=self.config.hot_ttl_s,
            clock=self._clock,
        )

    def _new_monitor(self, scheme: str):
        """The store's monitor factory: fork the named scheme's prototype."""
        runtime = self.schemes.get(scheme)
        if runtime is None:
            raise UnknownSchemeError(
                f"unknown scheme {scheme!r};"
                f" this worker serves {sorted(self.schemes)}"
            )
        return runtime.new_monitor()

    # ------------------------------------------------------------------
    # Request handling

    async def dispatch(self, message: dict) -> dict:
        """Route one decoded request to its handler; never raises.

        Applies load shedding to :data:`SHEDDABLE_OPS` before any work,
        and maps every :class:`~repro.errors.ServiceError` to its stable
        wire code (unexpected exceptions become ``internal``).
        """
        op = message.get("op")
        if not isinstance(op, str):
            return protocol.fail(
                CODE_BAD_REQUEST, "request must carry a string 'op' field"
            )
        handler = self._handlers.get(op)
        if handler is None:
            return protocol.fail(CODE_UNKNOWN_OP, f"unknown operation {op!r}")
        if obs.enabled():
            obs.inc("service.requests", op=op)
        sheddable = op in SHEDDABLE_OPS
        if sheddable and self._inflight >= self.config.max_inflight:
            self.shed_count += 1
            if obs.enabled():
                obs.inc("service.shed", op=op)
            return protocol.fail(
                CODE_SHED,
                f"{self._inflight} requests already in flight"
                f" (max_inflight={self.config.max_inflight}); retry later",
                inflight=self._inflight,
            )
        if sheddable:
            self._inflight += 1
        try:
            return await handler(message)
        except ServiceError as exc:
            return protocol.fail(exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return protocol.fail(
                CODE_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            if sheddable:
                self._inflight -= 1

    async def _op_ping(self, message: dict) -> dict:
        """Health check: protocol version and the served schemes."""
        return protocol.ok(
            "ping",
            protocol=PROTOCOL_VERSION,
            schemes=sorted(self.schemes),
        )

    async def _op_attach(self, message: dict) -> dict:
        """Register a session under a scheme, subject to admission."""
        tenant = _require_str(message, "tenant")
        session = _require_str(message, "session")
        scheme = _require_str(message, "scheme")
        seed = message.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ProtocolError(
                f"field 'seed' must be a non-negative integer, got {seed!r}"
            )
        if scheme not in self.schemes:
            raise UnknownSchemeError(
                f"unknown scheme {scheme!r};"
                f" this worker serves {sorted(self.schemes)}"
            )
        if self.store.hot_count >= self.config.max_sessions:
            # Admission control: try to free slots held by idle sessions
            # before refusing; live sessions are never degraded.
            self.store.evict_idle()
            if self.store.hot_count >= self.config.max_sessions:
                self.overload_count += 1
                if obs.enabled():
                    obs.inc("service.overloaded", tenant=tenant)
                return protocol.fail(
                    CODE_OVERLOADED,
                    f"hot-slot budget exhausted"
                    f" ({self.store.hot_count}/{self.config.max_sessions});"
                    " detach a session or retry after the TTL",
                    live=self.store.hot_count,
                    max_sessions=self.config.max_sessions,
                )
        self.store.attach(tenant, session, scheme, seed)
        if obs.enabled():
            obs.inc("service.attaches", tenant=tenant)
        return protocol.ok(
            "attach", tenant=tenant, session=session, scheme=scheme, seed=seed
        )

    async def _op_step(self, message: dict) -> dict:
        """One monitored decision: fold the observation, pick, act."""
        tenant = _require_str(message, "tenant")
        session = _require_str(message, "session")
        observation = _require_observation(message)
        shapes = self._step_shapes
        if shapes is not None and observation.shape not in shapes:
            raise ProtocolError(
                f"observation has shape {observation.shape}, this service "
                f"expects {' or '.join(map(str, shapes))}"
            )
        entry, resumed = self.store.checkout(tenant, session)
        runtime = self.schemes[entry.scheme]
        expected = runtime.observation_shape
        if expected is not None and observation.shape != expected:
            raise ProtocolError(
                f"observation has shape {observation.shape}, "
                f"scheme {entry.scheme!r} expects {expected}"
            )
        decision = entry.monitor.observe(observation)
        policy = runtime.policy_for(decision.defaulted)
        action = policy.act(observation, entry.rng)
        if obs.enabled():
            obs.inc("service.steps", tenant=tenant)
        signal_value = (
            None
            if math.isnan(decision.signal_value)
            else float(decision.signal_value)
        )
        return protocol.ok(
            "step",
            action=int(action),
            step=int(decision.step),
            defaulted=bool(decision.defaulted),
            fired=bool(decision.fired),
            handoff=bool(decision.handoff),
            signal_value=signal_value,
            resumed=bool(resumed),
        )

    async def _op_detach(self, message: dict) -> dict:
        """Finish a session (hot or cold) and report its counters."""
        tenant = _require_str(message, "tenant")
        session = _require_str(message, "session")
        stats = self.store.detach(tenant, session)
        if obs.enabled():
            obs.inc("service.detaches", tenant=tenant)
        return protocol.ok("detach", tenant=tenant, session=session, **stats)

    async def _op_stats(self, message: dict) -> dict:
        """Occupancy and counters; never shed, safe under saturation."""
        if obs.enabled():
            obs.set_gauge("service.hot_sessions", float(self.store.hot_count))
            obs.set_gauge("service.cold_sessions", float(self.store.cold_count))
        return protocol.ok(
            "stats",
            hot=self.store.hot_count,
            cold=self.store.cold_count,
            evictions=self.store.evictions,
            resumes=self.store.resumes,
            shed=self.shed_count,
            overloaded=self.overload_count,
            failed_sweeps=self.failed_sweeps,
            inflight=self._inflight,
            max_sessions=self.config.max_sessions,
            max_inflight=self.config.max_inflight,
            store=self.store.backend.kind,
            schemes=sorted(self.schemes),
        )

    async def _op_evict(self, message: dict) -> dict:
        """Run one eviction pass now (idle bound overridable).

        ``max_idle_s`` must be a finite number of seconds ``>= 0``: a
        bool, NaN, an infinity or a negative bound is refused, not read
        as 1 s, as "evict nothing" or as "evict everything".
        """
        bound = message.get("max_idle_s")
        if bound is not None and (
            isinstance(bound, bool)
            or not isinstance(bound, (int, float))
            or not 0 <= bound <= sys.float_info.max
        ):
            raise ProtocolError(
                "field 'max_idle_s' must be a finite number of seconds >= 0"
            )
        evicted = self.store.evict_idle(
            None if bound is None else float(bound)
        )
        return protocol.ok(
            "evict",
            evicted=evicted,
            hot=self.store.hot_count,
            cold=self.store.cold_count,
        )

    async def _op_reopen(self, message: dict) -> dict:
        """Snapshot everything and rebuild the store handle.

        Proves worker statelessness end-to-end: after ``reopen`` every
        session is served from a store object (and, for SQLite, a
        database connection) that did not exist when it was attached —
        exactly what a session hopping to another worker experiences.
        """
        evicted = self.store.evict_all()
        if self.store.backend.kind == "sqlite":
            self.store.close()
            backend = self._new_backend()
        else:
            # The dict backend *is* the shared storage; a fresh store
            # handle over the same object models the new worker.
            backend = self.store.backend
        self.store = self._new_store(backend)
        return protocol.ok(
            "reopen", evicted=evicted, cold=self.store.cold_count
        )

    async def _op_sleep(self, message: dict) -> dict:
        """Hold one in-flight slot for a while (diagnostics/tests).

        ``seconds`` is compared before any ``float()``: int and float
        compare exactly, so an integer too large for a float is refused
        like any other out-of-range value instead of overflowing.
        """
        seconds = message.get("seconds", 0.05)
        if (
            not isinstance(seconds, (int, float))
            or isinstance(seconds, bool)
            or not 0 <= seconds <= _MAX_SLEEP_S
        ):
            raise ProtocolError(
                f"field 'seconds' must be a number in [0, {_MAX_SLEEP_S}]"
            )
        await asyncio.sleep(float(seconds))
        return protocol.ok("sleep", seconds=float(seconds))

    async def _op_shutdown(self, message: dict) -> dict:
        """Acknowledge, then stop the server loop."""
        self.request_shutdown()
        return protocol.ok("shutdown")

    # ------------------------------------------------------------------
    # Server lifecycle

    def request_shutdown(self) -> None:
        """Ask the running server to stop (call on the loop thread)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: read a line, dispatch, write the response."""
        self._writers.add(writer)
        try:
            while not (
                self._shutdown_event is not None
                and self._shutdown_event.is_set()
            ):
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode_message(
                            protocol.fail(
                                CODE_BAD_REQUEST,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    response = await self.dispatch(protocol.decode_message(line))
                except ProtocolError as exc:
                    response = protocol.fail(exc.code, str(exc))
                writer.write(protocol.encode_message(response))
                await writer.drain()
        except ConnectionResetError:
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _evict_loop(self) -> None:
        """Background TTL sweeps every ``evict_interval_s`` seconds.

        A sweep that raises (a locked database, a disk error) moved no
        session — they all stay hot — so it is counted and reported, and
        the next period sweeps again.
        """
        interval = self.config.evict_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                self.store.evict_idle()
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self.failed_sweeps += 1
                obs.event("service.sweep_failed", error=f"{type(exc).__name__}: {exc}")

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown` (or the ``shutdown`` op).

        Binds the configured address (``port=0`` picks a free port,
        published as :attr:`bound_port`), starts the background eviction
        task when configured, fires :attr:`on_ready`, and on the way out
        snapshots every hot session to cold storage so a durable backend
        carries them across the restart — whatever the sweep task ended
        with.
        """
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sockname = server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], int(sockname[1])
        evict_task = (
            asyncio.create_task(self._evict_loop())
            if self.config.evict_interval_s > 0
            else None
        )
        if self.on_ready is not None:
            self.on_ready(self)
        try:
            async with server:
                await self._shutdown_event.wait()
        finally:
            if evict_task is not None:
                evict_task.cancel()
                await asyncio.gather(evict_task, return_exceptions=True)
            for writer in list(self._writers):
                writer.close()
            try:
                self.store.evict_all()
            finally:
                self.store.close()


class BackgroundService:
    """Run a :class:`SafetyService` event loop in a daemon thread.

    The test-and-benchmark harness: ``start()`` blocks until the server
    is accepting connections (re-raising any boot failure), ``stop()``
    requests shutdown thread-safely and joins.  Usable as a context
    manager.
    """

    def __init__(self, service: SafetyService) -> None:
        self.service = service
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="safety-service", daemon=True
        )

    def _run(self) -> None:
        """Thread target: one event loop running the service."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        """Record the loop, arm the ready event, run the service."""
        self._loop = asyncio.get_running_loop()
        self.service.on_ready = lambda _service: self._ready.set()
        await self.service.run()

    def start(self) -> "BackgroundService":
        """Boot the thread; returns once the socket is accepting."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service did not come up within 30s")
        if self._error is not None:
            raise ServiceError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` once the service is up."""
        host, port = self.service.bound_host, self.service.bound_port
        if host is None or port is None:
            raise ServiceError("service is not running")
        return host, port

    def stop(self) -> None:
        """Request shutdown from any thread and join the loop thread.

        A loop that closes between the liveness check and the request
        (a client's ``shutdown`` op can end it at any moment) is already
        stopping, so the request is dropped and the thread joined.
        """
        loop = self._loop
        if loop is not None and self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.service.request_shutdown)
            except RuntimeError:
                if not loop.is_closed():
                    raise
        self._thread.join(timeout=30)
        if self._error is not None:
            raise ServiceError(
                f"service thread failed: {self._error}"
            ) from self._error

    def __enter__(self) -> "BackgroundService":
        """Start on entry."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop on exit (errors from the thread propagate)."""
        self.stop()
