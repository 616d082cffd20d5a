"""Deterministic fault injection for the experiment pipeline.

The resilience guarantees of :mod:`repro.parallel` — retries, pool
respawn, task deadlines, checkpoint resume — are only trustworthy if they
are *tested against real faults*.  This module provides a tiny harness
that injects faults at named sites on a fully deterministic schedule, so
a test (or the CI ``fault-smoke`` job) can kill a worker at exactly the
same point on every run and assert the pipeline recovers identically.

Fault model
-----------

A :class:`ChaosEvent` names a *site*, an *index*, and an *action*:

* site ``"task"`` — fired by the executor inside a worker immediately
  before running the task with that global index,
* site ``"epoch"`` — fired by the A2C trainer and the value regression
  at the end of the epoch with that index (after any checkpoint write,
  so an interruption here models a kill at an epoch boundary),
* action ``"raise"`` — raise :class:`~repro.errors.ChaosError`,
* action ``"kill"``  — ``os._exit`` the process (simulating a segfault
  or an OOM kill; never run this action in a process you cannot lose),
* action ``"delay"`` — sleep for ``delay_s`` seconds (simulating a stall
  that must trip the task deadline).

Schedules are either explicit (a list of events) or *seeded*:
:func:`seeded_events` derives the fire indices from a
:class:`numpy.random.Generator` so a whole fault scenario is a pure
function of one integer seed.

Activation
----------

Like :mod:`repro.obs`, the harness is **off by default**: every
:func:`maybe_fire` call is one ``is None`` check until an injector is
installed via :func:`install` / :func:`injected`, or through the
``REPRO_CHAOS`` environment variable (which forked workers and CLI
subprocesses inherit)::

    REPRO_CHAOS="kill@task:3"                # kill the worker running task 3
    REPRO_CHAOS="raise@epoch:1,delay@task:2:0.5"

Each event fires at most ``times`` times (default once) per process
tree; pass a ``state_dir`` (or ``REPRO_CHAOS_STATE``) to persist fire
counts on disk so the budget also spans pool respawns and process
restarts — that is what lets a "kill once, then succeed" retry scenario
be expressed deterministically.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ChaosError, ConfigError
from repro.util.rng import rng_from_seed

__all__ = [
    "CHAOS_ENV",
    "CHAOS_STATE_ENV",
    "ACTIONS",
    "ChaosEvent",
    "ChaosInjector",
    "seeded_events",
    "parse_chaos_spec",
    "install",
    "uninstall",
    "active",
    "maybe_fire",
    "injected",
]

#: Environment variable holding a chaos spec (see :func:`parse_chaos_spec`).
CHAOS_ENV = "REPRO_CHAOS"
#: Environment variable naming a directory for cross-process fire counts.
CHAOS_STATE_ENV = "REPRO_CHAOS_STATE"

#: The supported fault actions.
ACTIONS = ("raise", "kill", "delay")

#: Exit code used by the ``kill`` action (distinctive in CI logs).
KILL_EXIT_CODE = 43


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: *action* at the *index*-th hit of *site*."""

    site: str
    index: int
    action: str
    delay_s: float = 0.1
    times: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(
                f"unknown chaos action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.index < 0:
            raise ConfigError(f"chaos index must be >= 0, got {self.index}")
        if self.times < 1:
            raise ConfigError(f"chaos times must be >= 1, got {self.times}")
        if self.action == "delay" and self.delay_s <= 0:
            raise ConfigError(
                f"chaos delay_s must be positive, got {self.delay_s}"
            )


class ChaosInjector:
    """Fires a fixed schedule of :class:`ChaosEvent` at hook sites.

    Fire counts live in memory; with *state_dir* they are additionally
    persisted as marker files so a fork-inherited copy of the injector
    (a pool worker, a respawned pool, a resumed CLI run) still honours
    each event's ``times`` budget.
    """

    def __init__(
        self,
        events: Iterable[ChaosEvent],
        state_dir: Path | str | None = None,
    ) -> None:
        self._events: dict[tuple[str, int], ChaosEvent] = {}
        for event in events:
            key = (event.site, event.index)
            if key in self._events:
                raise ConfigError(
                    f"duplicate chaos event for site {event.site!r} "
                    f"index {event.index}"
                )
            self._events[key] = event
        self._fired: dict[tuple[str, int], int] = {}
        self.state_dir = Path(state_dir) if state_dir is not None else None

    @property
    def events(self) -> tuple[ChaosEvent, ...]:
        """The schedule, in (site, index) order."""
        return tuple(self._events[key] for key in sorted(self._events))

    def _fire_count(self, key: tuple[str, int]) -> int:
        if self.state_dir is not None:
            count = 0
            while (self.state_dir / self._marker(key, count)).exists():
                count += 1
            return count
        return self._fired.get(key, 0)

    def _record_fire(self, key: tuple[str, int], count: int) -> None:
        self._fired[key] = count + 1
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            (self.state_dir / self._marker(key, count)).touch()

    @staticmethod
    def _marker(key: tuple[str, int], count: int) -> str:
        site, index = key
        return f"fired-{site}-{index}-{count}"

    def maybe_fire(self, site: str, index: int) -> None:
        """Fire the event scheduled for ``(site, index)``, if any remains.

        ``raise`` raises :class:`ChaosError`; ``kill`` exits the process
        immediately with :data:`KILL_EXIT_CODE`; ``delay`` sleeps.
        """
        key = (site, index)
        event = self._events.get(key)
        if event is None:
            return
        count = self._fire_count(key)
        if count >= event.times:
            return
        self._record_fire(key, count)
        if event.action == "delay":
            time.sleep(event.delay_s)
            return
        if event.action == "kill":
            os._exit(KILL_EXIT_CODE)
        raise ChaosError(
            f"injected failure at {site}:{index} "
            f"(fire {count + 1}/{event.times})"
        )


def seeded_events(
    seed: int,
    site: str,
    population: int,
    count: int,
    action: str = "raise",
    delay_s: float = 0.1,
    times: int = 1,
) -> list[ChaosEvent]:
    """A deterministic schedule: *count* distinct fire indices drawn
    without replacement from ``range(population)`` by a generator seeded
    with *seed*.  The same arguments always produce the same schedule, in
    any process, which is what makes chaos runs reproducible."""
    if not 0 <= count <= population:
        raise ConfigError(
            f"need 0 <= count <= population, got count={count} "
            f"population={population}"
        )
    rng = rng_from_seed(seed)
    indices = sorted(rng.choice(population, size=count, replace=False).tolist())
    return [
        ChaosEvent(site=site, index=int(i), action=action, delay_s=delay_s, times=times)
        for i in indices
    ]


def parse_chaos_spec(spec: str) -> list[ChaosEvent]:
    """Parse a ``REPRO_CHAOS`` spec string into events.

    Grammar: comma-separated ``action@site:index`` terms, with an optional
    trailing ``:seconds`` for ``delay`` — e.g.
    ``"kill@task:3,raise@epoch:1,delay@task:2:0.5"``.
    """
    events = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        try:
            action, _, location = term.partition("@")
            parts = location.split(":")
            site, index = parts[0], int(parts[1])
            delay_s = float(parts[2]) if len(parts) > 2 else 0.1
        except (ValueError, IndexError) as exc:
            raise ConfigError(
                f"malformed chaos term {term!r}; expected "
                "action@site:index[:delay_seconds]"
            ) from exc
        events.append(
            ChaosEvent(site=site, index=index, action=action, delay_s=delay_s)
        )
    if not events:
        raise ConfigError(f"chaos spec {spec!r} contains no events")
    return events


_INJECTOR: ChaosInjector | None = None


def install(injector: ChaosInjector) -> None:
    """Install *injector* as the process-wide chaos schedule."""
    global _INJECTOR
    _INJECTOR = injector


def uninstall() -> None:
    """Remove any installed injector (hook sites become no-ops again)."""
    global _INJECTOR
    _INJECTOR = None


def active() -> bool:
    """Whether a chaos schedule is currently installed."""
    return _INJECTOR is not None


def maybe_fire(site: str, index: int) -> None:
    """Hook-site facade: fire the scheduled fault for ``(site, index)``,
    or do nothing when no injector is installed (the common case — one
    ``is None`` check)."""
    if _INJECTOR is not None:
        _INJECTOR.maybe_fire(site, index)


@contextmanager
def injected(
    events: Sequence[ChaosEvent],
    state_dir: Path | str | None = None,
) -> Iterator[ChaosInjector]:
    """Install a schedule within a ``with`` block (test convenience)."""
    injector = ChaosInjector(events, state_dir=state_dir)
    previous = _INJECTOR
    install(injector)
    try:
        yield injector
    finally:
        install(previous) if previous is not None else uninstall()


def _bootstrap_from_env() -> None:
    """Install a schedule from ``REPRO_CHAOS`` at import time, so CLI
    subprocesses and forked workers participate without code changes."""
    spec = os.environ.get(CHAOS_ENV, "").strip()
    if not spec:
        return
    state_dir = os.environ.get(CHAOS_STATE_ENV, "").strip() or None
    install(ChaosInjector(parse_chaos_spec(spec), state_dir=state_dir))


_bootstrap_from_env()
