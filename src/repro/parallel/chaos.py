"""Deterministic fault injection for the experiment pipeline.

Checkpoint resume is only trustworthy if it is *tested against real
faults*.  This module provides a tiny harness that injects faults at
named sites on a fully deterministic schedule, so a test (or
``tools/fault_smoke.py``, the CI ``fault-smoke`` job) can kill a suite
build at exactly the same point on every run and assert that
``--resume`` finishes it with bitwise-identical artifacts.

Fault model
-----------

A :class:`ChaosEvent` names a *site*, an *index*, and an *action*:

* site ``"epoch"`` — fired by the A2C trainer and the value regression
  at the end of the epoch with that index (after any checkpoint write,
  so an interruption here models a kill at an epoch boundary),
* action ``"raise"`` — raise :class:`~repro.errors.ChaosError`,
* action ``"kill"``  — ``os._exit`` the process (simulating a segfault
  or an OOM kill; never run this action in a process you cannot lose).

Activation
----------

Like :mod:`repro.obs`, the harness is **off by default**: every
:func:`maybe_fire` call is one ``is None`` check until an injector is
installed via :func:`install` / :func:`injected`, or through the
``REPRO_CHAOS`` environment variable (which forked workers and CLI
subprocesses inherit)::

    REPRO_CHAOS="kill@epoch:1"               # kill at the end of epoch 1
    REPRO_CHAOS="raise@epoch:0,kill@epoch:2"

Each event fires at most ``times`` times (default once) per process
tree; pass a ``state_dir`` (or ``REPRO_CHAOS_STATE``) to persist fire
counts on disk so the budget also spans process restarts — that is what
lets a "kill once, then resume and succeed" scenario be expressed
deterministically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ChaosError, ConfigError

__all__ = [
    "CHAOS_ENV",
    "CHAOS_STATE_ENV",
    "ACTIONS",
    "SITES",
    "ChaosEvent",
    "ChaosInjector",
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
ACTIONS = ("raise", "kill")
#: The hook sites the library fires.
SITES = ("epoch",)

#: Exit code used by the ``kill`` action (distinctive in CI logs).
KILL_EXIT_CODE = 43


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: *action* at the *index*-th hit of *site*."""

    site: str
    index: int
    action: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(
                f"unknown chaos action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.site not in SITES:
            raise ConfigError(
                f"unknown chaos site {self.site!r}; expected one of {SITES}"
            )
        if self.index < 0:
            raise ConfigError(f"chaos index must be >= 0, got {self.index}")
        if self.times < 1:
            raise ConfigError(f"chaos times must be >= 1, got {self.times}")


class ChaosInjector:
    """Fires a fixed schedule of :class:`ChaosEvent` at hook sites.

    Fire counts live in memory; with *state_dir* they are additionally
    persisted as marker files so a fork-inherited copy of the injector
    (a pool worker, a resumed CLI run) still honours each event's
    ``times`` budget.
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
        immediately with :data:`KILL_EXIT_CODE`.
        """
        key = (site, index)
        event = self._events.get(key)
        if event is None:
            return
        count = self._fire_count(key)
        if count >= event.times:
            return
        self._record_fire(key, count)
        if event.action == "kill":
            os._exit(KILL_EXIT_CODE)
        raise ChaosError(
            f"injected failure at {site}:{index} "
            f"(fire {count + 1}/{event.times})"
        )


def parse_chaos_spec(spec: str) -> list[ChaosEvent]:
    """Parse a ``REPRO_CHAOS`` spec string into events.

    Grammar: comma-separated ``action@site:index`` terms, e.g.
    ``"raise@epoch:0,kill@epoch:2"``.
    """
    events = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        try:
            action, _, location = term.partition("@")
            site, raw_index = location.split(":")
            index = int(raw_index)
        except ValueError as exc:
            raise ConfigError(
                f"malformed chaos term {term!r}; expected action@site:index"
            ) from exc
        events.append(ChaosEvent(site=site, index=index, action=action))
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
