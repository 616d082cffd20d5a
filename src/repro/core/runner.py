"""The session loop: the monitor decides, then the chosen policy acts.

This is the one place a monitored session is streamed step by step.  The
domain enters only through a :class:`SessionFactory` — it builds the
seeded environment for a :class:`SessionSpec`, says how many decision
steps a session has, and produces the per-step record and the result
object — so the same loop, with the same decision ordering and the same
observability output, runs every workload.  The ABR entry points
(:func:`repro.abr.session.run_session` and
:func:`repro.abr.session.run_monitored_session`) are one call each into
it, and it is the serial bitwise reference the serve engine's batched
paths are checked against.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.core.monitor import SafetyMonitor
from repro.errors import SimulationError
from repro.mdp.interfaces import Environment, Policy, StepResult
from repro.util.rng import rng_from_seed

if TYPE_CHECKING:
    from repro.traces.trace import Trace

__all__ = [
    "MonitoredSessionResult",
    "SessionFactory",
    "SessionSpec",
    "run_monitored_session",
    "run_session",
]


class SessionSpec:
    """What one monitored session streams: a trace, a seed, a name.

    Pure data (picklable), so a spec can be shipped to a worker process
    and produce the same floats there as in-process.  Domain-agnostic:
    every domain's factory interprets the same spec fields.  *seed* is
    an ``int`` or an ``np.random.Generator`` (``None`` draws fresh
    entropy); a generator is used as the session RNG directly, so
    callers that share one across sessions (value-target collection)
    keep a single seed stream.
    """

    def __init__(
        self,
        trace: Trace,
        seed: int | np.random.Generator | None = 0,
        name: str | None = None,
        start_offset_s: float = 0.0,
    ) -> None:
        self.trace = trace
        self.seed = seed
        self.name = name
        self.start_offset_s = start_offset_s

    def __repr__(self) -> str:
        return (
            f"SessionSpec(trace={self.trace.name!r}, seed={self.seed}, "
            f"name={self.name!r})"
        )


class MonitoredSessionResult:
    """A generic per-session record: one entry in ``chunks`` per decision.

    The serve engine, the benchmarks, and the reporting tools read any
    domain's results through this surface (``chunks``,
    ``observation_list``, ``observations``, ``qoe``,
    ``default_fraction``).  The per-step record type is the domain's own
    (it only needs ``reward`` and ``defaulted`` fields for the aggregates
    here).
    """

    def __init__(self, trace_name: str, policy_name: str) -> None:
        self.trace_name = trace_name
        self.policy_name = policy_name
        self.chunks: list = []
        self.observation_list: list[np.ndarray] = []
        self._observations_cache: np.ndarray | None = None
        self._observations_cache_length = -1

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def observations(self) -> np.ndarray:
        """The observations the policy acted on, stacked ``(T, ...)``.

        The stack is cached and rebuilt only when observations have been
        appended since the last access (value-target collection reads this
        repeatedly for sessions that are no longer growing).
        """
        if not self.observation_list:
            raise SimulationError("session recorded no observations")
        if (
            self._observations_cache is None
            or self._observations_cache_length != len(self.observation_list)
        ):
            self._observations_cache = np.stack(self.observation_list)
            self._observations_cache_length = len(self.observation_list)
        return self._observations_cache

    @property
    def qoe(self) -> float:
        """Total session reward (the domain's QoE analogue)."""
        return float(sum(record.reward for record in self.chunks))

    @property
    def default_fraction(self) -> float:
        """Fraction of decisions delegated to the default policy."""
        if not self.chunks:
            return 0.0
        return sum(1 for r in self.chunks if r.defaulted) / len(self.chunks)


class SessionFactory(ABC):
    """Per-session wiring for one domain: env, result, record, length.

    The serve engine and the runners here are written against this
    interface alone — they construct environments and records without
    knowing the domain.  Factories must be stateless across sessions
    (one factory serves any number of concurrent sessions).
    """

    #: Registry key of the owning domain (``"abr"``, ``"cc"``, ...).
    domain: str = ""

    @abstractmethod
    def steps_per_session(self) -> int:
        """How many agent-controlled decision steps one session has."""

    @abstractmethod
    def new_env(self, spec: SessionSpec) -> Environment:
        """A fresh environment streaming *spec*'s trace."""

    @abstractmethod
    def new_result(self, spec: SessionSpec, policy_name: str):
        """An empty per-session result (``chunks``/``observation_list``)."""

    @abstractmethod
    def record(self, step: StepResult, defaulted: bool):
        """The domain's per-step record for one environment step."""


def _stream_session(
    select: Callable[[np.ndarray, np.random.Generator], tuple[int, bool | None]],
    factory: SessionFactory,
    spec: SessionSpec,
    policy_name: str,
):
    """The shared session loop behind both entry points.

    *select* makes one decision: it receives the observation and the
    session RNG and returns ``(action, defaulted)``, where ``defaulted``
    may be ``None`` to fall back to the environment's own flag.
    """
    watching = obs.enabled()
    start = time.perf_counter() if watching else 0.0
    env = factory.new_env(spec)
    rng = rng_from_seed(spec.seed)
    observation = env.reset()
    result = factory.new_result(spec, policy_name)
    for _ in range(factory.steps_per_session()):
        action, defaulted = select(observation, rng)
        result.observation_list.append(np.asarray(observation, dtype=float).copy())
        step = env.step(action)
        if defaulted is None:
            defaulted = bool(step.info.get("defaulted", False))
        result.chunks.append(factory.record(step, defaulted))
        observation = step.observation
        if step.done:
            break
    if not result.chunks:
        raise SimulationError("session produced no agent-controlled chunks")
    if watching:
        wall = time.perf_counter() - start
        obs.inc("session.runs", policy=result.policy_name)
        obs.observe("session.wall_seconds", wall, policy=result.policy_name)
        if wall > 0:
            obs.observe(
                "session.steps_per_second",
                len(result.chunks) / wall,
                policy=result.policy_name,
            )
    return result


def run_session(
    factory: SessionFactory,
    spec: SessionSpec,
    policy: Policy,
    policy_name: str | None = None,
):
    """Stream one full session of *factory*'s domain under *policy*.

    The policy decides every agent-controlled step; the complete
    per-step record comes back in the domain's result type.
    """
    policy.reset()

    def select(
        observation: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, bool | None]:
        action = policy.act(observation, rng)
        if hasattr(policy, "last_decision_defaulted"):
            return action, bool(policy.last_decision_defaulted)
        return action, None

    return _stream_session(
        select, factory, spec, policy_name or type(policy).__name__
    )


def run_monitored_session(
    factory: SessionFactory,
    spec: SessionSpec,
    learned: Policy,
    default: Policy,
    monitor: SafetyMonitor,
    policy_name: str | None = None,
):
    """Stream one session with the monitor deciding who acts each step.

    The explicit form of wrapping *learned*/*default* in a
    :class:`~repro.core.monitor.SafetyController`: the monitor observes
    every step, and the policy it picks makes the decision.  This is the
    serial bitwise reference for every serve-engine path over *factory*.
    """
    learned.reset()
    default.reset()
    monitor.reset()

    def select(
        observation: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, bool | None]:
        decision = monitor.observe(observation)
        policy = default if decision.defaulted else learned
        return policy.act(observation, rng), decision.defaulted

    return _stream_session(select, factory, spec, policy_name or monitor.name)
