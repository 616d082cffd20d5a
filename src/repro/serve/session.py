"""One in-flight monitored session, advanced one decision at a time.

:class:`ServeSession` is
:func:`repro.domains.runner.run_monitored_session` unrolled into a
step-at-a-time object, for callers that own the loop and want to
suspend and resume a session's monitor between steps.  A single step
performs exactly the reference sequence — monitor decides, chosen policy
acts, environment advances, record appended — so a session driven to
completion alone is bitwise identical to the one-call loop.

The domain enters only through the :class:`~repro.domains.SessionFactory`
passed in: it builds the environment for the spec, says how many decision
steps a session has, and produces the per-step record type.  Nothing
here knows which workload it is serving.
"""

from __future__ import annotations

import numpy as np

from repro.core.monitor import SafetyMonitor
from repro.domains import SessionFactory, SessionSpec
from repro.errors import SimulationError
from repro.mdp.interfaces import Policy
from repro.util.rng import rng_from_seed

__all__ = ["ServeSession", "SessionSpec"]


class ServeSession:
    """One monitored session advanced one decision at a time.

    The wrapped policies may be shared across concurrent sessions (the
    engine serves N sessions from one ensemble in memory), so they must
    be stateless per decision — true of every policy the registered
    domains hand out.  All per-session state lives in the monitor, the
    environment, and the RNG owned here.
    """

    def __init__(
        self,
        spec: SessionSpec,
        factory: SessionFactory,
        learned: Policy,
        default: Policy,
        monitor: SafetyMonitor,
    ) -> None:
        self.spec = spec
        self.factory = factory
        self.monitor = monitor
        self.learned = learned
        self.default = default
        self.env = factory.new_env(spec)
        self.rng = rng_from_seed(spec.seed)
        monitor.reset()
        self.observation = self.env.reset()
        self.result = factory.new_result(spec, spec.name or monitor.name)
        self._remaining = factory.steps_per_session()
        self.done = self._remaining <= 0

    def step(self) -> bool:
        """Advance one decision step; returns True when the session ends.

        The step sequence mirrors the reference loop exactly.
        """
        if self.done:
            raise SimulationError(
                f"session {self.result.policy_name!r} already finished"
            )
        decision = self.monitor.observe(self.observation)
        policy = self.default if decision.defaulted else self.learned
        action = policy.act(self.observation, self.rng)
        self.result.observation_list.append(
            np.asarray(self.observation, dtype=float).copy()
        )
        step = self.env.step(action)
        self.result.chunks.append(
            self.factory.record(step, decision.defaulted)
        )
        self.observation = step.observation
        self._remaining -= 1
        if step.done or self._remaining == 0:
            if not self.result.chunks:
                raise SimulationError(
                    "session produced no agent-controlled chunks"
                )
            self.done = True
        return self.done

    def suspend(self) -> dict:
        """Capture the monitor's session state for later :meth:`resume`.

        Only the *monitor* travels (signal windows, trigger counters,
        mode) — the environment and RNG stay with this object.  Restoring
        the mapping into a compatibly configured monitor reproduces the
        remaining decisions bitwise
        (:meth:`repro.core.monitor.SafetyMonitor.state_dict`).
        """
        return self.monitor.state_dict()

    def resume(self, state: dict) -> None:
        """Restore monitor state captured by :meth:`suspend`."""
        self.monitor.load_state_dict(state)
