"""A scripted toy workload for the monitored-scheme tests.

The signal replays a fixed script of uncertainty values, the two
policies each always pick one action, and the session factory streams a
constant observation and pays the chosen action as the step's reward —
so a session's records show exactly which policy decided each step and
what the monitor saw, with no trace or simulator involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.runner import (
    MonitoredScheme,
    MonitoredSessionResult,
    SessionFactory,
    SessionSpec,
)
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.mdp.interfaces import StepResult

OBS = np.zeros((6, 8))

#: The actions the learned and the default policy always pick.
LEARNED, DEFAULT = 5, 0


class ScriptedSignal(UncertaintySignal):
    """Emits a scripted sequence of uncertainty values (the last repeats)."""

    binary = True

    def __init__(self, script):
        self.script = list(script)
        self._index = 0

    def reset(self):
        self._index = 0

    def measure(self, observation):
        value = self.script[min(self._index, len(self.script) - 1)]
        self._index += 1
        return value


class FixedPolicy:
    """Always picks *action*; counts its resets."""

    def __init__(self, action):
        self.action = action
        self.reset_count = 0

    def act(self, observation, rng):
        return self.action

    def reset(self):
        self.reset_count += 1


@dataclass(frozen=True)
class ToyRecord:
    action: int
    reward: float
    defaulted: bool


class _ConstantEnv:
    def reset(self):
        return OBS

    def step(self, action):
        return StepResult(OBS, float(action), False, {})


class ToyFactory(SessionFactory):
    """Sessions of *steps* decisions over a constant observation."""

    domain = "toy"

    def __init__(self, steps: int) -> None:
        self.steps = steps

    def steps_per_session(self) -> int:
        return self.steps

    def new_env(self, spec):
        return _ConstantEnv()

    def new_result(self, spec, policy_name):
        return MonitoredSessionResult("toy", policy_name)

    def record(self, step, defaulted):
        return ToyRecord(int(step.reward), step.reward, defaulted)


SPEC = SessionSpec(trace=None, seed=0)


def scripted_scheme(script, steps, l=2, allow_revert=False):
    """A scheme that hands off after *l* consecutive positive values."""
    return MonitoredScheme(
        name="scripted",
        learned=FixedPolicy(LEARNED),
        default=FixedPolicy(DEFAULT),
        signal=ScriptedSignal(script),
        trigger=ConsecutiveTrigger(l=l),
        factory=ToyFactory(steps),
        allow_revert=allow_revert,
    )
