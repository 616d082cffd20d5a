"""Step-by-step reference for :class:`repro.domains.cc.CCEnv`'s history.

The library keeps a CC session's observation history in a ring with
spare columns, writing one column a step and moving the newest columns
back only when the ring is full.  :class:`ShiftingCCEnv` restates the
straightforward version: a ``(4, HISTORY)`` array shifted left by one
column every step, the newest sample written into its last column, and
a plain :class:`~repro.mdp.interfaces.StepResult` built by its
constructor.  The capacity schedule and the fluid-queue arithmetic are
the module's own, so a comparison isolates the history bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.domains.cc import (
    _LADDER,
    DEFAULT_HORIZON,
    DELAY_SCALE,
    HISTORY,
    RATE_SCALE,
    _capacity_schedule,
    _fluid_step,
)
from repro.errors import SimulationError
from repro.mdp.interfaces import StepResult
from repro.traces.trace import Trace


class ShiftingCCEnv:
    """:class:`~repro.domains.cc.CCEnv` with a shifted ``(4, 8)`` history."""

    def __init__(self, trace: Trace, start_offset_s: float = 0.0) -> None:
        self.trace = trace
        self.start_offset_s = float(start_offset_s)
        self._history = np.zeros((4, HISTORY))
        self._capacities: list[float] = []
        self._schedule_end_s = self.start_offset_s
        self._queue_mbit = 0.0
        self._step_index = 0

    @property
    def num_actions(self) -> int:
        return len(_LADDER)

    def reset(self) -> np.ndarray:
        self._history = np.zeros((4, HISTORY))
        self._queue_mbit = 0.0
        self._step_index = 0
        return self._history.copy()

    def step(self, action: int) -> StepResult:
        action = int(action)
        if not 0 <= action < len(_LADDER):
            raise SimulationError(
                f"action {action} outside rate ladder of {self.num_actions}"
            )
        rate = _LADDER[action]
        step_index = self._step_index
        if step_index == len(self._capacities):
            more, self._schedule_end_s = _capacity_schedule(
                self.trace, self._schedule_end_s, DEFAULT_HORIZON
            )
            self._capacities += more
        capacity = self._capacities[step_index]
        queue_mbit, delivered_mbps, loss_fraction, queue_delay_s, reward = _fluid_step(
            self._queue_mbit, rate, capacity
        )
        self._queue_mbit = queue_mbit
        history = self._history
        history[:, :-1] = history[:, 1:]
        history[0, -1] = rate / RATE_SCALE
        history[1, -1] = delivered_mbps / RATE_SCALE
        history[2, -1] = loss_fraction
        history[3, -1] = queue_delay_s / DELAY_SCALE
        self._step_index = step_index + 1
        return StepResult(
            observation=history.copy(),
            reward=reward,
            done=False,
            info={
                "step_index": step_index,
                "rate_index": action,
                "rate_mbps": rate,
                "throughput_mbps": delivered_mbps,
                "loss_fraction": loss_fraction,
                "queue_delay_s": queue_delay_s,
                "capacity_mbps": capacity,
            },
        )
