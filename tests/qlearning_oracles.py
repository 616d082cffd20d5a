"""Plain-numpy reference for tabular Q-learning on the real environments.

The library trains Q-tables as nested Python float lists
(:func:`repro.mdp.qlearning.train_q_learning`), and the CC domain trains
them against a lean env that replays precomputed capacities through the
shared fluid-queue function and observes only the newest sample.  These
oracles restate the straightforward version — a numpy table updated in
place, ``np.argmax`` greedy picks, ``q[s].max()`` bootstraps, and the
full :class:`~repro.domains.cc.CCEnv` history indexed by
:class:`~repro.domains.cc.CCStateIndexer` — so the tests can check the
trained tables byte for byte against an independent reading of the
algorithm rather than against themselves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.domains.cc import CCEnv
from repro.mdp.interfaces import Environment, StepResult
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed


def train_q_table(
    environment: Environment,
    state_indexer: Callable[[np.ndarray], int],
    num_states: int,
    episodes: int = 500,
    learning_rate: float = 0.2,
    gamma: float = 0.97,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    max_steps: int = 500,
    seed: int | np.random.Generator | None = 0,
    initial_q: np.ndarray | None = None,
) -> np.ndarray:
    """Epsilon-greedy Q-learning on a numpy table; returns the table."""
    rng = rng_from_seed(seed)
    if initial_q is None:
        q_table = np.zeros((num_states, environment.num_actions))
    else:
        q_table = np.asarray(initial_q, dtype=float).copy()
    for episode in range(episodes):
        fraction = episode / max(episodes - 1, 1)
        epsilon = epsilon_start + fraction * (epsilon_end - epsilon_start)
        state = state_indexer(environment.reset())
        for _ in range(max_steps):
            if rng.random() < epsilon:
                action = int(rng.integers(environment.num_actions))
            else:
                action = int(np.argmax(q_table[state]))
            result = environment.step(action)
            next_state = state_indexer(result.observation)
            target = result.reward
            if not result.done:
                target += gamma * q_table[next_state].max()
            q_table[state, action] += learning_rate * (
                target - q_table[state, action]
            )
            state = next_state
            if result.done:
                break
    return q_table


class CyclingCCEnv:
    """Round-robin over full :class:`CCEnv` sessions, one trace per reset."""

    def __init__(self, traces: list[Trace]) -> None:
        self._envs = [CCEnv(trace) for trace in traces]
        self._index = -1
        self._active = self._envs[0]

    @property
    def num_actions(self) -> int:
        return self._active.num_actions

    def reset(self) -> np.ndarray:
        self._index = (self._index + 1) % len(self._envs)
        self._active = self._envs[self._index]
        return self._active.reset()

    def step(self, action: int) -> StepResult:
        return self._active.step(action)
