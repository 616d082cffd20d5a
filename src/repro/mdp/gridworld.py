"""A controlled GridWorld for validating OSAP signals.

The ABR case study involves many moving parts (traces, video, simulator,
trained agents).  GridWorld is the opposite: a tiny episodic MDP where the
train/test distribution shift is *exact and adjustable*, so tests can assert
that uncertainty signals fire under a shift and stay quiet without one.

The agent walks on an ``n x n`` grid from the top-left corner to a goal in
the bottom-right corner, receiving -1 per step and +10 at the goal.  With
probability *slip* the chosen move is replaced by a uniformly random one.
Observations are the agent's normalized ``(row, col)`` position plus
Gaussian observation noise; distribution shift is induced by changing the
slip probability, the noise level, or adding a constant observation bias
(:func:`make_shifted_gridworld`), mirroring the paper's examples of shift
("routing changes, network failures, the addition/removal of traffic
sources").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.mdp.interfaces import StepResult
from repro.util.rng import rng_from_seed

__all__ = ["GridWorld", "make_shifted_gridworld"]

# Action encoding: up, down, left, right.
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


class GridWorld:
    """An ``n x n`` episodic grid navigation MDP with continuous observations."""

    def __init__(
        self,
        size: int = 5,
        slip: float = 0.1,
        observation_noise: float = 0.02,
        observation_bias: float = 0.0,
        step_reward: float = -1.0,
        goal_reward: float = 10.0,
        max_episode_steps: int = 200,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if size < 2:
            raise ConfigError(f"grid size must be >= 2, got {size}")
        if not 0.0 <= slip <= 1.0:
            raise ConfigError(f"slip must be in [0, 1], got {slip}")
        if observation_noise < 0:
            raise ConfigError(
                f"observation_noise must be >= 0, got {observation_noise}"
            )
        if max_episode_steps <= 0:
            raise ConfigError(
                f"max_episode_steps must be positive, got {max_episode_steps}"
            )
        self.size = size
        self.slip = slip
        self.observation_noise = observation_noise
        self.observation_bias = observation_bias
        self.step_reward = step_reward
        self.goal_reward = goal_reward
        self.max_episode_steps = max_episode_steps
        self._rng = rng_from_seed(seed)
        self._position = (0, 0)
        self._steps = 0

    @property
    def num_actions(self) -> int:
        """Up, down, left, right."""
        return len(_MOVES)

    @property
    def observation_size(self) -> int:
        """Observations are ``(row, col)`` normalized to [0, 1]."""
        return 2

    @property
    def goal(self) -> tuple[int, int]:
        """Bottom-right corner."""
        return (self.size - 1, self.size - 1)

    def reset(self) -> np.ndarray:
        """Place the agent at the top-left corner and return its observation."""
        self._position = (0, 0)
        self._steps = 0
        return self._observe()

    def step(self, action: int) -> StepResult:
        """Move (with slip), reward, and signal termination at the goal."""
        if not 0 <= action < self.num_actions:
            raise ConfigError(
                f"action must be in [0, {self.num_actions}), got {action}"
            )
        if self._rng.random() < self.slip:
            action = int(self._rng.integers(self.num_actions))
        row, col = self._position
        d_row, d_col = _MOVES[action]
        row = min(max(row + d_row, 0), self.size - 1)
        col = min(max(col + d_col, 0), self.size - 1)
        self._position = (row, col)
        self._steps += 1
        at_goal = self._position == self.goal
        reward = self.goal_reward if at_goal else self.step_reward
        done = at_goal or self._steps >= self.max_episode_steps
        return StepResult(
            observation=self._observe(),
            reward=reward,
            done=done,
            info={"position": self._position, "steps": self._steps},
        )

    def _observe(self) -> np.ndarray:
        row, col = self._position
        clean = np.array([row, col], dtype=float) / (self.size - 1)
        noise = self._rng.normal(0.0, self.observation_noise, size=2)
        return clean + noise + self.observation_bias


def make_shifted_gridworld(
    base: GridWorld,
    slip: float | None = None,
    observation_noise: float | None = None,
    observation_bias: float | None = None,
    seed: int | np.random.Generator | None = 1,
) -> GridWorld:
    """Clone *base* with selected distribution-shift parameters changed.

    Any parameter left as ``None`` keeps the base environment's value, so a
    test can induce exactly one kind of shift at a time.
    """
    return GridWorld(
        size=base.size,
        slip=base.slip if slip is None else slip,
        observation_noise=(
            base.observation_noise if observation_noise is None else observation_noise
        ),
        observation_bias=(
            base.observation_bias if observation_bias is None else observation_bias
        ),
        step_reward=base.step_reward,
        goal_reward=base.goal_reward,
        max_episode_steps=base.max_episode_steps,
        seed=seed,
    )
