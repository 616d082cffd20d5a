"""Tabular Q-learning for discrete-observation environments.

The GridWorld OSAP experiments need a *learned* policy whose training
distribution is well defined; tabular Q-learning is the smallest honest
learner for that.  Observations are discretized through a caller-supplied
state indexer (GridWorld positions map naturally), and the learned greedy
policy implements the shared :class:`~repro.mdp.interfaces.Policy`
protocol, so the safety controller can wrap it unchanged.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import length_hint
from typing import Callable

import numpy as np

from repro.errors import TrainingError
from repro.mdp.interfaces import Environment
from repro.util.rng import rng_from_seed

__all__ = ["QLearningAgent", "train_q_learning", "grid_state_indexer"]


def grid_state_indexer(size: int) -> Callable[[np.ndarray], int]:
    """Map GridWorld observations (normalized row/col) to cell indices.

    Observation noise is handled by rounding to the nearest cell.
    """
    if size < 2:
        raise TrainingError(f"grid size must be >= 2, got {size}")

    def index(observation: np.ndarray) -> int:
        scaled = np.clip(np.round(np.asarray(observation) * (size - 1)), 0, size - 1)
        return int(scaled[0]) * size + int(scaled[1])

    return index


class QLearningAgent:
    """A greedy policy over a learned tabular Q-function.

    The agent freezes the table it is given (``flags.writeable =
    False``, copies included): its greedy action per state is read once
    at construction (``np.argmax``'s first-index tie rule), so a later
    write to the table raises instead of leaving that read stale.
    """

    def __init__(
        self,
        q_table: np.ndarray,
        state_indexer: Callable[[np.ndarray], int],
        temperature: float = 0.0,
    ) -> None:
        q_table = np.asarray(q_table, dtype=float)
        if q_table.ndim != 2:
            raise TrainingError(f"Q-table must be 2-D, got shape {q_table.shape}")
        if q_table.shape[1] == 0:
            raise TrainingError("Q-table needs at least one action column")
        if temperature < 0:
            raise TrainingError(f"temperature must be >= 0, got {temperature}")
        q_table.flags.writeable = False
        self.q_table = q_table
        self.state_indexer = state_indexer
        self.temperature = temperature
        self._greedy = q_table.argmax(axis=1).tolist()

    def __setstate__(self, state: dict) -> None:
        # Pickled and deep-copied tables come back writeable; refreeze.
        self.__dict__.update(state)
        self.q_table.flags.writeable = False

    @property
    def num_actions(self) -> int:
        return int(self.q_table.shape[1])

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """One-hot greedy distribution (softmax when temperature > 0)."""
        return self.state_probabilities(self.state_indexer(observation))

    def state_probabilities(self, state: int) -> np.ndarray:
        """:meth:`action_probabilities` of an already-indexed *state*."""
        if self.temperature == 0.0:
            probabilities = np.zeros(self.num_actions)
            probabilities[self._greedy[state]] = 1.0
            return probabilities
        values = self.q_table[state]
        shifted = (values - values.max()) / self.temperature
        exp = np.exp(shifted)
        return exp / exp.sum()

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        """Greedy action (or a softmax sample when temperature > 0)."""
        state = self.state_indexer(observation)
        if self.temperature == 0.0:
            return self._greedy[state]
        return int(rng.choice(self.num_actions, p=self.state_probabilities(state)))

    def reset(self) -> None:
        """Stateless between episodes."""

    def value(self, observation: np.ndarray) -> float:
        """The greedy state value ``max_a Q(s, a)`` (for ``U_V``-style use)."""
        return float(self.q_table[self.state_indexer(observation)].max())


#: Raw draws read from the bit generator per block.
_BLOCK = 4096


class _PCG64Draws:
    """A :class:`~numpy.random.PCG64` generator's draws, read in blocks.

    Reads ``bit_generator.random_raw(_BLOCK)`` as Python ints and
    reproduces numpy's ``Generator`` draws from them bit for bit:
    :meth:`random_raw` is one raw 64-bit value (``rng.random()`` is
    ``(raw >> 11) * 2**-53``), and :meth:`integers` is
    ``rng.integers(n)`` for ``1 <= n <= 2**32``: a 32-bit half by
    PCG64's cached-uint32 rule (a fresh raw value gives its low half and
    keeps its high half for the next call), scaled by Lemire's method,
    ``(x * n) >> 32``, redrawn while the low 32 bits of ``x * n`` are
    below ``(2**32 - n) % n``; ``n == 1`` draws nothing.  :meth:`sync`
    leaves the generator exactly as those numpy calls would have: the
    same number of raw values consumed and the same cached half.  A
    generator over another bit generator raises
    :class:`~repro.errors.TrainingError`.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TrainingError(
                f"need a PCG64 generator, got {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]
        self._blocks = 0
        self._block = iter(())
        #: The next raw value, a C-level call across block boundaries.
        self.random_raw = chain.from_iterable(iter(self._next_block, None)).__next__

    def _next_block(self):
        self._blocks += 1
        self._block = iter(self._bit_generator.random_raw(_BLOCK).tolist())
        return self._block

    def integers(self, n: int) -> int:
        """``rng.integers(n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        reject = (0x100000000 - n) % n
        while True:
            if self._has_half:
                self._has_half = False
                scaled = self._half * n
            else:
                raw = self.random_raw()
                self._has_half = True
                self._half = raw >> 32
                scaled = (raw & 0xFFFFFFFF) * n
            if scaled & 0xFFFFFFFF >= reject:
                return scaled >> 32

    def sync(self) -> None:
        """Advance the generator past exactly the values drawn so far."""
        consumed = self._blocks * _BLOCK - length_hint(self._block)
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(consumed)
        # ``advance`` clears the cached half; restore the one in use.
        state = bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_generator.state = state


def train_q_learning(
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
) -> QLearningAgent:
    """Epsilon-greedy Q-learning on raw PCG64 draws; returns the greedy agent.

    ``initial_q`` seeds the Q-table (default zeros).  A distinct random
    prior per ensemble member turns the table into a visit-count
    novelty detector: training pulls well-visited entries toward the
    common fixed point while rarely-visited entries keep their member-
    specific prior, so ensemble disagreement concentrates exactly where
    training data was scarce (randomized-prior bootstrapping).

    The table is trained as nested Python lists of floats: a greedy pick
    is ``row.index(max(row))`` (``np.argmax``'s first-index tie rule,
    which is why ``initial_q`` must be finite) and each update is the
    same float64 arithmetic an array update does, so the returned table
    is bitwise what a numpy loop would produce, at a fraction of the
    per-step cost.

    The random stream is that of ``rng.random()`` each step and then,
    when exploring, ``rng.integers(num_actions)``, bit for bit, but read
    from blocks of the generator's raw 64-bit values instead of one
    ``Generator`` call per draw: the explore test is the exact integer
    comparison ``(raw >> 11) < epsilon * 2**53``.  A caller's generator
    (*seed* may be one) is left in exactly the state those calls would
    leave, cached 32-bit half included.  The generator must be a
    :class:`~numpy.random.PCG64` one (``np.random.default_rng``'s), else
    :class:`~repro.errors.TrainingError` is raised, as it is for a
    ``num_actions`` outside ``[1, 2**32]``.
    """
    if episodes < 1:
        raise TrainingError(f"episodes must be >= 1, got {episodes}")
    if not 0.0 < learning_rate <= 1.0:
        raise TrainingError(f"learning_rate must be in (0, 1], got {learning_rate}")
    if not 0.0 <= gamma < 1.0:
        raise TrainingError(f"gamma must be in [0, 1), got {gamma}")
    if not 0.0 <= epsilon_end <= epsilon_start <= 1.0:
        raise TrainingError(
            f"need 0 <= epsilon_end <= epsilon_start <= 1, got "
            f"({epsilon_start}, {epsilon_end})"
        )
    num_actions = environment.num_actions
    if not 1 <= num_actions <= 0x100000000:
        raise TrainingError(f"num_actions must be in [1, 2**32], got {num_actions}")
    draws = _PCG64Draws(rng_from_seed(seed))
    if initial_q is None:
        q_table = np.zeros((num_states, num_actions))
    else:
        q_table = np.asarray(initial_q, dtype=float)
        if q_table.shape != (num_states, num_actions):
            raise TrainingError(
                f"initial_q shape {q_table.shape} does not match "
                f"({num_states}, {num_actions})"
            )
        if not np.isfinite(q_table).all():
            raise TrainingError("initial_q must be finite (no NaN or inf)")
    table = q_table.tolist()
    random_raw, integers = draws.random_raw, draws.integers
    reset, step = environment.reset, environment.step
    try:
        for episode in range(episodes):
            fraction = episode / max(episodes - 1, 1)
            epsilon = epsilon_start + fraction * (epsilon_end - epsilon_start)
            # random() < epsilon, exactly: random() is (raw >> 11) * 2**-53,
            # so it holds iff raw < ceil(epsilon * 2**53) * 2**11.
            explore_below = math.ceil(epsilon * 9007199254740992.0) << 11
            state = state_indexer(reset())
            for _ in range(max_steps):
                row = table[state]
                if random_raw() < explore_below:
                    action = integers(num_actions)
                else:
                    action = row.index(max(row))
                result = step(action)
                next_state = state_indexer(result.observation)
                target = result.reward
                if not result.done:
                    target += gamma * max(table[next_state])
                row[action] += learning_rate * (target - row[action])
                state = next_state
                if result.done:
                    break
    finally:
        draws.sync()
    return QLearningAgent(np.array(table).reshape(q_table.shape), state_indexer)
