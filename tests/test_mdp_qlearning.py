"""Tests for repro.mdp.qlearning: tabular Q-learning on GridWorld."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.mdp import qlearning
from repro.mdp.gridworld import GridWorld
from repro.mdp.interfaces import StepResult
from repro.mdp.qlearning import QLearningAgent, grid_state_indexer, train_q_learning
from repro.mdp.rollout import rollout
from tests import qlearning_oracles


class TestGridStateIndexer:
    def test_corners(self):
        index = grid_state_indexer(4)
        assert index(np.array([0.0, 0.0])) == 0
        assert index(np.array([1.0, 1.0])) == 15

    def test_noise_rounded_away(self):
        index = grid_state_indexer(4)
        assert index(np.array([0.02, -0.03])) == 0

    def test_out_of_range_clipped(self):
        index = grid_state_indexer(3)
        assert index(np.array([5.0, 5.0])) == 8

    def test_bad_size(self):
        with pytest.raises(TrainingError):
            grid_state_indexer(1)


class TestTrainQLearning:
    def _trained(self, episodes=400, slip=0.0):
        env = GridWorld(size=4, slip=slip, observation_noise=0.0, seed=0)
        indexer = grid_state_indexer(env.size)
        agent = train_q_learning(
            env, indexer, num_states=env.size**2, episodes=episodes, seed=0
        )
        return env, agent

    def test_learns_near_optimal_path(self):
        env, agent = self._trained()
        trajectory = rollout(env, agent, np.random.default_rng(0))
        # Optimal path in a 4x4 grid is 6 moves: -1*5 + 10 = 5.
        assert len(trajectory) == 6
        assert trajectory.total_reward == pytest.approx(5.0)

    def test_survives_slip(self):
        env, agent = self._trained(episodes=800, slip=0.2)
        returns = [
            rollout(env, agent, np.random.default_rng(s)).total_reward
            for s in range(10)
        ]
        assert np.mean(returns) > -20.0

    def test_deterministic_given_seed(self):
        _, a = self._trained(episodes=50)
        _, b = self._trained(episodes=50)
        assert np.array_equal(a.q_table, b.q_table)

    def test_value_accessor(self):
        env, agent = self._trained()
        start_value = agent.value(np.array([0.0, 0.0]))
        goal_adjacent = agent.value(np.array([1.0, 2.0 / 3.0]))
        assert goal_adjacent > start_value

    def test_validation(self):
        env = GridWorld(size=3, seed=0)
        indexer = grid_state_indexer(3)
        with pytest.raises(TrainingError):
            train_q_learning(env, indexer, 9, episodes=0)
        with pytest.raises(TrainingError):
            train_q_learning(env, indexer, 9, learning_rate=0.0)
        with pytest.raises(TrainingError):
            train_q_learning(env, indexer, 9, gamma=1.0)
        with pytest.raises(TrainingError):
            train_q_learning(env, indexer, 9, epsilon_start=0.1, epsilon_end=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_q_rejected(self, value):
        # The list-based greedy pick only agrees with np.argmax on finite
        # rows (np.argmax returns the first NaN; max() skips it).
        env = GridWorld(size=3, seed=0)
        initial_q = np.zeros((9, env.num_actions))
        initial_q[4, 2] = value
        with pytest.raises(TrainingError, match="finite"):
            train_q_learning(env, grid_state_indexer(3), 9, initial_q=initial_q)

    @pytest.mark.parametrize("prior", [False, True])
    @pytest.mark.parametrize("learning_rate", [0.2, 0.05])
    def test_matches_numpy_oracle_with_early_termination(self, prior, learning_rate):
        # Slip and a goal make episodes end at different steps; the
        # table must still be byte-identical to the numpy reference.
        initial_q = None
        if prior:
            initial_q = np.random.default_rng(3).normal(size=(16, 4))
        tables = []
        for train in (train_q_learning, qlearning_oracles.train_q_table):
            env = GridWorld(size=4, slip=0.2, observation_noise=0.0, seed=7)
            trained = train(
                env,
                grid_state_indexer(4),
                16,
                episodes=40,
                learning_rate=learning_rate,
                max_steps=60,
                seed=11,
                initial_q=initial_q,
            )
            tables.append(getattr(trained, "q_table", trained))
        assert tables[0].dtype == np.float64
        assert tables[0].tobytes() == tables[1].tobytes()


class _RingEnv:
    """*num_actions* actions over a ring of 6 states, counting its steps.

    Action ``a`` moves ``a % 3 + 1`` cells and earns ``a % 5 - 2``;
    leaving cell 5 with an odd action ends the episode, so episodes end
    at different steps.
    """

    def __init__(self, num_actions, fail_at_step=None):
        self.num_actions = num_actions
        self.steps = 0
        self._fail_at_step = fail_at_step
        self._cell = 0

    def reset(self):
        self._cell = 0
        return 0

    def step(self, action):
        self.steps += 1
        if self.steps == self._fail_at_step:
            raise RuntimeError("env failed")
        done = self._cell == 5 and action % 2 == 1
        self._cell = (self._cell + action % 3 + 1) % 6
        return StepResult(self._cell, float(action % 5 - 2), done, {})


def _ring_state(observation):
    return observation


class TestRawDrawStream:
    """``train_q_learning`` reads raw PCG64 blocks; the oracle calls
    ``rng.random()``/``rng.integers()``.  Tables and the generator's end
    state must match bit for bit."""

    def _train_both(self, num_actions, rngs, **kwargs):
        envs, tables = [], []
        fail_at_step = kwargs.pop("fail_at_step", None)
        for train, rng in zip(
            (train_q_learning, qlearning_oracles.train_q_table), rngs
        ):
            env = _RingEnv(num_actions, fail_at_step)
            trained = train(env, _ring_state, 6, seed=rng, **kwargs)
            envs.append(env)
            tables.append(getattr(trained, "q_table", trained))
        return envs, tables

    @pytest.mark.parametrize("num_actions", [1, 2, 3, 5, 7, 9, 1000])
    def test_tables_and_generator_state_match_the_oracle(self, num_actions):
        rngs = [np.random.default_rng(21), np.random.default_rng(21)]
        envs, tables = self._train_both(
            num_actions, rngs, episodes=30, max_steps=40, learning_rate=0.3
        )
        assert envs[0].steps == envs[1].steps
        assert tables[0].tobytes() == tables[1].tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_run_across_a_block_boundary_matches_the_oracle(self):
        rngs = [np.random.default_rng(4), np.random.default_rng(4)]
        envs, tables = self._train_both(
            5, rngs, episodes=600, max_steps=100, epsilon_end=0.5
        )
        # At least one raw value per step: three blocks or more.
        assert envs[0].steps > 2 * qlearning._BLOCK
        assert tables[0].tobytes() == tables[1].tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("cached_half", [False, True])
    def test_caller_generator_ends_in_the_oracle_state(self, cached_half):
        rngs = [np.random.default_rng(8), np.random.default_rng(8)]
        if cached_half:
            for rng in rngs:
                rng.integers(7)
            assert rngs[0].bit_generator.state["has_uint32"] == 1
        self._train_both(7, rngs, episodes=9, max_steps=25)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert rngs[0].random() == rngs[1].random()
        assert rngs[0].integers(7) == rngs[1].integers(7)

    def test_env_failure_leaves_the_generator_at_the_failing_step(self):
        rngs = [np.random.default_rng(2), np.random.default_rng(2)]
        with pytest.raises(RuntimeError, match="env failed"):
            self._train_both(3, rngs[:1], episodes=40, fail_at_step=500)
        with pytest.raises(RuntimeError, match="env failed"):
            qlearning_oracles.train_q_table(
                _RingEnv(3, fail_at_step=500), _ring_state, 6, episodes=40,
                seed=rngs[1],
            )
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_non_pcg64_generator_rejected(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TrainingError, match="PCG64"):
            train_q_learning(_RingEnv(3), _ring_state, 6, seed=rng)

    @pytest.mark.parametrize("num_actions", [0, 2**32 + 1])
    def test_num_actions_outside_the_32_bit_draw_rejected(self, num_actions):
        with pytest.raises(TrainingError, match="num_actions"):
            train_q_learning(_RingEnv(num_actions), _ring_state, 6)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_draws_equal_generator_calls(self, seed):
        # 3_000_000_000 rejects about 30% of its 32-bit draws; 2**32
        # takes the half unscaled; 1 draws nothing.
        bounds = [1, 2, 3, 7, 8, 1000, 3_000_000_000, 2**32] * 700
        reference = np.random.default_rng(seed)
        reference.integers(3)
        rng = np.random.default_rng(seed)
        rng.integers(3)
        draws = qlearning._PCG64Draws(rng)
        for n in bounds:
            assert draws.integers(n) == reference.integers(n)
            assert (draws.random_raw() >> 11) * 2**-53 == reference.random()
        draws.sync()
        assert rng.bit_generator.state == reference.bit_generator.state


def _first_state(observation):
    """A picklable indexer mapping every observation to state 0."""
    return 0


class TestQLearningAgent:
    def test_greedy_probabilities_one_hot(self):
        q_table = np.array([[1.0, 3.0, 2.0]])
        agent = QLearningAgent(q_table, lambda obs: 0)
        probs = agent.action_probabilities(np.zeros(2))
        assert probs[1] == 1.0

    def test_softmax_temperature(self):
        q_table = np.array([[0.0, 1.0]])
        agent = QLearningAgent(q_table, lambda obs: 0, temperature=1.0)
        probs = agent.action_probabilities(np.zeros(2))
        assert 0.5 < probs[1] < 1.0
        assert probs.sum() == pytest.approx(1.0)

    def test_q_table_is_read_only(self):
        # The greedy action per state is read once at construction, so
        # the table is frozen rather than left to go stale.
        agent = QLearningAgent(np.array([[1.0, 3.0, 2.0]]), _first_state)
        for frozen in (agent, copy.deepcopy(agent), pickle.loads(pickle.dumps(agent))):
            with pytest.raises(ValueError, match="read-only"):
                frozen.q_table[0, 0] = 9.0
            assert frozen.act(np.zeros(2), np.random.default_rng(0)) == 1

    def test_validation(self):
        with pytest.raises(TrainingError):
            QLearningAgent(np.zeros(3), lambda obs: 0)
        with pytest.raises(TrainingError, match="action"):
            QLearningAgent(np.zeros((2, 0)), lambda obs: 0)
        with pytest.raises(TrainingError):
            QLearningAgent(np.zeros((2, 2)), lambda obs: 0, temperature=-1.0)
