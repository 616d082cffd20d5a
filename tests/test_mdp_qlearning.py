"""Tests for repro.mdp.qlearning: tabular Q-learning on GridWorld."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.mdp.gridworld import GridWorld
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
