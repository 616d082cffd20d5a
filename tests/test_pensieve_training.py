"""Tests for repro.pensieve.training: the A2C trainer."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.pensieve.agent import PensieveAgent
from repro.pensieve.training import A2CTrainer, TrainingConfig, n_step_targets


def _train_one(manifest, traces, config):
    """A one-member trainer for *config*'s seed, and its trained agent."""
    trainer = A2CTrainer(manifest, traces, [config.seed], config=config)
    (agent,) = trainer.train()
    return trainer, agent


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"gamma": 1.5},
            {"n_step": 0},
            {"actor_learning_rate": 0.0},
            {"entropy_weight_start": 0.1, "entropy_weight_end": 0.5},
            {"entropy_weight_end": -0.1, "entropy_weight_start": 0.0},
            {"reward_scale": 0.0},
            {"advantage_clip": 0.0},
            {"actor_learning_rate": float("nan")},
            {"critic_learning_rate": float("nan")},
            {"reward_scale": float("nan")},
            {"advantage_clip": float("nan")},
            {"entropy_weight_start": float("nan")},
            {"entropy_weight_end": float("nan")},
            {"epochs": 2.5},
            {"episodes_per_epoch": 1.0},
            {"n_step": "4"},
            {"actor_learning_rate": float("inf")},
            {"critic_learning_rate": float("inf")},
            {"reward_scale": float("inf")},
            {"advantage_clip": float("inf")},
            {"entropy_weight_start": float("inf")},
            {"entropy_weight_start": float("inf"), "entropy_weight_end": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(TrainingError):
            TrainingConfig(**kwargs)

    def test_with_seed_changes_only_seed(self):
        config = TrainingConfig(epochs=7, seed=1)
        derived = config.with_seed(99)
        assert derived.seed == 99
        assert derived.epochs == 7


class TestA2CTrainer:
    def test_requires_traces(self, manifest, tiny_training_config):
        with pytest.raises(TrainingError):
            A2CTrainer(manifest, [], [0], config=tiny_training_config)

    def test_trains_and_returns_agent(
        self, manifest, steady_trace, tiny_training_config
    ):
        config = tiny_training_config
        trainer = A2CTrainer(manifest, [steady_trace], [4, 9], config=config)
        agents = trainer.train()
        assert len(agents) == 2
        assert all(isinstance(agent, PensieveAgent) for agent in agents)
        assert [agent.actor for agent in agents] == trainer.actors
        for summary in trainer.summaries:
            assert len(summary.episode_returns) == tiny_training_config.epochs

    def test_deterministic_given_seed(
        self, manifest, steady_trace, tiny_training_config
    ):
        _, a = _train_one(manifest, [steady_trace], tiny_training_config)
        _, b = _train_one(manifest, [steady_trace], tiny_training_config)
        obs = np.zeros((6, 8))
        assert np.allclose(a.action_probabilities(obs), b.action_probabilities(obs))

    def test_seed_changes_outcome(self, manifest, steady_trace, tiny_training_config):
        _, a = _train_one(manifest, [steady_trace], tiny_training_config.with_seed(1))
        _, b = _train_one(manifest, [steady_trace], tiny_training_config.with_seed(2))
        obs = np.zeros((6, 8))
        assert not np.allclose(a.action_probabilities(obs), b.action_probabilities(obs))

    def test_weights_actually_move(self, manifest, steady_trace, tiny_training_config):
        trainer = A2CTrainer(manifest, [steady_trace], [0], config=tiny_training_config)
        before = [p.copy() for p in trainer.actors[0].params]
        trainer.train()
        moved = any(
            not np.allclose(before_p, after_p)
            for before_p, after_p in zip(before, trainer.actors[0].params)
        )
        assert moved

    def test_learning_improves_return(self, manifest, steady_trace):
        # On a steady 3 Mbit/s link the trainer should clearly improve
        # over its own first epochs within a small budget.
        config = TrainingConfig(
            epochs=60, gamma=0.9, n_step=4, filters=8, hidden=24, seed=0
        )
        trainer, _ = _train_one(manifest, [steady_trace], config)
        returns = trainer.summaries[0].episode_returns
        assert np.mean(returns[-10:]) > np.mean(returns[:10])


class TestNStepTargets:
    def test_truncated_tail_is_monte_carlo(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([10.0, 10.0, 10.0])
        targets = n_step_targets(rewards, values, gamma=0.5, n_step=3)
        # Last step: no future value to bootstrap.
        assert targets[-1] == pytest.approx(3.0)
        assert targets[-2] == pytest.approx(2.0 + 0.5 * 3.0)

    def test_bootstrap_used_inside_horizon(self):
        rewards = np.array([1.0, 1.0, 1.0])
        values = np.array([4.0, 6.0, 8.0])
        targets = n_step_targets(rewards, values, gamma=0.5, n_step=1)
        assert targets[0] == pytest.approx(1.0 + 0.5 * 6.0)
        assert targets[1] == pytest.approx(1.0 + 0.5 * 8.0)

    def test_large_n_equals_monte_carlo(self):
        rewards = np.array([1.0, -2.0, 0.5, 3.0])
        values = np.zeros(4)
        targets = n_step_targets(rewards, values, gamma=0.9, n_step=100)
        expected = 1.0 + 0.9 * (-2.0 + 0.9 * (0.5 + 0.9 * 3.0))
        assert targets[0] == pytest.approx(expected)
