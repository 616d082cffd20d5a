"""Tests for repro.pensieve.online: in-situ adaptation."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.pensieve.online import fine_tune, warm_start_trainer
from repro.pensieve.training import A2CTrainer, TrainingConfig
from repro.traces.trace import Trace
from repro.video.envivio import envivio_dash3_manifest
from tests.pensieve_oracles import A2COracle


@pytest.fixture(scope="module")
def manifest():
    return envivio_dash3_manifest(repeats=1)


@pytest.fixture(scope="module")
def trained_agent(manifest):
    trace = Trace.from_bandwidths([3.0] * 400, name="train")
    config = TrainingConfig(epochs=10, filters=4, hidden=12, seed=0)
    (agent,) = A2CTrainer(manifest, [trace], [config.seed], config=config).train()
    return agent


class TestWarmStart:
    def test_copies_weights(self, manifest, trained_agent):
        trace = Trace.from_bandwidths([1.0] * 400, name="ops")
        config = TrainingConfig(epochs=2, filters=4, hidden=12, seed=1)
        trainer = warm_start_trainer(trained_agent, manifest, [trace], config)
        assert trainer.seeds == [config.seed]
        obs = np.zeros((1, 6, 8))
        assert np.allclose(
            trainer.actors[0].probabilities(obs),
            trained_agent.actor.probabilities(obs),
        )
        # The stacked training weights (slice 0) start from the agent too.
        for stacked, source in (
            (trainer.stacked_actor, trained_agent.actor),
            (trainer.stacked_critic, trained_agent.critic),
        ):
            for param, expected in zip(stacked.params, source.params):
                assert np.array_equal(param[0], expected)

    def test_architecture_mismatch_rejected(self, manifest, trained_agent):
        trace = Trace.from_bandwidths([1.0] * 400)
        config = TrainingConfig(epochs=2, filters=8, hidden=12, seed=1)
        with pytest.raises(TrainingError):
            warm_start_trainer(trained_agent, manifest, [trace], config)

    def test_critic_required(self, manifest, trained_agent):
        from repro.pensieve.agent import PensieveAgent

        no_critic = PensieveAgent(
            trained_agent.bitrates_kbps, actor=trained_agent.actor, critic=None
        )
        trace = Trace.from_bandwidths([1.0] * 400)
        config = TrainingConfig(epochs=2, filters=4, hidden=12)
        with pytest.raises(TrainingError):
            warm_start_trainer(no_critic, manifest, [trace], config)


class TestFineTune:
    def test_adapts_and_reports(self, manifest, trained_agent):
        operational = [Trace.from_bandwidths([1.0] * 400, name="ops")]
        config = TrainingConfig(epochs=2, filters=4, hidden=12, seed=1)
        result = fine_tune(
            trained_agent, manifest, operational, epochs=8, config=config
        )
        assert len(result.trainer.summaries[0].episode_returns) == 8
        assert np.isfinite(result.improvement)
        # The adapted agent differs from the original.
        obs = np.zeros((1, 6, 8))
        adapted = result.adapted_agent.actor.probabilities(obs)
        original = trained_agent.actor.probabilities(obs)
        assert not np.allclose(adapted, original)

    def test_original_agent_unchanged(self, manifest, trained_agent):
        obs = np.zeros((1, 6, 8))
        before = trained_agent.actor.probabilities(obs).copy()
        operational = [Trace.from_bandwidths([1.0] * 400)]
        config = TrainingConfig(epochs=2, filters=4, hidden=12, seed=1)
        fine_tune(trained_agent, manifest, operational, epochs=4, config=config)
        after = trained_agent.actor.probabilities(obs)
        assert np.allclose(before, after)

    def test_entropy_schedule_gentled(self, manifest, trained_agent):
        operational = [Trace.from_bandwidths([1.0] * 400)]
        config = TrainingConfig(
            epochs=2, filters=4, hidden=12, entropy_weight_start=0.5, seed=1
        )
        result = fine_tune(
            trained_agent, manifest, operational, epochs=4, config=config
        )
        assert result.trainer.config.entropy_weight_start <= 0.05

    def test_matches_oracle_from_the_same_weights(self, manifest, trained_agent):
        # fine_tune is a one-member trainer warm-started from the agent:
        # bitwise the per-member loop started from the same weights with
        # the same adaptation config and exploration seed.
        operational = [Trace.from_bandwidths([1.0] * 400, name="ops")]
        config = TrainingConfig(epochs=2, filters=4, hidden=12, seed=3)
        result = fine_tune(
            trained_agent, manifest, operational, epochs=5, config=config
        )
        oracle = A2COracle(manifest, operational, result.trainer.config, config.seed)
        for network, source in (
            (oracle.actor, trained_agent.actor),
            (oracle.critic, trained_agent.critic),
        ):
            for param, value in zip(network.params, source.params):
                param[...] = value
        reference = oracle.train()
        for ours, theirs in (
            (result.adapted_agent.actor, reference.actor),
            (result.adapted_agent.critic, reference.critic),
        ):
            for param, expected in zip(ours.params, theirs.params):
                assert np.array_equal(param, expected)
        summary = result.trainer.summaries[0]
        assert summary.episode_returns == oracle.summary.episode_returns
        assert summary.critic_losses == oracle.summary.critic_losses

    def test_validation(self, manifest, trained_agent):
        config = TrainingConfig(epochs=2, filters=4, hidden=12)
        with pytest.raises(TrainingError):
            fine_tune(trained_agent, manifest, [], epochs=4, config=config)
        with pytest.raises(TrainingError):
            fine_tune(
                trained_agent,
                manifest,
                [Trace.from_bandwidths([1.0] * 50)],
                epochs=1,
                config=config,
            )
