"""Tests for repro.pensieve.ensemble: agent and value-function ensembles."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.pensieve.ensemble import (
    collect_value_targets,
    train_agent_ensemble,
    train_value_ensemble,
)
from repro.pensieve.training import TrainingConfig


@pytest.fixture(scope="module")
def tiny_config():
    return TrainingConfig(epochs=3, filters=4, hidden=8, seed=0)


@pytest.fixture(scope="module")
def small_manifest():
    from repro.video.envivio import envivio_dash3_manifest

    return envivio_dash3_manifest(repeats=1)


@pytest.fixture(scope="module")
def trace():
    from repro.traces.trace import Trace

    return Trace.from_bandwidths([3.0] * 400, name="steady")


class TestAgentEnsemble:
    def test_size_and_type(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=3, config=tiny_config
        )
        assert len(agents) == 3

    def test_members_differ_only_by_init(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=2, config=tiny_config
        )
        obs = np.zeros((6, 8))
        a = agents[0].action_probabilities(obs)
        b = agents[1].action_probabilities(obs)
        assert not np.allclose(a, b)

    def test_deterministic_given_root_seed(self, small_manifest, trace, tiny_config):
        first = train_agent_ensemble(
            small_manifest, [trace], size=2, config=tiny_config, root_seed=5
        )
        second = train_agent_ensemble(
            small_manifest, [trace], size=2, config=tiny_config, root_seed=5
        )
        obs = np.zeros((6, 8))
        for a, b in zip(first, second):
            assert np.allclose(
                a.action_probabilities(obs), b.action_probabilities(obs)
            )

    def test_bad_size_rejected(self, small_manifest, trace, tiny_config):
        with pytest.raises(TrainingError):
            train_agent_ensemble(small_manifest, [trace], size=0, config=tiny_config)


class TestValueTargets:
    def test_shapes_align(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        observations, returns = collect_value_targets(
            agents[0], small_manifest, [trace], gamma=0.9
        )
        assert observations.shape[0] == returns.shape[0]
        assert observations.shape[1:] == (6, 8)

    def test_returns_satisfy_bellman_tail(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        _, returns = collect_value_targets(
            agents[0], small_manifest, [trace], gamma=0.0
        )
        # With gamma=0 returns are per-chunk rewards: finite and bounded.
        assert np.all(np.isfinite(returns))

    def test_no_traces_rejected(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        with pytest.raises(TrainingError):
            collect_value_targets(agents[0], small_manifest, [], gamma=0.9)


class TestValueEnsemble:
    def test_members_differ_and_predict(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        values = train_value_ensemble(
            agents[0],
            small_manifest,
            [trace],
            size=3,
            epochs=20,
            filters=4,
            hidden=8,
        )
        assert len(values) == 3
        obs = np.zeros((6, 8))
        predictions = [vf.value(obs) for vf in values]
        assert len(set(np.round(predictions, 12))) > 1

    def test_regression_reduces_error(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        observations, targets = collect_value_targets(
            agents[0], small_manifest, [trace], gamma=0.9
        )
        few = train_value_ensemble(
            agents[0], small_manifest, [trace], size=1, epochs=2,
            gamma=0.9, filters=4, hidden=8,
        )[0]
        many = train_value_ensemble(
            agents[0], small_manifest, [trace], size=1, epochs=200,
            gamma=0.9, filters=4, hidden=8,
        )[0]
        error_few = float(np.mean((few.values(observations) - targets) ** 2))
        error_many = float(np.mean((many.values(observations) - targets) ** 2))
        assert error_many < error_few

    def test_bad_parameters_rejected(self, small_manifest, trace, tiny_config):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )
        with pytest.raises(TrainingError):
            train_value_ensemble(agents[0], small_manifest, [trace], size=0)
        with pytest.raises(TrainingError):
            train_value_ensemble(agents[0], small_manifest, [trace], epochs=0)

    def test_fractional_epochs_rejected_before_target_collection(
        self, small_manifest, trace, tiny_config, monkeypatch
    ):
        agents = train_agent_ensemble(
            small_manifest, [trace], size=1, config=tiny_config
        )

        def collect(*args, **kwargs):
            raise AssertionError("value targets collected before validation")

        monkeypatch.setattr("repro.pensieve.ensemble.collect_value_targets", collect)
        for bad in ({"epochs": 2.5}, {"epochs": 0.5}, {"size": 2.0}):
            with pytest.raises(TrainingError, match="integer >= 1"):
                train_value_ensemble(agents[0], small_manifest, [trace], **bad)
