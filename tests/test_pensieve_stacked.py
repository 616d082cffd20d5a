"""Stacked ensemble forwards must reproduce the member-by-member loop
bitwise — they exist purely to make the per-step signals cheaper."""

import numpy as np
import pytest

from repro.core.ensemble_signals import (
    PolicyEnsembleSignal,
    ValueEnsembleSignal,
    policy_disagreement,
    value_disagreement,
)
from repro.errors import ModelError
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.model import ActorNetwork, CriticNetwork, stacked_forward
from repro.pensieve.stacked import StackedEnsemble
from repro.util.rng import rng_from_seed

NUM_BITRATES = 6
BITRATES = [300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0]


def make_networks(network, count=5, filters=8, hidden=48, base_seed=10):
    return [
        network(
            NUM_BITRATES, rng_from_seed(base_seed + i), filters=filters, hidden=hidden
        )
        for i in range(count)
    ]


def make_actors(count=5, filters=8, hidden=48, base_seed=10):
    return make_networks(ActorNetwork, count, filters, hidden, base_seed)


def make_critics(count=5, filters=8, hidden=48, base_seed=20):
    return make_networks(CriticNetwork, count, filters, hidden, base_seed)


def observations(count, seed=0):
    return rng_from_seed(seed).normal(size=(count, 6, 8))


def layer_by_layer(network, batch):
    """Head outputs through the layer objects, the training forward."""
    return network.head.forward(network.trunk.forward(batch))


class _StackedEnsembleCases:
    """:class:`StackedEnsemble` against the member loop; the subclasses
    run every case over actors and over critics."""

    network = None

    def make(self, **kwargs):
        return make_networks(self.network, **kwargs)

    def test_bitwise_identical_to_member_loop(self):
        networks = self.make()
        stacked = StackedEnsemble(networks)
        for obs in observations(25):
            reference = np.stack([layer_by_layer(n, obs[None]) for n in networks])
            assert np.array_equal(stacked.outputs(obs), reference)
        # Per-member (members, batch, 6, 8) inputs: member m's rows are its
        # own batch forward.
        per_member = observations(5 * 3, seed=1).reshape(5, 3, 6, 8)
        out = stacked.outputs(per_member)
        for index, network in enumerate(networks):
            reference = layer_by_layer(network, per_member[index])
            assert np.array_equal(out[index], reference)
        # Row-stable batches at M > 1: every row equals its lone forward.
        batch = observations(7, seed=2)
        stable = stacked_forward(stacked._weights, batch, row_stable=True)
        for row, obs in enumerate(batch):
            assert np.array_equal(stable[:, row], stacked.outputs(obs)[:, 0])

    def test_refresh_tracks_inplace_mutation(self):
        networks = self.make(count=3)
        stacked = StackedEnsemble(networks)
        obs = observations(1)[0]
        networks[1].head.weight += 0.25
        networks[1].trunk._merge.layers[0].weight *= 0.9
        stale = stacked.outputs(obs)
        reference = np.stack([layer_by_layer(n, obs[None]) for n in networks])
        assert not np.array_equal(stale, reference)
        stacked.refresh()
        assert np.array_equal(stacked.outputs(obs), reference)

    def test_mixed_architectures_rejected(self):
        for odd in (dict(hidden=24), dict(filters=4)):
            with pytest.raises(ModelError):
                StackedEnsemble(self.make(count=2) + self.make(count=1, **odd))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            StackedEnsemble([])

    def test_bad_observation_shape_rejected(self):
        stacked = StackedEnsemble(self.make(count=2))
        for shape in ((6, 9), (3, 6, 8, 1), (3, 1, 6, 8)):
            with pytest.raises(ModelError):
                stacked.outputs(np.zeros(shape))


class TestStackedActor(_StackedEnsembleCases):
    network = ActorNetwork


class TestStackedCritic(_StackedEnsembleCases):
    network = CriticNetwork


class TestFusedInferenceForward:
    """The single-network inference fast path used by agents and trainers."""

    def test_actor_probabilities_match_reference(self):
        actor = make_actors(count=1)[0]
        batch = observations(16)
        assert np.array_equal(
            actor.probabilities_inference(batch), actor.probabilities(batch)
        )

    def test_critic_values_match_reference(self):
        critic = make_critics(count=1)[0]
        batch = observations(16)
        assert np.array_equal(
            critic.values_inference(batch), critic.values(batch)
        )

    def test_inference_rows_match_layer_by_layer_forward(self):
        # Single observations and row-stable batches: each row of the
        # fused forward equals the layer-by-layer forward of that row.
        actor = make_actors(count=1)[0]
        critic = make_critics(count=1)[0]
        batch = observations(12, seed=4)
        stable = actor.probabilities_inference(batch, row_stable=True)
        for row, obs in enumerate(batch):
            single = obs[None]
            reference = actor.probabilities(single)[0].tobytes()
            assert actor.probabilities_inference(single)[0].tobytes() == reference
            assert stable[row].tobytes() == reference
            assert (
                critic.values_inference(single).tobytes()
                == critic.values(single).tobytes()
            )


class TestSignalIntegration:
    def test_policy_signal_matches_member_loop(self):
        agents = [
            PensieveAgent(BITRATES, actor=actor, critic=critic)
            for actor, critic in zip(make_actors(), make_critics())
        ]
        signal = PolicyEnsembleSignal(agents, trim=2)
        assert signal._stacked is not None
        for obs in observations(10):
            members = np.stack([agent.action_probabilities(obs) for agent in agents])
            assert signal.measure(obs) == policy_disagreement(members, 2)

    def test_value_signal_matches_member_loop(self):
        value_functions = [
            PensieveValueFunction(critic) for critic in make_critics()
        ]
        signal = ValueEnsembleSignal(value_functions, trim=2)
        assert signal._stacked is not None
        for obs in observations(10):
            members = np.array([vf.value(obs) for vf in value_functions])
            assert signal.measure(obs) == value_disagreement(members, 2)

    def test_non_pensieve_members_fall_back(self):
        class StubAgent:
            def action_probabilities(self, observation):
                return np.array([0.5, 0.5])

        signal = PolicyEnsembleSignal([StubAgent(), StubAgent()], trim=0)
        assert signal._stacked is None
        assert signal.measure(observations(1)[0]) == pytest.approx(0.0)

    def test_mixed_member_shapes_fall_back(self):
        agents = [
            PensieveAgent(BITRATES, actor=actor)
            for actor in make_actors(count=2) + make_actors(count=1, hidden=24)
        ]
        signal = PolicyEnsembleSignal(agents, trim=0)
        assert signal._stacked is None
        obs = observations(1)[0]
        assert np.isfinite(signal.measure(obs))
