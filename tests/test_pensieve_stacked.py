"""Stacked ensemble forwards must reproduce the member-by-member loop
bitwise — they exist purely to make the per-step signals cheaper."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.ensemble_signals import (
    PolicyEnsembleSignal,
    ValueEnsembleSignal,
    policy_disagreement,
    value_disagreement,
)
from repro.errors import ModelError
from repro.nn.optim import RMSProp
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.model import (
    ActorNetwork,
    CriticNetwork,
    _relu,
    stacked_forward,
)
from repro.pensieve.online import warm_start_trainer
from repro.pensieve.stacked import StackedEnsemble
from repro.pensieve.training import TrainingConfig
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed
from repro.video.envivio import envivio_dash3_manifest

NUM_BITRATES = 6
BITRATES = [300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0]


def make_networks(
    network, count=5, filters=8, hidden=48, base_seed=10, num_bitrates=NUM_BITRATES
):
    return [
        network(
            num_bitrates, rng_from_seed(base_seed + i), filters=filters, hidden=hidden
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


def boundary_observations(count, seed=5):
    """Random observations with exact zeros in every row, whole zero rows,
    and -0.0 in the last column (the scalar branches' inputs)."""
    batch = observations(count, seed=seed)
    batch[:, :, ::3] = 0.0
    batch[::2, 1] = 0.0
    batch[1::2, :, -1] = -0.0
    return batch


def negative_zero_bias_networks(network, count, **shape):
    """Networks whose biases are all -0.0, so a zero input puts a
    pre-activation on the ReLU boundary as -0.0 (fresh networks'
    biases are +0.0)."""
    networks = make_networks(network, count=count, **shape)
    for net in networks:
        for param in net.params:
            if param.ndim == 1:
                param[...] = -0.0
    return networks


class TestLeanForward:
    """:func:`stacked_forward` against the layer-by-layer training forward
    plus head, at every shape the serving paths use."""

    @pytest.mark.parametrize("network", [ActorNetwork, CriticNetwork])
    @pytest.mark.parametrize("members", [1, 5])
    @pytest.mark.parametrize("row_stable", [False, True])
    def test_bitwise_equal_to_layer_by_layer(self, network, members, row_stable):
        for networks in (
            make_networks(network, count=members),
            negative_zero_bias_networks(network, members),
            # An odd merge width (17 * 3 features) leaves elements past
            # the last full SIMD vector of the in-place ReLU.
            negative_zero_bias_networks(
                network, members, filters=3, hidden=13, num_bitrates=7
            ),
        ):
            # One network reads its live layout, an ensemble its snapshot.
            if members == 1:
                weights = networks[0].inference_weights()
            else:
                weights = StackedEnsemble(networks)._weights
            for batch_size in (1, 2, 3, 4):
                for batch in (
                    observations(batch_size, seed=batch_size),
                    boundary_observations(batch_size),
                    np.zeros((batch_size, 6, 8)),
                ):
                    out = stacked_forward(weights, batch, row_stable)
                    assert out.shape[:2] == (members, batch_size)
                    for index, net in enumerate(networks):
                        if row_stable:
                            reference = np.concatenate(
                                [layer_by_layer(net, obs[None]) for obs in batch]
                            )
                        else:
                            reference = layer_by_layer(net, batch)
                        assert out[index].tobytes() == reference.tobytes()

    def test_in_place_relu_is_the_where_relu(self):
        # fmax keeps some -0.0 (which ones depends on the array length and
        # the SIMD width); the in-place ReLU must still give +0.0.
        specials = [-0.0, 0.0, np.nan, -np.inf, np.inf, -1.0, 2.0, -5e-324]
        for length in range(1, 20):
            for value in specials:
                x = np.full((1, length), value)
                x[0, ::3] = -0.0
                expected = np.where(x > 0, x, 0.0)
                _relu(x)
                assert x.tobytes() == expected.tobytes()

    def test_non_finite_inputs_follow_the_relu(self):
        # NaN and -inf pre-activations map to +0.0 exactly as the
        # layer-by-layer np.where ReLU maps them.
        actor = make_actors(count=1)[0]
        batch = observations(4, seed=9)
        batch[0, 2, 3] = np.nan
        batch[1, 0, -1] = -np.inf
        batch[2, 4, 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            out = stacked_forward(actor.inference_weights(), batch)[0]
            reference = layer_by_layer(actor, batch)
        assert out.tobytes() == reference.tobytes()

    def test_empty_batch(self):
        for networks, width in ((make_actors(), NUM_BITRATES), (make_critics(), 1)):
            stacked = StackedEnsemble(networks)
            empty = np.zeros((0, 6, 8))
            assert stacked.outputs(empty).shape == (5, 0, width)
            for row_stable in (False, True):
                out = stacked_forward(
                    networks[0].inference_weights(), empty, row_stable
                )
                assert out.shape == (1, 0, width)
        agent = PensieveAgent(BITRATES, actor=make_actors(count=1)[0])
        assert agent.act_batch(np.zeros((0, 6, 8)), []) == []
        agent.greedy = False
        assert agent.act_batch(np.zeros((0, 6, 8)), []) == []


def fresh_probabilities(actor, obs):
    """The training forward's action distribution for one observation."""
    return actor.probabilities(obs[None])[0]


class TestLiveInferenceWeights:
    """An agent's inference layout views the live parameters: every
    in-place write is seen by the next act without a refresh."""

    def assert_acts_fresh(self, agent, batch):
        rngs = [rng_from_seed(index) for index in range(len(batch))]
        for obs in batch:
            expected = fresh_probabilities(agent.actor, obs)
            assert agent.action_probabilities(obs).tobytes() == expected.tobytes()
            assert agent.act(obs, rngs[0]) == int(np.argmax(expected))
        expected = [
            int(np.argmax(fresh_probabilities(agent.actor, obs))) for obs in batch
        ]
        assert agent.act_batch(batch, rngs) == expected

    def test_optimizer_step_and_state_load(self):
        actor, other = make_actors(count=2)
        agent = PensieveAgent(BITRATES, actor=actor)
        batch = observations(4, seed=3)
        before = agent.action_probabilities(batch[0])
        self.assert_acts_fresh(agent, batch)
        rng = rng_from_seed(7)
        RMSProp(actor.params, learning_rate=0.05).step(
            [rng.normal(size=param.shape) for param in actor.params]
        )
        assert not np.array_equal(agent.action_probabilities(batch[0]), before)
        self.assert_acts_fresh(agent, batch)
        actor.load_state_arrays(other.state_arrays())
        assert agent.action_probabilities(batch[0]).tobytes() == (
            fresh_probabilities(other, batch[0]).tobytes()
        )
        self.assert_acts_fresh(agent, batch)

    def test_trainer_write_back(self):
        manifest = envivio_dash3_manifest(repeats=1)
        config = TrainingConfig(epochs=1, filters=4, hidden=12, seed=2)
        source = PensieveAgent(
            manifest.bitrates_kbps,
            actor=ActorNetwork(
                manifest.num_bitrates, rng_from_seed(30), filters=4, hidden=12
            ),
            critic=CriticNetwork(
                manifest.num_bitrates, rng_from_seed(31), filters=4, hidden=12
            ),
        )
        trace = Trace.from_bandwidths([2.0] * 400, name="ops")
        trainer = warm_start_trainer(source, manifest, [trace], config)
        agent = PensieveAgent(
            manifest.bitrates_kbps, trainer.actors[0], trainer.critics[0]
        )
        batch = observations(4, seed=8)
        before = agent.action_probabilities(batch[0])
        assert before.tobytes() == source.action_probabilities(batch[0]).tobytes()
        trainer.train()  # ends with write_back into trainer.actors[0]
        assert not np.array_equal(agent.action_probabilities(batch[0]), before)
        self.assert_acts_fresh(agent, batch)

    def test_copies_stay_live(self):
        agent = PensieveAgent(BITRATES, actor=make_actors(count=1)[0])
        batch = observations(3, seed=4)
        for clone in (copy.deepcopy(agent), pickle.loads(pickle.dumps(agent))):
            for param in clone.actor.params:
                param *= 1.5
            self.assert_acts_fresh(clone, batch)
            assert not np.array_equal(
                clone.action_probabilities(batch[0]),
                agent.action_probabilities(batch[0]),
            )
        self.assert_acts_fresh(agent, batch)


class TestAgentInputChecks:
    def test_rngs_must_match_observations(self):
        agent = PensieveAgent(BITRATES, actor=make_actors(count=1)[0])
        batch = observations(3)
        for greedy in (True, False):
            agent.greedy = greedy
            for rngs in ([rng_from_seed(0)], [rng_from_seed(i) for i in range(4)]):
                with pytest.raises(ModelError):
                    agent.act_batch(batch, rngs)

    def test_non_finite_observation_rejected(self):
        agent = PensieveAgent(BITRATES, actor=make_actors(count=1)[0])
        batch = observations(3)
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = batch.copy()
            poisoned[1, 3, 2] = bad
            for greedy in (True, False):
                agent.greedy = greedy
                with pytest.raises(ModelError):
                    agent.act(poisoned[1], rng_from_seed(0))
                with pytest.raises(ModelError):
                    agent.act_batch(poisoned, [rng_from_seed(i) for i in range(3)])
