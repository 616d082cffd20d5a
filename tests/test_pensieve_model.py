"""Tests for repro.pensieve.model: actor and critic networks."""

import numpy as np
import pytest

from repro.domains import SessionSpec, get_domain, run_session
from repro.errors import ModelError
from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.losses import softmax
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.model import ActorNetwork, CriticNetwork, PensieveTrunk
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import make_dataset

RNG = np.random.default_rng(0)
NUM_BITRATES = 6


def random_observations(batch=3):
    return RNG.normal(size=(batch, 6, 8)) * 0.5


class TestTrunk:
    def test_output_shape(self):
        trunk = PensieveTrunk(NUM_BITRATES, RNG, filters=4, hidden=12)
        features = trunk.forward(random_observations(5))
        assert features.shape == (5, 12)

    def test_single_observation_promoted(self):
        trunk = PensieveTrunk(NUM_BITRATES, RNG, filters=4, hidden=12)
        features = trunk.forward(random_observations(1)[0])
        assert features.shape == (1, 12)

    def test_params_and_grads_align(self):
        trunk = PensieveTrunk(NUM_BITRATES, RNG, filters=4, hidden=8)
        assert len(trunk.params) == len(trunk.grads)
        for param, grad in zip(trunk.params, trunk.grads):
            assert param.shape == grad.shape

    def test_backward_before_forward_rejected(self):
        trunk = PensieveTrunk(NUM_BITRATES, RNG, filters=4, hidden=8)
        with pytest.raises(ModelError):
            trunk.backward(np.ones((1, 8)))

    def test_wrong_shape_rejected(self):
        trunk = PensieveTrunk(NUM_BITRATES, RNG, filters=4, hidden=8)
        with pytest.raises(ModelError):
            trunk.forward(np.ones((2, 5, 8)))

    def test_narrow_ladder_rejected(self):
        with pytest.raises(ModelError):
            PensieveTrunk(3, RNG)  # shorter than the conv kernel


class TestActorNetwork:
    def test_probabilities_valid(self):
        actor = ActorNetwork(NUM_BITRATES, RNG, filters=4, hidden=8)
        probs = actor.probabilities(random_observations(4))
        assert probs.shape == (4, NUM_BITRATES)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_gradient_check(self):
        actor = ActorNetwork(
            NUM_BITRATES, np.random.default_rng(3), filters=3, hidden=6
        )
        obs = random_observations(2)
        weights = RNG.normal(size=(2, NUM_BITRATES))

        def loss() -> float:
            return float((actor.logits(obs) * weights).sum())

        actor.zero_grads()
        actor.logits(obs)
        actor.backward(weights)
        for param, grad in zip(actor.params, actor.grads):
            numeric = numerical_gradient(loss, param)
            assert relative_error(grad, numeric) < 1e-5

    def test_different_inits_differ(self):
        a = ActorNetwork(NUM_BITRATES, np.random.default_rng(1), filters=4, hidden=8)
        b = ActorNetwork(NUM_BITRATES, np.random.default_rng(2), filters=4, hidden=8)
        obs = random_observations(1)
        assert not np.allclose(a.probabilities(obs), b.probabilities(obs))

    def test_same_init_identical(self):
        a = ActorNetwork(NUM_BITRATES, np.random.default_rng(1), filters=4, hidden=8)
        b = ActorNetwork(NUM_BITRATES, np.random.default_rng(1), filters=4, hidden=8)
        obs = random_observations(1)
        assert np.allclose(a.probabilities(obs), b.probabilities(obs))

    def test_logits_softmax_consistency(self):
        actor = ActorNetwork(NUM_BITRATES, RNG, filters=4, hidden=8)
        obs = random_observations(2)
        assert np.allclose(actor.probabilities(obs), softmax(actor.logits(obs)))


class TestCriticNetwork:
    def test_scalar_values(self):
        critic = CriticNetwork(NUM_BITRATES, RNG, filters=4, hidden=8)
        values = critic.values(random_observations(5))
        assert values.shape == (5,)

    def test_gradient_check(self):
        critic = CriticNetwork(
            NUM_BITRATES, np.random.default_rng(4), filters=3, hidden=6
        )
        obs = random_observations(2)
        weights = RNG.normal(size=2)

        def loss() -> float:
            return float((critic.values(obs) * weights).sum())

        critic.zero_grads()
        critic.values(obs)
        critic.backward(weights)
        for param, grad in zip(critic.params, critic.grads):
            numeric = numerical_gradient(loss, param)
            assert relative_error(grad, numeric) < 1e-5


def _small_actor(seed):
    return ActorNetwork(NUM_BITRATES, np.random.default_rng(seed), filters=4, hidden=8)


class TestLoadStateArrays:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        actor = _small_actor(5)
        arrays = actor.state_arrays()
        head_weight = f"p{len(actor.params) - 2}"
        arrays[head_weight] = np.full_like(arrays[head_weight], bad)
        with pytest.raises(ModelError, match="non-finite"):
            actor.load_state_arrays(arrays)
        agent = PensieveAgent(np.arange(1, NUM_BITRATES + 1) * 500.0, actor)
        assert np.all(np.isfinite(agent.action_probabilities(np.zeros((6, 8)))))

    @pytest.mark.parametrize("fault", ["shape", "nan", "missing"])
    def test_refused_load_leaves_every_param_unchanged(self, fault):
        actor = _small_actor(5)
        before = [param.copy() for param in actor.params]
        arrays = _small_actor(6).state_arrays()
        last = f"p{len(actor.params) - 1}"
        if fault == "shape":
            arrays[last] = np.zeros(arrays[last].size + 1)
        elif fault == "nan":
            arrays[last][0] = np.nan
        else:
            del arrays[last]
        with pytest.raises(ModelError):
            actor.load_state_arrays(arrays)
        for param, old in zip(actor.params, before):
            assert np.array_equal(param, old)


@pytest.fixture(scope="module")
def abr_observations(manifest):
    """Observations of real ABR sessions (two traces under BB)."""
    factory = get_domain("abr").session_factory(manifest=manifest)
    traces = make_dataset("gamma_1_2", num_traces=2, duration_s=200.0, seed=1).traces
    policy = BufferBasedPolicy(manifest.bitrates_kbps)
    return np.concatenate(
        [
            run_session(factory, SessionSpec(trace=trace, seed=0), policy).observations
            for trace in traces
        ]
    )


def _abr_actor(manifest, seed=0):
    return ActorNetwork(
        len(manifest.bitrates_kbps), np.random.default_rng(seed), filters=8, hidden=32
    )


class TestRowStableForward:
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 7, 16])
    def test_every_row_equals_single_observation_forward(
        self, manifest, abr_observations, batch
    ):
        actor = _abr_actor(manifest)
        single = [
            actor.probabilities_inference(observation)[0].tobytes()
            for observation in abr_observations
        ]
        for start in range(0, len(abr_observations) - batch + 1, batch):
            rows = actor.probabilities_inference(
                abr_observations[start : start + batch], row_stable=True
            )
            assert rows.shape == (batch, len(manifest.bitrates_kbps))
            for offset in range(batch):
                assert rows[offset].tobytes() == single[start + offset]


class TestActBatch:
    def test_greedy_equals_per_row_act(self, manifest, abr_observations):
        agent = PensieveAgent(manifest.bitrates_kbps, _abr_actor(manifest, 3))
        rngs = [np.random.default_rng(index) for index in range(len(abr_observations))]
        expected = [
            agent.act(observation, rng)
            for observation, rng in zip(abr_observations, rngs)
        ]
        for batch in (2, 5, 16):
            actions = []
            for start in range(0, len(abr_observations), batch):
                chunk = abr_observations[start : start + batch]
                actions += agent.act_batch(chunk, rngs[start : start + len(chunk)])
            assert actions == expected
            assert all(type(action) is int for action in actions)

    def test_sampling_draws_each_rng_as_per_row_act(self, manifest, abr_observations):
        agent = PensieveAgent(
            manifest.bitrates_kbps, _abr_actor(manifest, 4), greedy=False
        )
        observations = abr_observations[:12]
        batched_rngs = [np.random.default_rng(50 + index) for index in range(12)]
        solo_rngs = [np.random.default_rng(50 + index) for index in range(12)]
        actions = agent.act_batch(observations, batched_rngs)
        expected = [
            agent.act(observation, rng)
            for observation, rng in zip(observations, solo_rngs)
        ]
        assert actions == expected
        for batched, solo in zip(batched_rngs, solo_rngs):
            assert batched.bit_generator.state == solo.bit_generator.state


class TestNonFiniteObservations:
    """Every agent and value-function entry point refuses NaN and inf:
    the ReLU would map a NaN feature to zero and score it as real."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_value_paths_raise(self, bad):
        critic = CriticNetwork(
            NUM_BITRATES, np.random.default_rng(1), filters=8, hidden=32
        )
        agent = PensieveAgent(
            np.arange(1, NUM_BITRATES + 1) * 500.0, _small_actor(2), critic=critic
        )
        value_function = PensieveValueFunction(critic)
        observations = np.random.default_rng(3).normal(size=(2, 6, 8))
        assert np.isfinite(value_function.values(observations)).all()
        observations[1, 2, 3] = bad
        with pytest.raises(ModelError, match="non-finite"):
            value_function.values(observations)
        for value in (value_function.value, agent.value):
            assert np.isfinite(value(observations[0]))
            with pytest.raises(ModelError, match="non-finite"):
                value(observations[1])
