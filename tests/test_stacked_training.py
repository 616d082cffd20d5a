"""Tests for the batched ensemble training engine.

The load-bearing property throughout is *bitwise* equality: every stacked
layer, the stacked optimizer, the vectorized n-step scan, the A2C trainer
and the value regression must reproduce the per-member oracles in
``tests/pensieve_oracles.py`` float for float, for one member and for
many, because the safety-suite caches and the benchmark gate both rely
on "batching changes nothing but the wall clock".
"""

import numpy as np
import pytest

from repro.errors import ModelError, TrainingError
from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.layers import Conv1D, Dense, StackedConv1D, StackedDense
from repro.nn.optim import RMSProp, StackedRMSProp
from repro.pensieve.ensemble import train_value_ensemble
from repro.pensieve.model import ActorNetwork
from repro.pensieve.stacked import StackedTrainingNetwork
from repro.pensieve.training import (
    A2CTrainer,
    TrainingConfig,
    _n_step_targets_fast,
    n_step_targets,
)
from repro.util.rng import rng_from_seed, spawn_seeds
from tests.pensieve_oracles import A2COracle, n_step_targets_reference, train_values

MEMBERS = 3


def _dense_members(rng):
    return [Dense(5, 4, rng) for _ in range(MEMBERS)]


def _conv_members(rng):
    return [Conv1D(2, 3, 4, rng) for _ in range(MEMBERS)]


class TestStackedDense:
    def test_forward_backward_match_members(self):
        rng = rng_from_seed(0)
        members = _dense_members(rng)
        stacked = StackedDense.from_layers(members)
        x = rng.normal(size=(MEMBERS, 7, 5))
        grad_out = rng.normal(size=(MEMBERS, 7, 4))
        out = stacked.forward(x)
        grad_x = stacked.backward(grad_out)
        for index, member in enumerate(members):
            ref_out = member.forward(x[index])
            ref_grad_x = member.backward(grad_out[index])
            assert np.array_equal(out[index], ref_out)
            assert np.array_equal(grad_x[index], ref_grad_x)
            assert np.array_equal(stacked.grad_weight[index], member.grad_weight)
            assert np.array_equal(stacked.grad_bias[index], member.grad_bias)

    def test_write_back_round_trips(self):
        rng = rng_from_seed(1)
        members = _dense_members(rng)
        stacked = StackedDense.from_layers(members)
        stacked.weight += 1.0
        stacked.write_back(members)
        for index, member in enumerate(members):
            assert np.array_equal(member.weight, stacked.weight[index])

    def test_shape_validation(self):
        rng = rng_from_seed(2)
        stacked = StackedDense.from_layers(_dense_members(rng))
        with pytest.raises(ModelError):
            stacked.forward(rng.normal(size=(MEMBERS, 7, 6)))
        with pytest.raises(ModelError):
            StackedDense.from_layers([Dense(5, 4, rng), Dense(5, 3, rng)])


class TestStackedConv1D:
    def test_forward_backward_match_members(self):
        rng = rng_from_seed(3)
        members = _conv_members(rng)
        stacked = StackedConv1D.from_layers(members)
        x = rng.normal(size=(MEMBERS, 6, 2, 8))
        grad_shape = (MEMBERS, 6, 3, 8 - 4 + 1)
        grad_out = rng.normal(size=grad_shape)
        out = stacked.forward(x)
        grad_x = stacked.backward(grad_out)
        for index, member in enumerate(members):
            ref_out = member.forward(x[index])
            ref_grad_x = member.backward(grad_out[index])
            assert np.array_equal(out[index], ref_out)
            assert np.array_equal(grad_x[index], ref_grad_x)
            assert np.array_equal(stacked.grad_weight[index], member.grad_weight)
            assert np.array_equal(stacked.grad_bias[index], member.grad_bias)

    def test_backward_can_skip_input_gradient(self):
        rng = rng_from_seed(4)
        stacked = StackedConv1D.from_layers(_conv_members(rng))
        x = rng.normal(size=(MEMBERS, 6, 2, 8))
        stacked.forward(x)
        assert stacked.backward(np.ones((MEMBERS, 6, 3, 5)), input_grad=False) is None
        assert np.any(stacked.grad_weight != 0.0)


class TestStackedRMSProp:
    def test_matches_per_member_rmsprop(self):
        rng = rng_from_seed(7)
        member_params = [rng.normal(size=(4, 3)) for _ in range(MEMBERS)]
        stacked_param = np.stack(member_params)
        member_opts = [RMSProp([p], learning_rate=1e-2) for p in member_params]
        stacked_opt = StackedRMSProp([stacked_param], learning_rate=1e-2)
        for step in range(5):
            grads = [rng.normal(size=(4, 3)) for _ in range(MEMBERS)]
            stacked_opt.step([np.stack(grads)])
            for opt, grad in zip(member_opts, grads):
                opt.step([grad])
        for index, param in enumerate(member_params):
            assert np.array_equal(stacked_param[index], param)


class TestStackedTrainingNetwork:
    def test_outputs_and_backward_match_members(self):
        rng = rng_from_seed(8)
        actors = [
            ActorNetwork(6, rng_from_seed(s), filters=4, hidden=16)
            for s in range(MEMBERS)
        ]
        stacked = StackedTrainingNetwork(actors)
        obs = rng.normal(size=(MEMBERS, 5, 6, 8))
        grad = rng.normal(size=(MEMBERS, 5, 6))
        out = stacked.outputs(obs)
        stacked.zero_grads()
        stacked.backward(grad)
        for index, actor in enumerate(actors):
            assert np.array_equal(out[index], actor.logits(obs[index]))
            actor.zero_grads()
            actor.backward(grad[index])
            for stacked_grad, member_grad in zip(stacked.grads, actor.grads):
                assert np.array_equal(stacked_grad[index], member_grad)

    def test_stacked_backward_against_numerical_gradient(self):
        # Gradcheck of the new stacked backward: perturb entries of the
        # stacked parameters (a random sample keeps the O(params x
        # forward) finite-difference cost manageable) and compare against
        # the analytic gradients.
        rng = rng_from_seed(10)
        actors = [
            ActorNetwork(4, rng_from_seed(s), filters=3, hidden=8) for s in range(2)
        ]
        stacked = StackedTrainingNetwork(actors)
        obs = rng.normal(size=(2, 3, 6, 8))
        target = rng.normal(size=(2, 3, 4))

        def loss() -> float:
            return float(np.sum((stacked.outputs(obs) - target) ** 2))

        stacked.zero_grads()
        grad_out = 2.0 * (stacked.outputs(obs) - target)
        stacked.backward(grad_out)
        check_rng = rng_from_seed(11)
        for param, analytic in zip(stacked.params, stacked.grads):
            numeric = numerical_gradient(loss, param, sample=20, rng=check_rng)
            mask = numeric != 0.0
            if not np.any(mask):
                continue
            assert relative_error(numeric[mask], analytic[mask]) < 1e-4

    def test_sampled_gradcheck_requires_rng(self):
        array = np.ones(4)
        with pytest.raises(ValueError):
            numerical_gradient(lambda: 0.0, array, sample=2)
        with pytest.raises(ValueError):
            numerical_gradient(lambda: 0.0, array, sample=0, rng=rng_from_seed(0))


class TestNStepTargetsVectorized:
    def test_property_random_shapes_match_reference_exactly(self):
        # Property test: for random rewards, values, horizons, and n_step,
        # the O(n_step) reverse scan equals the nested reference loop
        # bitwise (not just approximately).
        rng = rng_from_seed(12)
        for _ in range(300):
            horizon = int(rng.integers(1, 60))
            n_step = int(rng.integers(1, 16))
            gamma = float(rng.uniform(0.0, 1.0))
            rewards = rng.normal(size=horizon) * float(rng.uniform(0.1, 10.0))
            values = rng.normal(size=horizon) * float(rng.uniform(0.1, 10.0))
            reference = n_step_targets_reference(rewards, values, gamma, n_step)
            fast = _n_step_targets_fast(rewards, values, gamma, n_step)
            assert np.array_equal(reference, fast)

    def test_public_entry_matches_reference_loop(self):
        rewards = np.arange(10.0)
        values = np.ones(10)
        reference = n_step_targets_reference(rewards, values, 0.9, 4)
        assert np.array_equal(n_step_targets(rewards, values, 0.9, 4), reference)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(TrainingError):
            n_step_targets(np.ones(3), np.ones(4), 0.9, 2)
        with pytest.raises(TrainingError):
            n_step_targets(np.ones(3), np.ones(3), 0.9, 0)


def _assert_matches_oracles(trainer, oracles) -> None:
    """Every member's weights and summaries equal its oracle's, bitwise."""
    assert len(trainer.seeds) == len(oracles)
    for index, oracle in enumerate(oracles):
        for ours, theirs in (
            (trainer.actors[index], oracle.actor),
            (trainer.critics[index], oracle.critic),
        ):
            for param, reference in zip(ours.params, theirs.params):
                assert np.array_equal(param, reference)
        summary = trainer.summaries[index]
        assert summary.episode_returns == oracle.summary.episode_returns
        assert summary.critic_losses == oracle.summary.critic_losses
        assert summary.mean_entropies == oracle.summary.mean_entropies


class TestLockstepEnsembleTrainer:
    """:class:`A2CTrainer` against the per-member :class:`A2COracle`."""

    CONFIG = TrainingConfig(epochs=4, episodes_per_epoch=2, filters=4, hidden=16)

    def _check(self, manifest, traces, seeds) -> None:
        oracles = [A2COracle(manifest, traces, self.CONFIG, seed) for seed in seeds]
        for oracle in oracles:
            oracle.train()
        trainer = A2CTrainer(manifest, traces, seeds, config=self.CONFIG)
        agents = trainer.train()
        assert [agent.actor for agent in agents] == trainer.actors
        _assert_matches_oracles(trainer, oracles)

    @pytest.mark.parametrize("root_seed", [0, 1])
    def test_bitwise_identical_to_reference(
        self, manifest, steady_trace, bursty_trace, root_seed
    ):
        seeds = spawn_seeds(root_seed, MEMBERS)
        self._check(manifest, [steady_trace, bursty_trace], seeds)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_one_member_matches_oracle(
        self, manifest, steady_trace, bursty_trace, seed
    ):
        self._check(manifest, [steady_trace, bursty_trace], [seed])

    @pytest.mark.parametrize("size", [1, MEMBERS])
    def test_value_regression_matches_oracle(self, manifest, steady_trace, size):
        (agent,) = A2CTrainer(
            manifest, [steady_trace], [0], config=self.CONFIG
        ).train()
        kwargs = dict(size=size, epochs=4, filters=4, hidden=12, root_seed=3)
        stacked = train_value_ensemble(agent, manifest, [steady_trace], **kwargs)
        reference = train_values(agent, manifest, [steady_trace], **kwargs)
        assert len(stacked) == size
        for ours, theirs in zip(stacked, reference):
            assert ours.name == theirs.name
            for param, expected in zip(ours.critic.params, theirs.critic.params):
                assert np.array_equal(param, expected)

    def test_requires_seeds(self, manifest, steady_trace):
        with pytest.raises(TrainingError):
            A2CTrainer(manifest, [steady_trace], [])
