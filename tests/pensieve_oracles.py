"""Plain per-member reference versions of the Pensieve training loops.

:class:`repro.pensieve.training.A2CTrainer` trains ``K`` seed-differing
agents in lockstep through member-stacked networks, and
``repro.pensieve.ensemble`` regresses ``K`` value functions in one
stacked pass.  These oracles restate both the straightforward way — one
member at a time, through its own networks and :class:`RMSProp` — so the
tests and ``tools/bench_training.py`` can check the stacked code bitwise
against an independent reading.  They hold only what training needs:
initialization, rollout collection, the update step and the epoch loop.
"""

from __future__ import annotations

import numpy as np

from repro.abr.env import ABREnv
from repro.nn.losses import entropy as probs_entropy
from repro.nn.losses import softmax
from repro.nn.optim import RMSProp
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.ensemble import collect_value_targets
from repro.pensieve.model import ActorNetwork, CriticNetwork
from repro.pensieve.training import TrainingSummary, n_step_targets
from repro.util.rng import rng_from_seed, spawn_seeds


def n_step_targets_reference(
    rewards: np.ndarray, values: np.ndarray, gamma: float, n_step: int
) -> np.ndarray:
    """The nested-loop n-step targets (O(horizon x n_step) Python
    iterations), the oracle for the vectorized reverse scan."""
    horizon = len(rewards)
    targets = np.empty(horizon)
    for start in range(horizon):
        end = min(start + n_step, horizon)
        total = 0.0
        for offset in range(end - start - 1, -1, -1):
            total = rewards[start + offset] + gamma * total
        if end < horizon:
            total += gamma ** (end - start) * values[end]
        targets[start] = total
    return targets


class A2COracle:
    """One agent's A2C loop, trained alone from its seed."""

    def __init__(self, manifest, traces, config, seed: int) -> None:
        self.manifest = manifest
        self.traces = tuple(traces)
        self.config = config
        self.rng = rng_from_seed(seed)
        shape = dict(filters=config.filters, hidden=config.hidden)
        self.actor = ActorNetwork(manifest.num_bitrates, self.rng, **shape)
        self.critic = CriticNetwork(manifest.num_bitrates, self.rng, **shape)
        self.actor_opt = RMSProp(
            self.actor.params, learning_rate=config.actor_learning_rate
        )
        self.critic_opt = RMSProp(
            self.critic.params, learning_rate=config.critic_learning_rate
        )
        self.summary = TrainingSummary()

    def collect(self):
        """Roll out sampled-action episodes: ``(observations, actions,
        scaled rewards)`` per episode plus the mean raw episode return."""
        config = self.config
        episodes, raw_returns = [], []
        for _ in range(config.episodes_per_epoch):
            trace = self.traces[int(self.rng.integers(len(self.traces)))]
            env = ABREnv(self.manifest, trace)
            observation = env.reset()
            observations, actions, rewards = [], [], []
            done = False
            while not done:
                probabilities = self.actor.probabilities_inference(observation)[0]
                action = int(self.rng.choice(probabilities.size, p=probabilities))
                step = env.step(action)
                observations.append(observation)
                actions.append(action)
                rewards.append(step.reward * config.reward_scale)
                observation = step.observation
                done = step.done
            episodes.append(
                (np.stack(observations), np.array(actions), np.array(rewards))
            )
            raw_returns.append(float(np.sum(rewards)) / config.reward_scale)
        return episodes, float(np.mean(raw_returns))

    def update(self, episodes, entropy_weight: float) -> float:
        """One actor and one critic gradient step; returns the critic loss."""
        config = self.config
        observations = np.concatenate([obs for obs, _, _ in episodes])
        actions = np.concatenate([act for _, act, _ in episodes])
        values = self.critic.values(observations)
        targets, offset = [], 0
        for _, _, rewards in episodes:
            episode_values = values[offset : offset + len(rewards)]
            targets.append(
                n_step_targets(rewards, episode_values, config.gamma, config.n_step)
            )
            offset += len(rewards)
        targets = np.concatenate(targets)
        batch = observations.shape[0]
        advantages = targets - values
        if config.normalize_advantages:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        advantages = np.clip(advantages, -config.advantage_clip, config.advantage_clip)
        probabilities = softmax(self.actor.logits(observations))
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(batch), actions] = 1.0
        policy_grad = advantages[:, None] * (probabilities - one_hot)
        entropies = probs_entropy(probabilities)
        entropy_grad = probabilities * (
            np.log(probabilities + 1e-12) + entropies[:, None]
        )
        self.actor.zero_grads()
        self.actor.backward((policy_grad + entropy_weight * entropy_grad) / batch)
        self.actor_opt.step(self.actor.grads)
        diff = values - targets
        self.critic.zero_grads()
        self.critic.backward(2.0 * diff / batch)
        self.critic_opt.step(self.critic.grads)
        self.summary.mean_entropies.append(float(entropies.mean()))
        return float(np.mean(diff**2))

    def train(self) -> PensieveAgent:
        """Run every configured epoch; return the greedy agent."""
        config = self.config
        for epoch in range(config.epochs):
            fraction = epoch / max(config.epochs - 1, 1)
            beta = config.entropy_weight_start + fraction * (
                config.entropy_weight_end - config.entropy_weight_start
            )
            episodes, raw_return = self.collect()
            critic_loss = self.update(episodes, beta)
            self.summary.episode_returns.append(raw_return)
            self.summary.critic_losses.append(critic_loss)
        return PensieveAgent(
            self.manifest.bitrates_kbps, self.actor, self.critic, greedy=True
        )


def train_agents(manifest, traces, config, seeds) -> list[PensieveAgent]:
    """One :class:`A2COracle` per seed, one after another."""
    return [A2COracle(manifest, traces, config, seed).train() for seed in seeds]


def train_value_member(
    observations, targets, num_bitrates, epochs, learning_rate, filters, hidden, seed
) -> PensieveValueFunction:
    """Regress one value function alone on the shared dataset."""
    critic = CriticNetwork(
        num_bitrates, rng_from_seed(seed), filters=filters, hidden=hidden
    )
    optimizer = RMSProp(critic.params, learning_rate=learning_rate)
    for _ in range(epochs):
        diff = critic.values(observations) - targets
        critic.zero_grads()
        critic.backward(2.0 * diff / diff.size)
        optimizer.step(critic.grads)
    return PensieveValueFunction(critic, name=f"value-{seed}")


def train_values(
    agent, manifest, traces, size, epochs, filters, hidden, gamma=0.99, root_seed=0
) -> list[PensieveValueFunction]:
    """The per-member reading of ``train_value_ensemble`` (learning rate
    2e-3, reward scale 1): the same targets, then one regression per
    member seed spawned from ``root_seed + 1``."""
    observations, targets = collect_value_targets(
        agent, manifest, traces, gamma=gamma, seed=root_seed
    )
    return [
        train_value_member(
            observations,
            targets,
            manifest.num_bitrates,
            epochs,
            2e-3,
            filters,
            hidden,
            seed,
        )
        for seed in spawn_seeds(root_seed + 1, size)
    ]
