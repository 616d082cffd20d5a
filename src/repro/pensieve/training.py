"""Advantage actor-critic (A2C) training for Pensieve.

The original Pensieve trains with A3C [29]: asynchronous workers collecting
episodes and a central learner applying policy-gradient updates with an
entropy bonus, plus a critic trained on empirical returns.  Parallel actors
only speed up wall-clock training; the gradient is the same, so this
single-process A2C is algorithmically equivalent:

* one episode = streaming the whole video over one training trace,
* actor loss  = -sum_t A_t * log pi(a_t | s_t) - beta * entropy,
  with advantage ``A_t = G_t - V(s_t)`` and ``beta`` annealed over epochs
  (Pensieve anneals its entropy weight the same way),
* critic loss = mean squared error of ``V(s_t)`` against the bootstrapped
  n-step return ``G_t``.

Both networks are updated with RMSProp, as in the reference code.

:class:`A2CTrainer` is the one trainer.  It trains ``K >= 1`` agents that
differ only in their initialization seed (the paper's ensemble members)
in lockstep: their rollout environments step synchronously, and each
update is one stacked ``(members, batch, ...)`` forward/backward/RMSProp
pass per layer.  Member *m*'s floats are exactly those of training it
alone, so a one-member trainer is simply the ``K = 1`` case;
``tests/pensieve_oracles.py`` keeps the plain per-member loop as the
equality oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from repro import obs
from repro.abr.env import ABREnv
from repro.abr.state import S_INFO, S_LEN
from repro.errors import TrainingError
from repro.parallel import chaos
from repro.pensieve.checkpoint import Checkpointer, require
from repro.nn.losses import entropy as probs_entropy
from repro.nn.losses import softmax
from repro.nn.optim import StackedRMSProp
from repro.pensieve.agent import PensieveAgent
from repro.pensieve.model import (
    ActorNetwork,
    CriticNetwork,
    _export_arrays,
    _keyed,
    _load_arrays,
    stacked_forward,
)
from repro.pensieve.stacked import StackedTrainingNetwork
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = [
    "TrainingConfig",
    "TrainingSummary",
    "A2CTrainer",
    "n_step_targets",
]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one A2C training run.

    The defaults are the "fast" tier (seconds per agent on a CPU); the
    experiment harness scales them up for the paper-quality tier.
    """

    epochs: int = 120
    episodes_per_epoch: int = 1
    gamma: float = 0.95
    n_step: int = 8
    actor_learning_rate: float = 1e-3
    critic_learning_rate: float = 2e-3
    entropy_weight_start: float = 0.5
    entropy_weight_end: float = 0.02
    filters: int = 8
    hidden: int = 48
    reward_scale: float = 0.25
    advantage_clip: float = 10.0
    normalize_advantages: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        # Every comparison is written so that NaN fails it.
        for name in ("epochs", "episodes_per_epoch", "n_step"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise TrainingError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise TrainingError(f"gamma must be in [0, 1], got {self.gamma}")
        for name in (
            "actor_learning_rate",
            "critic_learning_rate",
            "reward_scale",
            "advantage_clip",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise TrainingError(f"{name} must be positive and finite, got {value}")
        if not math.inf > self.entropy_weight_start >= self.entropy_weight_end:
            raise TrainingError("entropy weight must be finite and anneal downward")
        if not self.entropy_weight_end >= 0:
            raise TrainingError("entropy weight must be non-negative")

    def with_seed(self, seed: int) -> "TrainingConfig":
        """The same configuration with a different initialization seed —
        how ensemble members are derived (the paper: "the only difference
        ... is the initialization of the neural network variables")."""
        return replace(self, seed=seed)


@dataclass
class TrainingSummary:
    """Per-epoch diagnostics of a training run."""

    episode_returns: list[float] = field(default_factory=list)
    mean_entropies: list[float] = field(default_factory=list)
    critic_losses: list[float] = field(default_factory=list)

    @property
    def final_return(self) -> float:
        """Mean un-scaled episode return over the last 10% of epochs."""
        if not self.episode_returns:
            raise TrainingError("no epochs recorded")
        tail = max(len(self.episode_returns) // 10, 1)
        return float(np.mean(self.episode_returns[-tail:]))


def _grad_norm(grads: list[np.ndarray]) -> float:
    """L2 norm over a parameter-gradient list (observability only —
    never feeds back into training)."""
    return float(np.sqrt(sum(float(np.sum(np.square(grad))) for grad in grads)))


def _member_networks(
    num_bitrates: int, seed: int, config: TrainingConfig
) -> tuple[np.random.Generator, ActorNetwork, CriticNetwork]:
    """One member's freshly initialized ``(rng, actor, critic)``.

    The seed's RNG initializes the actor first, then the critic; training
    then walks the same RNG for trace picks and action samples.  Loading
    cached weights rebuilds the network shells through this too.
    """
    rng = rng_from_seed(seed)
    actor = ActorNetwork(
        num_bitrates, rng, filters=config.filters, hidden=config.hidden
    )
    critic = CriticNetwork(
        num_bitrates, rng, filters=config.filters, hidden=config.hidden
    )
    return rng, actor, critic


def _n_step_targets_fast(
    rewards: np.ndarray, values: np.ndarray, gamma: float, n_step: int
) -> np.ndarray:
    """Vectorized n-step targets: an O(n_step) elementwise reverse scan.

    Every start with a full ``n_step`` reward window ("interior" starts)
    shares the same Horner recursion depth, so one reverse scan over the
    kernel offsets computes all of them at once; each elementwise step is
    ``r + gamma * total``, the exact float operation of the scalar loop,
    and the bootstrap term is added afterwards just as the reference adds
    it after its Horner loop.  Only the ``< n_step`` truncated tail starts
    fall back to the scalar recursion.  Bitwise identical to the nested
    reference loop in ``tests/pensieve_oracles.py`` (property-tested).
    """
    horizon = len(rewards)
    targets = np.empty(horizon)
    interior = horizon - n_step + 1
    if interior > 0:
        total = np.zeros(interior)
        for offset in range(n_step - 1, -1, -1):
            total = rewards[offset : offset + interior] + gamma * total
        # All interior starts except the last one bootstrap with
        # gamma^n_step * V(s_{start+n_step}); the last interior start's
        # window ends exactly at the horizon.
        total[: interior - 1] += gamma**n_step * values[n_step:]
        targets[:interior] = total
    for start in range(max(interior, 0), horizon):
        total = 0.0
        for offset in range(horizon - start - 1, -1, -1):
            total = rewards[start + offset] + gamma * total
        targets[start] = total
    return targets


def n_step_targets(
    rewards: np.ndarray, values: np.ndarray, gamma: float, n_step: int
) -> np.ndarray:
    """Bootstrapped n-step return targets within one episode.

    ``G_t = r_t + ... + gamma^{n-1} r_{t+n-1} + gamma^n V(s_{t+n})``,
    truncating (no bootstrap) where the episode ends first.  Compared to
    pure Monte-Carlo returns this slashes gradient variance, which is what
    lets these small agents converge in hundreds rather than tens of
    thousands of episodes.

    Computed by the vectorized reverse scan, bitwise equal to the
    reference nested loop.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape or rewards.ndim != 1:
        raise TrainingError(
            f"rewards {rewards.shape} and values {values.shape} must be "
            "matching 1-D arrays"
        )
    if n_step < 1:
        raise TrainingError(f"n_step must be >= 1, got {n_step}")
    return _n_step_targets_fast(rewards, values, gamma, n_step)


class A2CTrainer:
    """Trains ``K >= 1`` Pensieve agents that differ only in their seed.

    The paper's ensemble members share traces and hyperparameters and
    differ only in their initialization seed (§2.4), so their training
    loops are structurally identical.  Each member keeps its own RNG,
    actor, critic and :class:`TrainingSummary`, built in the same order
    for every ``K``.  The members then train in lockstep:

    * the ``K`` rollout environments step synchronously, batching each
      per-step action-probability forward across members,
    * each update is one stacked forward/backward/RMSProp pass per layer.

    Every stacked operation applies the exact per-member floats, so each
    member's trained weights are bitwise identical to training it alone
    (``tests/pensieve_oracles.py`` holds that per-member loop).
    :meth:`train` returns the agents in seed order.
    """

    def __init__(
        self,
        manifest: VideoManifest,
        training_traces: list[Trace] | tuple[Trace, ...],
        seeds: list[int] | tuple[int, ...],
        config: TrainingConfig | None = None,
        qoe_metric: QoEMetric | None = None,
    ) -> None:
        if not training_traces:
            raise TrainingError("no training traces supplied")
        if not seeds:
            raise TrainingError("no member seeds supplied")
        self.manifest = manifest
        self.traces = tuple(training_traces)
        self.config = config if config is not None else TrainingConfig()
        self.qoe_metric = qoe_metric
        self.seeds = list(seeds)
        members = [
            _member_networks(manifest.num_bitrates, seed, self.config)
            for seed in self.seeds
        ]
        self._rngs = [rng for rng, _, _ in members]
        self.actors = [actor for _, actor, _ in members]
        self.critics = [critic for _, _, critic in members]
        self.summaries = [TrainingSummary() for _ in self.seeds]
        #: Member-stacked live training weights; the member networks in
        #: :attr:`actors` and :attr:`critics` receive them when
        #: :meth:`train` returns.
        self.stacked_actor = StackedTrainingNetwork(self.actors)
        self.stacked_critic = StackedTrainingNetwork(self.critics)
        self._actor_opt = StackedRMSProp(
            self.stacked_actor.params, learning_rate=self.config.actor_learning_rate
        )
        self._critic_opt = StackedRMSProp(
            self.stacked_critic.params,
            learning_rate=self.config.critic_learning_rate,
        )
        # ABREnv episodes have a fixed horizon (every chunk after the first
        # is one decision), so the members never fall out of step and the
        # collection buffers can be preallocated once.
        self._horizon = manifest.num_chunks - 1
        if self._horizon < 1:
            raise TrainingError("manifest too short for A2C training")
        batch = self.config.episodes_per_epoch * self._horizon
        count = len(self.seeds)
        self._observations = np.empty((count, batch, S_INFO, S_LEN))
        self._actions = np.empty((count, batch), dtype=int)
        self._rewards = np.empty((count, batch))
        self._current = np.empty((count, S_INFO, S_LEN))
        self.epochs_completed = 0
        #: Optional :class:`~repro.pensieve.checkpoint.Checkpointer`; when
        #: set, :meth:`train` resumes every member from its saved state and
        #: checkpoints at every due epoch boundary.
        self.checkpointer: Checkpointer | None = None

    def train(self) -> list[PensieveAgent]:
        """Run the configured epochs for every member and return their
        greedy agents in seed order.

        With a :attr:`checkpointer` attached, training first restores any
        saved checkpoint (validated against this trainer's seeds and epoch
        count) and continues from its epoch; the resumed run's floats are
        bitwise identical to an uninterrupted one because the checkpoint
        captures the complete training state.
        """
        config = self.config
        watching = obs.enabled()
        if self.checkpointer is not None and self.epochs_completed == 0:
            loaded = self.checkpointer.load()
            if loaded is not None:
                self.restore_checkpoint(*loaded)
        with obs.span(
            "trainer.train", engine="lockstep", epochs=config.epochs,
            members=len(self.seeds),
        ):
            for epoch in range(self.epochs_completed, config.epochs):
                fraction = epoch / max(config.epochs - 1, 1)
                beta = (
                    config.entropy_weight_start
                    + fraction
                    * (config.entropy_weight_end - config.entropy_weight_start)
                )
                with obs.timer("trainer.epoch_seconds", engine="lockstep"):
                    raw_returns = self._collect()
                    critic_losses = self._update(beta)
                for summary, raw, loss in zip(
                    self.summaries, raw_returns, critic_losses
                ):
                    summary.episode_returns.append(raw)
                    summary.critic_losses.append(loss)
                if watching:
                    obs.inc("trainer.epochs", engine="lockstep")
                    # The stacked gradients carry a leading member axis;
                    # report each member's norm.
                    for index in range(len(self.seeds)):
                        for name, stacked in (
                            ("actor", self.stacked_actor),
                            ("critic", self.stacked_critic),
                        ):
                            obs.observe(
                                f"trainer.grad_norm.{name}",
                                _grad_norm([grad[index] for grad in stacked.grads]),
                                engine="lockstep",
                            )
                self.epochs_completed = epoch + 1
                if self.checkpointer is not None and self.checkpointer.due(
                    self.epochs_completed, config.epochs
                ):
                    self.checkpointer.save(*self.checkpoint_payload())
                # The epoch chaos site models a crash at an epoch boundary
                # (after the checkpoint write, so resume is exercised).
                chaos.maybe_fire("epoch", epoch)
        self.stacked_actor.write_back()
        self.stacked_critic.write_back()
        return [
            PensieveAgent(
                self.manifest.bitrates_kbps, actor=actor, critic=critic, greedy=True
            )
            for actor, critic in zip(self.actors, self.critics)
        ]

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The complete training state as ``(meta, arrays)``.

        The arrays are the live ``(members, ...)`` stacked parameters and
        the stacked RMSProp accumulators (member *m*'s state is slice
        ``m``); the meta carries every member's RNG state and summaries.
        """
        arrays = _export_arrays(self._checkpoint_arrays())
        meta = {
            "engine": "lockstep",
            "seeds": list(self.seeds),
            "epochs_total": self.config.epochs,
            "epochs_completed": self.epochs_completed,
            "rng_states": [rng.bit_generator.state for rng in self._rngs],
            "summaries": [
                {
                    "episode_returns": list(summary.episode_returns),
                    "mean_entropies": list(summary.mean_entropies),
                    "critic_losses": list(summary.critic_losses),
                }
                for summary in self.summaries
            ],
        }
        return meta, arrays

    def _checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The live arrays a checkpoint holds, by checkpoint key."""
        return {
            **_keyed("actor_p", self.stacked_actor.params),
            **_keyed("critic_p", self.stacked_critic.params),
            **_keyed("actor_ms", self._actor_opt._mean_square),
            **_keyed("critic_ms", self._critic_opt._mean_square),
        }

    def restore_checkpoint(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Load a :meth:`checkpoint_payload` state in place (validated
        against this trainer's member seeds and epoch count)."""
        require(
            meta,
            engine="lockstep",
            seeds=list(self.seeds),
            epochs_total=self.config.epochs,
        )
        _load_arrays(self._checkpoint_arrays(), arrays, TrainingError)
        for rng, rng_state, summary, saved in zip(
            self._rngs, meta["rng_states"], self.summaries, meta["summaries"]
        ):
            rng.bit_generator.state = rng_state
            summary.episode_returns = list(saved["episode_returns"])
            summary.mean_entropies = list(saved["mean_entropies"])
            summary.critic_losses = list(saved["critic_losses"])
        self.epochs_completed = int(meta["epochs_completed"])

    def _collect(self) -> list[float]:
        """Roll out one epoch's episodes with all members stepping
        synchronously, batching the per-step policy forward across
        members.  Fills the preallocated buffers and returns each
        member's mean raw episode return."""
        config = self.config
        # The weights only change in _update, so one snapshot per rollout
        # sees everything written since: the last update, a warm start or
        # a restored checkpoint.
        weights = self.stacked_actor.snapshot()
        members = len(self.seeds)
        horizon = self._horizon
        raw = np.empty((members, config.episodes_per_epoch))
        for episode in range(config.episodes_per_epoch):
            base = episode * horizon
            envs = []
            for index, rng in enumerate(self._rngs):
                trace = self.traces[int(rng.integers(len(self.traces)))]
                env = ABREnv(self.manifest, trace, qoe_metric=self.qoe_metric)
                self._current[index] = env.reset()
                envs.append(env)
            num_actions = self.manifest.num_bitrates
            for t in range(horizon):
                self._observations[:, base + t] = self._current
                probabilities = softmax(
                    stacked_forward(weights, self._current[:, None])[:, 0]
                )
                for index, (rng, env) in enumerate(zip(self._rngs, envs)):
                    action = int(rng.choice(num_actions, p=probabilities[index]))
                    step = env.step(action)
                    self._actions[index, base + t] = action
                    self._rewards[index, base + t] = (
                        step.reward * config.reward_scale
                    )
                    self._current[index] = step.observation
                    if step.done != (t == horizon - 1):
                        raise TrainingError(
                            "ensemble member fell out of lockstep with the "
                            "fixed episode horizon"
                        )
            for index in range(members):
                raw[index, episode] = (
                    float(np.sum(self._rewards[index, base : base + horizon]))
                    / config.reward_scale
                )
        return [float(np.mean(raw[index])) for index in range(members)]

    def _update(self, entropy_weight: float) -> list[float]:
        """One stacked actor and critic gradient step on the collected
        epoch; member row *m* gets exactly the floats of its own update."""
        config = self.config
        members = len(self.seeds)
        batch = self._observations.shape[1]
        values = self.stacked_critic.outputs(self._observations)[..., 0]
        targets = np.empty_like(values)
        for index in range(members):
            for episode in range(config.episodes_per_epoch):
                window = slice(
                    episode * self._horizon, (episode + 1) * self._horizon
                )
                targets[index, window] = _n_step_targets_fast(
                    self._rewards[index, window],
                    values[index, window],
                    config.gamma,
                    config.n_step,
                )
        advantages = targets - values
        if config.normalize_advantages:
            advantages = (advantages - advantages.mean(axis=1, keepdims=True)) / (
                advantages.std(axis=1, keepdims=True) + 1e-8
            )
        advantages = np.clip(
            advantages, -config.advantage_clip, config.advantage_clip
        )
        logits = self.stacked_actor.outputs(self._observations)
        probabilities = softmax(logits)
        one_hot = np.zeros_like(probabilities)
        one_hot[
            np.arange(members)[:, None],
            np.arange(batch)[None, :],
            self._actions,
        ] = 1.0
        policy_grad = advantages[..., None] * (probabilities - one_hot)
        entropies = probs_entropy(probabilities)
        entropy_grad = probabilities * (
            np.log(probabilities + 1e-12) + entropies[..., None]
        )
        grad_logits = (policy_grad + entropy_weight * entropy_grad) / batch
        self.stacked_actor.zero_grads()
        self.stacked_actor.backward(grad_logits)
        self._actor_opt.step(self.stacked_actor.grads)
        diff = values - targets
        critic_losses = np.mean(diff**2, axis=1)
        if not np.all(np.isfinite(critic_losses)):
            raise TrainingError("critic loss diverged to a non-finite value")
        self.stacked_critic.zero_grads()
        self.stacked_critic.backward((2.0 * diff / batch)[..., None])
        self._critic_opt.step(self.stacked_critic.grads)
        for summary, member_entropies in zip(self.summaries, entropies):
            summary.mean_entropies.append(float(member_entropies.mean()))
        return [float(loss) for loss in critic_losses]
