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
* critic loss = mean squared error of ``V(s_t)`` against the empirical
  discounted return ``G_t``.

Both networks are updated with RMSProp, as in the reference code.

Two engines share this algorithm:

* :class:`A2CTrainer` — the reference single-agent trainer,
* :class:`LockstepEnsembleTrainer` — the batched engine that trains all
  ``K`` seed-differing ensemble members of one dataset simultaneously,
  stepping their rollout environments in lockstep and replacing ``K``
  separate forward/backward/RMSProp passes with one stacked
  ``(members, batch, ...)`` pass per layer.  Its trained weights are
  bitwise identical to running :class:`A2CTrainer` per member, which
  ``tools/bench_training.py`` gates on every full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.abr.env import ABREnv
from repro.abr.state import S_INFO, S_LEN
from repro.errors import TrainingError
from repro.parallel import chaos
from repro.pensieve.checkpoint import Checkpointer, require
from repro.nn.losses import entropy as probs_entropy
from repro.nn.losses import softmax
from repro.nn.optim import RMSProp, StackedRMSProp
from repro.pensieve.agent import PensieveAgent
from repro.pensieve.model import ActorNetwork, CriticNetwork
from repro.pensieve.stacked import StackedTrainingNetwork
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = [
    "TrainingConfig",
    "TrainingSummary",
    "A2CTrainer",
    "LockstepEnsembleTrainer",
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
        if self.epochs < 1 or self.episodes_per_epoch < 1:
            raise TrainingError("epochs and episodes_per_epoch must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise TrainingError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.n_step < 1:
            raise TrainingError(f"n_step must be >= 1, got {self.n_step}")
        if self.actor_learning_rate <= 0 or self.critic_learning_rate <= 0:
            raise TrainingError("learning rates must be positive")
        if self.entropy_weight_start < self.entropy_weight_end:
            raise TrainingError("entropy weight must anneal downward")
        if self.entropy_weight_end < 0:
            raise TrainingError("entropy weight must be non-negative")
        if self.reward_scale <= 0:
            raise TrainingError(f"reward_scale must be positive, got {self.reward_scale}")
        if self.advantage_clip <= 0:
            raise TrainingError(f"advantage_clip must be positive, got {self.advantage_clip}")

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


def _checkpoint_subset(arrays: dict, prefix: str) -> dict:
    """The checkpoint-array entries under one network's prefix."""
    return {
        key[len(prefix):]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def _restore_mean_squares(optimizer: RMSProp, arrays: dict, prefix: str) -> None:
    """Shape-checked in-place load of an optimizer's mean-square
    accumulators from checkpoint arrays keyed ``{prefix}{index}``."""
    for index, mean_square in enumerate(optimizer._mean_square):
        key = f"{prefix}{index}"
        if key not in arrays:
            raise TrainingError(f"checkpoint missing optimizer state {key}")
        value = np.asarray(arrays[key], dtype=float)
        if value.shape != mean_square.shape:
            raise TrainingError(
                f"checkpoint optimizer state {key} shape {value.shape} != "
                f"expected {mean_square.shape}"
            )
        mean_square[...] = value


def _n_step_targets_reference(
    rewards: np.ndarray, values: np.ndarray, gamma: float, n_step: int
) -> np.ndarray:
    """The reference nested-loop n-step targets (O(horizon x n_step)
    Python iterations): the equality oracle and timing baseline for the
    vectorized scan."""
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
    fall back to the scalar recursion.  Bitwise identical to
    :func:`_n_step_targets_reference` (property-tested).
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
    """Trains one Pensieve agent on a set of training traces."""

    def __init__(
        self,
        manifest: VideoManifest,
        training_traces: list[Trace] | tuple[Trace, ...],
        config: TrainingConfig | None = None,
        qoe_metric: QoEMetric | None = None,
    ) -> None:
        if not training_traces:
            raise TrainingError("no training traces supplied")
        self.manifest = manifest
        self.traces = tuple(training_traces)
        self.config = config if config is not None else TrainingConfig()
        self.qoe_metric = qoe_metric
        self._rng = rng_from_seed(self.config.seed)
        self.actor = ActorNetwork(
            manifest.num_bitrates,
            self._rng,
            filters=self.config.filters,
            hidden=self.config.hidden,
        )
        self.critic = CriticNetwork(
            manifest.num_bitrates,
            self._rng,
            filters=self.config.filters,
            hidden=self.config.hidden,
        )
        self._actor_opt = RMSProp(
            self.actor.params, learning_rate=self.config.actor_learning_rate
        )
        self._critic_opt = RMSProp(
            self.critic.params, learning_rate=self.config.critic_learning_rate
        )
        self.summary = TrainingSummary()
        self.epochs_completed = 0
        #: Optional :class:`~repro.pensieve.checkpoint.Checkpointer`; when
        #: set, :meth:`train` resumes from its saved state and writes a
        #: new checkpoint at every due epoch boundary.
        self.checkpointer: Checkpointer | None = None

    def train(self) -> PensieveAgent:
        """Run the configured number of epochs and return the greedy agent.

        With a :attr:`checkpointer` attached, training first restores any
        saved checkpoint (validated against this trainer's seed and epoch
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
            "trainer.train", engine="per-member", epochs=config.epochs,
            seed=config.seed,
        ):
            for epoch in range(self.epochs_completed, config.epochs):
                fraction = epoch / max(config.epochs - 1, 1)
                beta = (
                    config.entropy_weight_start
                    + fraction
                    * (config.entropy_weight_end - config.entropy_weight_start)
                )
                with obs.timer("trainer.epoch_seconds", engine="per-member"):
                    episodes, raw_return = self._collect_batch()
                    critic_loss = self._update(episodes, beta)
                self.summary.episode_returns.append(raw_return)
                self.summary.critic_losses.append(critic_loss)
                if watching:
                    obs.inc("trainer.epochs", engine="per-member")
                    obs.observe(
                        "trainer.grad_norm.actor",
                        _grad_norm(self.actor.grads),
                        engine="per-member",
                    )
                    obs.observe(
                        "trainer.grad_norm.critic",
                        _grad_norm(self.critic.grads),
                        engine="per-member",
                    )
                self.epochs_completed = epoch + 1
                if self.checkpointer is not None and self.checkpointer.due(
                    self.epochs_completed, config.epochs
                ):
                    self.checkpointer.save(*self.checkpoint_payload())
                # The epoch chaos site models a crash at an epoch boundary
                # (after the checkpoint write, so resume is exercised).
                chaos.maybe_fire("epoch", epoch)
        return self.agent()

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """This trainer's complete training state as ``(meta, arrays)``.

        The arrays hold the network parameters and RMSProp mean-square
        accumulators; the meta holds the RNG state, per-epoch summaries,
        and the identity fields :meth:`restore_checkpoint` validates.
        """
        arrays: dict[str, np.ndarray] = {}
        for key, value in self.actor.state_arrays().items():
            arrays[f"actor_{key}"] = value
        for key, value in self.critic.state_arrays().items():
            arrays[f"critic_{key}"] = value
        for index, mean_square in enumerate(self._actor_opt._mean_square):
            arrays[f"actor_ms{index}"] = mean_square.copy()
        for index, mean_square in enumerate(self._critic_opt._mean_square):
            arrays[f"critic_ms{index}"] = mean_square.copy()
        meta = {
            "engine": "per-member",
            "seed": self.config.seed,
            "epochs_total": self.config.epochs,
            "epochs_completed": self.epochs_completed,
            "rng_state": self._rng.bit_generator.state,
            "summary": {
                "episode_returns": list(self.summary.episode_returns),
                "mean_entropies": list(self.summary.mean_entropies),
                "critic_losses": list(self.summary.critic_losses),
            },
        }
        return meta, arrays

    def restore_checkpoint(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Load a :meth:`checkpoint_payload` state in place (validated
        against this trainer's identity)."""
        require(
            meta,
            engine="per-member",
            seed=self.config.seed,
            epochs_total=self.config.epochs,
        )
        self.actor.load_state_arrays(_checkpoint_subset(arrays, "actor_"))
        self.critic.load_state_arrays(_checkpoint_subset(arrays, "critic_"))
        _restore_mean_squares(self._actor_opt, arrays, "actor_ms")
        _restore_mean_squares(self._critic_opt, arrays, "critic_ms")
        self._rng.bit_generator.state = meta["rng_state"]
        summary = meta["summary"]
        self.summary.episode_returns = list(summary["episode_returns"])
        self.summary.mean_entropies = list(summary["mean_entropies"])
        self.summary.critic_losses = list(summary["critic_losses"])
        self.epochs_completed = int(meta["epochs_completed"])

    def agent(self, greedy: bool = True) -> PensieveAgent:
        """The current policy as an evaluation-ready agent."""
        return PensieveAgent(
            self.manifest.bitrates_kbps,
            actor=self.actor,
            critic=self.critic,
            greedy=greedy,
        )

    def _collect_batch(
        self,
    ) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], float]:
        """Roll out sampled-action episodes.

        Returns a list of ``(observations, actions, scaled_rewards)`` per
        episode plus the mean raw (QoE-scale) episode return for logging.
        """
        config = self.config
        episodes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        raw_returns: list[float] = []
        for _ in range(config.episodes_per_epoch):
            trace = self.traces[int(self._rng.integers(len(self.traces)))]
            env = ABREnv(self.manifest, trace, qoe_metric=self.qoe_metric)
            observation = env.reset()
            observations: list[np.ndarray] = []
            actions: list[int] = []
            rewards: list[float] = []
            done = False
            while not done:
                probabilities = self.actor.probabilities_inference(observation)[0]
                action = int(self._rng.choice(probabilities.size, p=probabilities))
                step = env.step(action)
                observations.append(observation)
                actions.append(action)
                rewards.append(step.reward * config.reward_scale)
                observation = step.observation
                done = step.done
            episodes.append(
                (
                    np.stack(observations),
                    np.array(actions, dtype=int),
                    np.array(rewards),
                )
            )
            raw_returns.append(float(np.sum(rewards)) / config.reward_scale)
        return episodes, float(np.mean(raw_returns))

    def _n_step_targets(
        self, rewards: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Bootstrapped n-step return targets within one episode.

        Delegates to the module-level :func:`n_step_targets` with this
        trainer's ``gamma`` and ``n_step``.
        """
        return n_step_targets(
            rewards, values, self.config.gamma, self.config.n_step
        )

    def _update(
        self,
        episodes: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        entropy_weight: float,
    ) -> float:
        """One actor and one critic gradient step on the collected batch."""
        observations = np.concatenate([obs for obs, _, _ in episodes])
        actions = np.concatenate([act for _, act, _ in episodes])
        values = self.critic.values(observations)
        targets = []
        offset = 0
        for obs, _, rewards in episodes:
            episode_values = values[offset : offset + len(rewards)]
            targets.append(self._n_step_targets(rewards, episode_values))
            offset += len(rewards)
        targets = np.concatenate(targets)
        batch = observations.shape[0]
        advantages = targets - values
        if self.config.normalize_advantages:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8
            )
        advantages = np.clip(
            advantages, -self.config.advantage_clip, self.config.advantage_clip
        )
        # Actor: gradient of -A * log pi(a|s) - beta * H(pi) w.r.t. logits.
        logits = self.actor.logits(observations)
        probabilities = softmax(logits)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(batch), actions] = 1.0
        policy_grad = advantages[:, None] * (probabilities - one_hot)
        entropies = probs_entropy(probabilities)
        entropy_grad = probabilities * (
            np.log(probabilities + 1e-12) + entropies[:, None]
        )
        # Loss L = -sum A*log pi - beta*H; dL/dlogits is the sum below.
        grad_logits = (policy_grad + entropy_weight * entropy_grad) / batch
        self.actor.zero_grads()
        self.actor.backward(grad_logits)
        self._actor_opt.step(self.actor.grads)
        # Critic: MSE against the bootstrapped targets.
        diff = values - targets
        critic_loss = float(np.mean(diff**2))
        if not np.isfinite(critic_loss):
            raise TrainingError("critic loss diverged to a non-finite value")
        self.critic.zero_grads()
        self.critic.backward(2.0 * diff / batch)
        self._critic_opt.step(self.critic.grads)
        self.summary.mean_entropies.append(float(entropies.mean()))
        return critic_loss


class LockstepEnsembleTrainer:
    """Trains all ``K`` ensemble members of one dataset in lockstep.

    The paper's ensemble members share traces and hyperparameters and
    differ only in their initialization seed, so their training loops are
    structurally identical.  This engine exploits that: it constructs one
    :class:`A2CTrainer` per member (preserving each member's RNG stream
    and network-initialization order exactly), stacks their actor and
    critic parameters into ``(members, ...)`` arrays, and then

    * steps the ``K`` rollout environments synchronously, batching each
      per-step action-probability forward across members,
    * runs one stacked forward/backward/RMSProp pass per layer instead of
      ``K`` separate batch updates.

    Every stacked operation applies the exact per-member floats, so the
    trained weights are bitwise identical to running each
    :class:`A2CTrainer` on its own (``tools/bench_training.py`` asserts
    this for multiple root seeds).  Per-member summaries are filled in on
    the member trainers just as their own ``train()`` would.
    """

    def __init__(
        self,
        manifest: VideoManifest,
        training_traces: list[Trace] | tuple[Trace, ...],
        seeds: list[int] | tuple[int, ...],
        config: TrainingConfig | None = None,
        qoe_metric: QoEMetric | None = None,
    ) -> None:
        if not seeds:
            raise TrainingError("no member seeds supplied")
        base_config = config if config is not None else TrainingConfig()
        self.manifest = manifest
        self.config = base_config
        self.members = [
            A2CTrainer(
                manifest,
                training_traces,
                config=base_config.with_seed(seed),
                qoe_metric=qoe_metric,
            )
            for seed in seeds
        ]
        self._actor = StackedTrainingNetwork([m.actor for m in self.members])
        self._critic = StackedTrainingNetwork([m.critic for m in self.members])
        self._actor_opt = StackedRMSProp(
            self._actor.params, learning_rate=base_config.actor_learning_rate
        )
        self._critic_opt = StackedRMSProp(
            self._critic.params, learning_rate=base_config.critic_learning_rate
        )
        # ABREnv episodes have a fixed horizon (every chunk after the first
        # is one decision), so the members never fall out of step and the
        # collection buffers can be preallocated once.
        self._horizon = manifest.num_chunks - 1
        if self._horizon < 1:
            raise TrainingError("manifest too short for lockstep training")
        members = len(self.members)
        batch = base_config.episodes_per_epoch * self._horizon
        self._observations = np.empty((members, batch, S_INFO, S_LEN))
        self._actions = np.empty((members, batch), dtype=int)
        self._rewards = np.empty((members, batch))
        self._current = np.empty((members, S_INFO, S_LEN))
        self.epochs_completed = 0
        #: Optional :class:`~repro.pensieve.checkpoint.Checkpointer`; when
        #: set, :meth:`train` resumes the whole stacked ensemble from its
        #: saved state and checkpoints at every due epoch boundary.
        self.checkpointer: Checkpointer | None = None

    def train(self) -> list[PensieveAgent]:
        """Run the configured epochs for every member and return their
        greedy agents in seed order."""
        config = self.config
        watching = obs.enabled()
        if self.checkpointer is not None and self.epochs_completed == 0:
            loaded = self.checkpointer.load()
            if loaded is not None:
                self.restore_checkpoint(*loaded)
        with obs.span(
            "trainer.train", engine="lockstep", epochs=config.epochs,
            members=len(self.members),
        ):
            for epoch in range(self.epochs_completed, config.epochs):
                fraction = epoch / max(config.epochs - 1, 1)
                beta = (
                    config.entropy_weight_start
                    + fraction
                    * (config.entropy_weight_end - config.entropy_weight_start)
                )
                with obs.timer("trainer.epoch_seconds", engine="lockstep"):
                    raw_returns = self._collect_lockstep()
                    critic_losses = self._update(beta)
                for member, raw, loss in zip(self.members, raw_returns, critic_losses):
                    member.summary.episode_returns.append(raw)
                    member.summary.critic_losses.append(loss)
                if watching:
                    obs.inc("trainer.epochs", engine="lockstep")
                    # The stacked gradients carry a leading member axis;
                    # report each member's norm so the two engines emit
                    # comparable streams.
                    for index in range(len(self.members)):
                        obs.observe(
                            "trainer.grad_norm.actor",
                            _grad_norm([grad[index] for grad in self._actor.grads]),
                            engine="lockstep",
                        )
                        obs.observe(
                            "trainer.grad_norm.critic",
                            _grad_norm([grad[index] for grad in self._critic.grads]),
                            engine="lockstep",
                        )
                self.epochs_completed = epoch + 1
                if self.checkpointer is not None and self.checkpointer.due(
                    self.epochs_completed, config.epochs
                ):
                    self.checkpointer.save(*self.checkpoint_payload())
                # Crash-at-epoch-boundary injection site (after the save).
                chaos.maybe_fire("epoch", epoch)
        self._actor.write_back()
        self._critic.write_back()
        return [member.agent() for member in self.members]

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The stacked ensemble's complete training state.

        The arrays are the live ``(members, ...)`` stacked parameters and
        the stacked RMSProp accumulators (member *m*'s state is slice
        ``m``); the meta carries every member's RNG state and summaries.
        """
        arrays: dict[str, np.ndarray] = {}
        for index, param in enumerate(self._actor.params):
            arrays[f"actor_p{index}"] = param.copy()
        for index, param in enumerate(self._critic.params):
            arrays[f"critic_p{index}"] = param.copy()
        for index, mean_square in enumerate(self._actor_opt._mean_square):
            arrays[f"actor_ms{index}"] = mean_square.copy()
        for index, mean_square in enumerate(self._critic_opt._mean_square):
            arrays[f"critic_ms{index}"] = mean_square.copy()
        meta = {
            "engine": "lockstep",
            "seeds": [member.config.seed for member in self.members],
            "epochs_total": self.config.epochs,
            "epochs_completed": self.epochs_completed,
            "rng_states": [
                member._rng.bit_generator.state for member in self.members
            ],
            "summaries": [
                {
                    "episode_returns": list(member.summary.episode_returns),
                    "mean_entropies": list(member.summary.mean_entropies),
                    "critic_losses": list(member.summary.critic_losses),
                }
                for member in self.members
            ],
        }
        return meta, arrays

    def restore_checkpoint(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Load a :meth:`checkpoint_payload` state in place (validated
        against this ensemble's member seeds and epoch count)."""
        require(
            meta,
            engine="lockstep",
            seeds=[member.config.seed for member in self.members],
            epochs_total=self.config.epochs,
        )
        for network, name in ((self._actor, "actor"), (self._critic, "critic")):
            for index, param in enumerate(network.params):
                key = f"{name}_p{index}"
                if key not in arrays:
                    raise TrainingError(f"checkpoint missing parameter {key}")
                value = np.asarray(arrays[key], dtype=float)
                if value.shape != param.shape:
                    raise TrainingError(
                        f"checkpoint parameter {key} shape {value.shape} != "
                        f"expected {param.shape}"
                    )
                param[...] = value
        _restore_mean_squares(self._actor_opt, arrays, "actor_ms")
        _restore_mean_squares(self._critic_opt, arrays, "critic_ms")
        for member, rng_state, summary in zip(
            self.members, meta["rng_states"], meta["summaries"]
        ):
            member._rng.bit_generator.state = rng_state
            member.summary.episode_returns = list(summary["episode_returns"])
            member.summary.mean_entropies = list(summary["mean_entropies"])
            member.summary.critic_losses = list(summary["critic_losses"])
        self.epochs_completed = int(meta["epochs_completed"])

    def _collect_lockstep(self) -> list[float]:
        """Roll out one epoch's episodes with all members stepping
        synchronously, batching the per-step policy forward across
        members.  Fills the preallocated buffers and returns each
        member's mean raw episode return."""
        config = self.config
        members = len(self.members)
        horizon = self._horizon
        raw = np.empty((members, config.episodes_per_epoch))
        for episode in range(config.episodes_per_epoch):
            base = episode * horizon
            envs = []
            for index, member in enumerate(self.members):
                trace = member.traces[
                    int(member._rng.integers(len(member.traces)))
                ]
                env = ABREnv(self.manifest, trace, qoe_metric=member.qoe_metric)
                self._current[index] = env.reset()
                envs.append(env)
            num_actions = self.manifest.num_bitrates
            for t in range(horizon):
                self._observations[:, base + t] = self._current
                probabilities = softmax(
                    self._actor.lockstep_outputs(self._current)
                )
                for index, (member, env) in enumerate(zip(self.members, envs)):
                    action = int(
                        member._rng.choice(num_actions, p=probabilities[index])
                    )
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
        epoch, mirroring :meth:`A2CTrainer._update` member-row by
        member-row."""
        config = self.config
        members = len(self.members)
        batch = self._observations.shape[1]
        values = self._critic.outputs(self._observations)[..., 0]
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
        logits = self._actor.outputs(self._observations)
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
        self._actor.zero_grads()
        self._actor.backward(grad_logits)
        self._actor_opt.step(self._actor.grads)
        diff = values - targets
        critic_losses = np.mean(diff**2, axis=1)
        if not np.all(np.isfinite(critic_losses)):
            raise TrainingError("critic loss diverged to a non-finite value")
        self._critic.zero_grads()
        self._critic.backward((2.0 * diff / batch)[..., None])
        self._critic_opt.step(self._critic.grads)
        for index, member in enumerate(self.members):
            member.summary.mean_entropies.append(float(entropies[index].mean()))
        return [float(loss) for loss in critic_losses]
