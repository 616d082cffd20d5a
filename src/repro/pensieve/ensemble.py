"""Ensembles for the paper's output-uncertainty signals.

Section 2.4:

* ``U_pi`` uses "an ensemble of i different agents trained in the same
  training environment, where the only difference in the training process
  is the initialization of the neural network variables".
* ``U_V`` uses i value functions "trained on the training distribution";
  they are trained *with respect to a single agent's policy* by observing
  the states and rewards that policy produces.

Both trainers here derive member seeds from one root seed, so an ensemble
is a deterministic function of ``(traces, config, root_seed)``.

Because the result is deterministic, the trained weights are themselves a
cacheable artifact: pass an :class:`~repro.experiments.artifacts.ArtifactCache`
keyed by the training fingerprint and both trainers persist every member's
parameters as a versioned ``.npz``, so rebuilding a safety suite with an
unchanged configuration loads the networks instead of retraining them.

Every ensemble, one member or many, trains in one stacked pass: agents
through :class:`~repro.pensieve.training.A2CTrainer` and value functions
through one stacked regression, each with weights bitwise identical to
training every member alone.
"""

from __future__ import annotations

from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from repro.abr.session import run_session
from repro.errors import TrainingError
from repro.mdp.rollout import discounted_returns
from repro.nn.optim import StackedRMSProp
from repro.parallel import chaos
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.checkpoint import (
    Checkpointer,
    require,
    resolve_checkpoint_every,
)
from repro.pensieve.model import CriticNetwork, _export_arrays, _keyed, _load_arrays
from repro.pensieve.stacked import StackedTrainingNetwork
from repro.pensieve.training import A2CTrainer, TrainingConfig, _member_networks
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed, spawn_seeds
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.experiments.artifacts import ArtifactCache

__all__ = [
    "train_agent_ensemble",
    "train_value_ensemble",
    "AGENT_WEIGHTS_ARTIFACT",
    "VALUE_WEIGHTS_ARTIFACT",
    "AGENT_CHECKPOINT_ARTIFACT",
    "VALUE_CHECKPOINT_ARTIFACT",
]

#: Cache name of the agent-ensemble weight ``.npz`` artifact.
AGENT_WEIGHTS_ARTIFACT = "agent_weights"
#: Cache name of the value-ensemble weight ``.npz`` artifact.
VALUE_WEIGHTS_ARTIFACT = "value_weights"
#: Cache name of the agent-ensemble training checkpoint.
AGENT_CHECKPOINT_ARTIFACT = "agent_ckpt"
#: Cache name of the value-ensemble training checkpoint.
VALUE_CHECKPOINT_ARTIFACT = "value_ckpt"


def _subset(arrays: dict, prefix: str) -> dict:
    """The entries of a flattened weight mapping under one member prefix."""
    return {
        key[len(prefix):]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def train_agent_ensemble(
    manifest: VideoManifest,
    training_traces: list[Trace] | tuple[Trace, ...],
    size: int = 5,
    config: TrainingConfig | None = None,
    qoe_metric: QoEMetric | None = None,
    root_seed: int = 0,
    cache: "ArtifactCache | None" = None,
    checkpoint_every: int | None = None,
) -> list[PensieveAgent]:
    """Train *size* agents that differ only in initialization seed.

    The members train together through one
    :class:`~repro.pensieve.training.A2CTrainer`, with the weights of
    training each member independently, bit for bit.

    With *cache* set, the trained weights are stored under
    :data:`AGENT_WEIGHTS_ARTIFACT` and later calls with the same
    fingerprint skip training entirely and load the networks from disk.
    *checkpoint_every* (or ``REPRO_CHECKPOINT_EVERY``) additionally
    checkpoints training every N epochs into the same cache, so an
    interrupted build resumes at the last epoch boundary — bitwise
    identical to an uninterrupted run; the checkpoints are discarded once
    the final weights are stored.
    """
    if size < 1:
        raise TrainingError(f"ensemble size must be >= 1, got {size}")
    config = config if config is not None else TrainingConfig()
    seeds = spawn_seeds(root_seed, size)
    every = resolve_checkpoint_every(checkpoint_every) if cache is not None else 0
    if cache is not None and cache.has_arrays(AGENT_WEIGHTS_ARTIFACT):
        arrays = cache.load_arrays(AGENT_WEIGHTS_ARTIFACT)
        agents = []
        for index, seed in enumerate(seeds):
            _, actor, critic = _member_networks(manifest.num_bitrates, seed, config)
            actor.load_state_arrays(_subset(arrays, f"actor_{index}_"))
            critic.load_state_arrays(_subset(arrays, f"critic_{index}_"))
            agents.append(
                PensieveAgent(
                    manifest.bitrates_kbps, actor=actor, critic=critic, greedy=True
                )
            )
        return agents
    trainer = A2CTrainer(
        manifest, training_traces, seeds, config=config, qoe_metric=qoe_metric
    )
    if every > 0:
        trainer.checkpointer = Checkpointer(cache, AGENT_CHECKPOINT_ARTIFACT, every)
    agents = trainer.train()
    if cache is not None:
        arrays: dict[str, np.ndarray] = {}
        for index, agent in enumerate(agents):
            for key, value in agent.actor.state_arrays().items():
                arrays[f"actor_{index}_{key}"] = value
            for key, value in agent.critic.state_arrays().items():
                arrays[f"critic_{index}_{key}"] = value
        cache.store_arrays(AGENT_WEIGHTS_ARTIFACT, arrays)
        if trainer.checkpointer is not None:
            # The final weights now exist; the checkpoint would only
            # shadow them (and waste cache space).
            trainer.checkpointer.discard()
    return agents


def collect_value_targets(
    agent: PensieveAgent,
    manifest: VideoManifest,
    traces: list[Trace] | tuple[Trace, ...],
    gamma: float,
    qoe_metric: QoEMetric | None = None,
    reward_scale: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the agent over *traces*; return ``(observations, returns)``.

    These are the regression targets for the externally trained value
    functions: the discounted returns actually derived from following the
    agent's policy on its training data.  Actions are *sampled* from the
    policy rather than taken greedily — the paper trains value functions
    "by observing the history of states, actions, and rewards resulting
    from the agent-environment interaction while training", i.e. on the
    exploratory distribution, which is what gives the ensemble state
    diversity to disagree about out-of-distribution.
    """
    if not traces:
        raise TrainingError("no traces to collect value targets from")
    sampling_agent = PensieveAgent(
        agent.bitrates_kbps, actor=agent.actor, critic=agent.critic, greedy=False
    )
    observations: list[np.ndarray] = []
    returns: list[np.ndarray] = []
    rng = rng_from_seed(seed)
    for trace in traces:
        result = run_session(
            sampling_agent, manifest, trace, qoe_metric=qoe_metric, seed=rng
        )
        rewards = np.array([record.reward for record in result.chunks])
        returns.append(discounted_returns(rewards * reward_scale, gamma))
        observations.append(result.observations)
    return np.concatenate(observations), np.concatenate(returns)


def _train_value_members_lockstep(
    observations: np.ndarray,
    targets: np.ndarray,
    num_bitrates: int,
    epochs: int,
    learning_rate: float,
    filters: int,
    hidden: int,
    seeds: list[int],
    checkpointer: Checkpointer | None = None,
) -> list[PensieveValueFunction]:
    """Regress all value-ensemble members at once on the shared dataset.

    The members share their ``(observation, return)`` inputs, so the
    stacked forward broadcasts one observation batch against every
    member's weights; gradients and RMSProp states stay per-member, so
    each member is bitwise identical to regressing it alone (the
    per-member oracle in ``tests/pensieve_oracles.py``).  With a
    *checkpointer*, the regression resumes from its last saved epoch
    boundary; the checkpoint holds the stacked critic parameters and
    RMSProp accumulators (the regression has no RNG or summaries).
    """
    critics = [
        CriticNetwork(num_bitrates, rng_from_seed(seed), filters=filters, hidden=hidden)
        for seed in seeds
    ]
    stacked = StackedTrainingNetwork(critics)
    optimizer = StackedRMSProp(stacked.params, learning_rate=learning_rate)
    checkpoint_arrays = {
        **_keyed("critic_p", stacked.params),
        **_keyed("critic_ms", optimizer._mean_square),
    }
    start = 0
    if checkpointer is not None:
        loaded = checkpointer.load()
        if loaded is not None:
            meta, arrays = loaded
            require(
                meta, engine="value-lockstep", seeds=list(seeds), epochs_total=epochs
            )
            _load_arrays(checkpoint_arrays, arrays, TrainingError)
            start = int(meta["epochs_completed"])
    stacked_obs = np.broadcast_to(
        observations, (len(seeds),) + observations.shape
    )
    for epoch in range(start, epochs):
        values = stacked.outputs(stacked_obs)[..., 0]
        diff = values - targets[None, :]
        stacked.zero_grads()
        stacked.backward((2.0 * diff / targets.size)[..., None])
        optimizer.step(stacked.grads)
        if checkpointer is not None and checkpointer.due(epoch + 1, epochs):
            checkpointer.save(
                {
                    "engine": "value-lockstep",
                    "seeds": list(seeds),
                    "epochs_total": epochs,
                    "epochs_completed": epoch + 1,
                },
                _export_arrays(checkpoint_arrays),
            )
        chaos.maybe_fire("epoch", epoch)
    stacked.write_back()
    return [
        PensieveValueFunction(critic, name=f"value-{seed}")
        for critic, seed in zip(critics, seeds)
    ]


def train_value_ensemble(
    agent: PensieveAgent,
    manifest: VideoManifest,
    training_traces: list[Trace] | tuple[Trace, ...],
    size: int = 5,
    gamma: float = 0.99,
    epochs: int = 200,
    learning_rate: float = 2e-3,
    filters: int = 8,
    hidden: int = 48,
    reward_scale: float = 1.0,
    qoe_metric: QoEMetric | None = None,
    root_seed: int = 0,
    cache: "ArtifactCache | None" = None,
    checkpoint_every: int | None = None,
) -> list[PensieveValueFunction]:
    """Train *size* value functions for one agent's policy.

    Each member regresses the same ``(observation, discounted return)``
    dataset with a differently initialized critic network, exactly the
    paper's recipe for ``U_V``.  Target collection walks one shared RNG;
    the independent per-member regressions then run as one stacked pass.

    With *cache* set, the trained weights are stored under
    :data:`VALUE_WEIGHTS_ARTIFACT`; a later call with the same
    fingerprint skips both target collection and regression and loads
    the critics from disk.  *checkpoint_every* (or
    ``REPRO_CHECKPOINT_EVERY``) additionally checkpoints the regression
    every N epochs so an interrupted build resumes at the last epoch
    boundary, bitwise identical to an uninterrupted run.
    """
    for name, value in (("size", size), ("epochs", epochs)):
        if not isinstance(value, Integral) or value < 1:
            raise TrainingError(f"{name} must be an integer >= 1, got {value!r}")
    seeds = spawn_seeds(root_seed + 1, size)
    every = resolve_checkpoint_every(checkpoint_every) if cache is not None else 0
    if cache is not None and cache.has_arrays(VALUE_WEIGHTS_ARTIFACT):
        arrays = cache.load_arrays(VALUE_WEIGHTS_ARTIFACT)
        members = []
        for index, seed in enumerate(seeds):
            critic = CriticNetwork(
                manifest.num_bitrates,
                rng_from_seed(seed),
                filters=filters,
                hidden=hidden,
            )
            critic.load_state_arrays(_subset(arrays, f"critic_{index}_"))
            members.append(PensieveValueFunction(critic, name=f"value-{seed}"))
        return members
    observations, targets = collect_value_targets(
        agent,
        manifest,
        training_traces,
        gamma=gamma,
        qoe_metric=qoe_metric,
        reward_scale=reward_scale,
        seed=root_seed,
    )
    checkpointer = (
        Checkpointer(cache, VALUE_CHECKPOINT_ARTIFACT, every) if every > 0 else None
    )
    members = _train_value_members_lockstep(
        observations,
        targets,
        manifest.num_bitrates,
        epochs,
        learning_rate,
        filters,
        hidden,
        seeds,
        checkpointer=checkpointer,
    )
    if cache is not None:
        arrays = {}
        for index, member in enumerate(members):
            for key, value in member.critic.state_arrays().items():
                arrays[f"critic_{index}_{key}"] = value
        cache.store_arrays(VALUE_WEIGHTS_ARTIFACT, arrays)
        if checkpointer is not None:
            checkpointer.discard()
    return members
