"""In-situ (online) adaptation of a deployed Pensieve agent.

The paper's future work asks about "online safety assurance when training
is performed in situ [61]" — the Puffer approach of continually training
on the operational distribution.  This module provides that substrate:

* :func:`warm_start_trainer` — a one-member A2C trainer initialized from
  an already trained agent's weights, pointed at freshly observed traces,
* :func:`fine_tune` — run a bounded number of in-situ epochs and return
  the adapted agent alongside before/after diagnostics.

The interesting interaction with OSAP: while the agent adapts, the safety
controller keeps the default policy ready; as adaptation converges, the
uncertainty signals should stop firing (see
``benchmarks/test_bench_extension_insitu.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.pensieve.agent import PensieveAgent
from repro.pensieve.model import _keyed, _load_arrays
from repro.pensieve.training import A2CTrainer, TrainingConfig
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = ["FineTuneResult", "warm_start_trainer", "fine_tune"]


def warm_start_trainer(
    agent: PensieveAgent,
    manifest: VideoManifest,
    traces: list[Trace] | tuple[Trace, ...],
    config: TrainingConfig,
    qoe_metric: QoEMetric | None = None,
) -> A2CTrainer:
    """A one-member A2C trainer whose networks start from *agent*'s weights.

    The trainer's architecture hyperparameters (filters/hidden) must match
    the agent's; the configured seed only affects exploration, not the
    starting point.  The weights are checked, then loaded into the
    trainer's member 0 (its stacked slice 0 and its member networks).
    """
    if agent.critic is None:
        raise TrainingError(
            "in-situ adaptation needs the agent's critic; this agent was "
            "built without one"
        )
    trainer = A2CTrainer(
        manifest, traces, [config.seed], config=config, qoe_metric=qoe_metric
    )
    for stacked, source in (
        (trainer.stacked_actor, agent.actor),
        (trainer.stacked_critic, agent.critic),
    ):
        _load_arrays(
            _keyed("p", [param[0] for param in stacked.params]),
            source.state_arrays(),
            TrainingError,
        )
        stacked.write_back()
    return trainer


@dataclass
class FineTuneResult:
    """Outcome of an in-situ adaptation run (the trainer has one member)."""

    adapted_agent: PensieveAgent
    trainer: A2CTrainer
    initial_return: float
    final_return: float

    @property
    def improvement(self) -> float:
        """Mean episode-return gain over the adaptation run."""
        return self.final_return - self.initial_return


def fine_tune(
    agent: PensieveAgent,
    manifest: VideoManifest,
    operational_traces: list[Trace] | tuple[Trace, ...],
    epochs: int = 100,
    config: TrainingConfig | None = None,
    qoe_metric: QoEMetric | None = None,
) -> FineTuneResult:
    """Adapt *agent* to *operational_traces* for a bounded epoch budget.

    The adaptation uses a gentler entropy schedule than from-scratch
    training (the policy is already peaked; a large entropy bonus would
    destroy it before it can adapt).  Returns the adapted agent and the
    first/last mean episode returns actually observed during adaptation.
    """
    if epochs < 2:
        raise TrainingError(f"epochs must be >= 2, got {epochs}")
    if not operational_traces:
        raise TrainingError("no operational traces supplied")
    base = config if config is not None else TrainingConfig()
    adaptation_config = TrainingConfig(
        **{
            **vars(base),
            "epochs": epochs,
            "entropy_weight_start": min(base.entropy_weight_start, 0.05),
            "entropy_weight_end": base.entropy_weight_end,
        }
    )
    trainer = warm_start_trainer(
        agent, manifest, operational_traces, adaptation_config, qoe_metric
    )
    (adapted,) = trainer.train()
    returns = trainer.summaries[0].episode_returns
    head = max(len(returns) // 10, 1)
    return FineTuneResult(
        adapted_agent=adapted,
        trainer=trainer,
        initial_return=float(np.mean(returns[:head])),
        final_return=float(np.mean(returns[-head:])),
    )
