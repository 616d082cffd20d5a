"""Pensieve [27]: deep-RL adaptive bitrate selection, reimplemented.

The paper's learned policy.  The original is an A3C TensorFlow model
trained for hours on GPUs; this reimplementation keeps the architecture
(1-D convolutions over history vectors, softmax actor and scalar critic)
and the training algorithm (advantage actor-critic with an annealed entropy
bonus) on the :mod:`repro.nn` numpy substrate, at sizes that train in
seconds-to-minutes on a CPU.

* :mod:`repro.pensieve.model` — actor and critic networks, and the one
  fused inference forward over ``M >= 1`` member-stacked networks.
* :mod:`repro.pensieve.agent` — the trained policy and value function,
  implementing the shared :mod:`repro.mdp` protocols.
* :mod:`repro.pensieve.training` — the one A2C trainer, which trains
  ``K >= 1`` seed-differing agents in lockstep (a single agent is
  ``K = 1``).
* :mod:`repro.pensieve.ensemble` — agent ensembles (for ``U_pi``) and
  value-function ensembles (for ``U_V``), differing only in initialization
  seed as the paper prescribes, each trained in one stacked pass.
* :mod:`repro.pensieve.online` — in-situ fine-tuning, a one-member
  trainer warm-started from a deployed agent.
* :mod:`repro.pensieve.stacked` — the member-stacked ensemble snapshot
  behind the per-step signals, and the stacked training network.
"""

from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.ensemble import train_agent_ensemble, train_value_ensemble
from repro.pensieve.model import ActorNetwork, CriticNetwork
from repro.pensieve.online import FineTuneResult, fine_tune, warm_start_trainer
from repro.pensieve.stacked import StackedEnsemble
from repro.pensieve.training import A2CTrainer, TrainingConfig, TrainingSummary

__all__ = [
    "A2CTrainer",
    "ActorNetwork",
    "CriticNetwork",
    "FineTuneResult",
    "PensieveAgent",
    "PensieveValueFunction",
    "StackedEnsemble",
    "TrainingConfig",
    "TrainingSummary",
    "fine_tune",
    "train_agent_ensemble",
    "train_value_ensemble",
    "warm_start_trainer",
]
