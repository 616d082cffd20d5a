"""Sequential decision making under an MDP (the paper's Section 2 formalism).

The paper grounds OSAP in "the standard model for sequential decision
making, namely, decision making under a Markov decision process".  This
package provides:

* the :class:`~repro.mdp.interfaces.Environment`,
  :class:`~repro.mdp.interfaces.Policy`, and
  :class:`~repro.mdp.interfaces.ValueFunction` protocols that both the ABR
  case study and the toy environments implement,
* trajectory collection utilities (:mod:`repro.mdp.rollout`), and
* a :class:`~repro.mdp.gridworld.GridWorld` whose dynamics can be shifted in
  a controlled way, used to validate that the uncertainty signals fire
  exactly when the environment leaves the training distribution.
"""

from repro.mdp.gridworld import GridWorld, make_shifted_gridworld
from repro.mdp.interfaces import Environment, Policy, StepResult, ValueFunction
from repro.mdp.qlearning import (
    QLearningAgent,
    grid_state_indexer,
    train_q_learning,
)
from repro.mdp.rollout import Trajectory, Transition, discounted_returns, rollout

__all__ = [
    "Environment",
    "GridWorld",
    "Policy",
    "QLearningAgent",
    "StepResult",
    "Trajectory",
    "Transition",
    "ValueFunction",
    "discounted_returns",
    "grid_state_indexer",
    "make_shifted_gridworld",
    "rollout",
    "train_q_learning",
]
