"""Baseline ABR policies.

* :class:`~repro.policies.buffer_based.BufferBasedPolicy` — the paper's
  default ("safe") policy, Huang et al.'s BBA [19] as implemented in the
  Pensieve repository.
* :class:`~repro.policies.random_policy.RandomPolicy` — the paper's naive
  baseline that "always selects the next bitrate uniformly at random".
* :class:`~repro.policies.rate_based.RateBasedPolicy` — a classic
  throughput-rule baseline (extension).
* :class:`~repro.policies.mpc.RobustMPCPolicy` — the control-theoretic MPC
  of [63] (extension; a candidate alternative default policy, a future-work
  direction named in the paper).
* :class:`~repro.policies.constant.ConstantPolicy` — pins a single rung
  (used by tests and sanity checks).
"""

from repro.policies.base import ABRPolicy, DeterministicPolicy
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.constant import ConstantPolicy
from repro.policies.mpc import RobustMPCPolicy
from repro.policies.predictive import PredictiveMPCPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.rate_based import RateBasedPolicy

__all__ = [
    "ABRPolicy",
    "BufferBasedPolicy",
    "ConstantPolicy",
    "DeterministicPolicy",
    "PredictiveMPCPolicy",
    "RandomPolicy",
    "RateBasedPolicy",
    "RobustMPCPolicy",
]
