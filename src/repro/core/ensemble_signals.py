"""``U_pi`` and ``U_V``: output uncertainty via ensemble disagreement.

Section 2.4 defines both as a sum of distances between ensemble-member
outputs and the members' average — KL divergence for action distributions
(``U_pi``), absolute difference for scalar values (``U_V``).  Section 3.1
adds trimming: "the two outputs ... whose distance from the average is
highest are discarded and U_pi and U_V are computed with respect to the
three surviving outputs".

Both signals are continuous; the k-window variance rule in
:mod:`repro.core.thresholding` converts them into defaulting decisions.
Both reject a non-finite observation with :class:`SafetyError` before
any forward: a ReLU maps NaN to zero, so a poisoned feature would
otherwise be scored as if it were a real one.
"""

from __future__ import annotations

import numpy as np

from repro.core.signals import SIGNALS, UncertaintySignal
from repro.core.thresholding import check_finite_values
from repro.errors import ReproError, SafetyError
from repro.nn.losses import kl_divergence
from repro.perf import fast_paths_enabled

__all__ = [
    "PolicyEnsembleSignal",
    "ValueEnsembleSignal",
    "policy_disagreement",
    "policy_disagreement_batch",
    "trim_by_distance",
    "value_disagreement",
    "value_disagreement_batch",
]


def _try_stack_actors(agents: list):
    """A batched forward over the members' actors, or ``None`` when the
    members are not stackable (non-Pensieve policies, mixed shapes)."""
    from repro.pensieve.agent import PensieveAgent
    from repro.pensieve.stacked import StackedActorEnsemble

    if not all(type(agent) is PensieveAgent for agent in agents):
        return None
    try:
        return StackedActorEnsemble([agent.actor for agent in agents])
    except ReproError:
        return None


def _try_stack_critics(value_functions: list):
    """A batched forward over the members' critics, or ``None``."""
    from repro.pensieve.agent import PensieveValueFunction
    from repro.pensieve.stacked import StackedCriticEnsemble

    if not all(type(vf) is PensieveValueFunction for vf in value_functions):
        return None
    try:
        return StackedCriticEnsemble([vf.critic for vf in value_functions])
    except ReproError:
        return None


def trim_by_distance(
    outputs: np.ndarray, distances: np.ndarray, trim: int
) -> np.ndarray:
    """Drop the *trim* outputs farthest from the ensemble average.

    Returns the surviving outputs (at least one always survives).
    """
    if trim < 0:
        raise SafetyError(f"trim must be >= 0, got {trim}")
    if outputs.shape[0] <= trim:
        raise SafetyError(
            f"cannot trim {trim} of {outputs.shape[0]} ensemble outputs"
        )
    if trim == 0:
        return outputs
    keep = np.argsort(distances)[: outputs.shape[0] - trim]
    return outputs[np.sort(keep)]


def policy_disagreement(distributions: np.ndarray, trim: int) -> float:
    """``U_pi`` of one decision step, from the members' distributions.

    *distributions* is ``(members, num_actions)`` — each member's action
    distribution for the same observation.  This is the whole signal
    computation minus the forward passes, so any caller that already has
    the distributions (the serve engine batches them across sessions)
    produces bitwise-identical values to :class:`PolicyEnsembleSignal`.
    """
    mean = distributions.mean(axis=0)
    distances = kl_divergence(
        distributions, np.broadcast_to(mean, distributions.shape)
    )
    survivors = trim_by_distance(distributions, distances, trim)
    survivor_mean = survivors.mean(axis=0)
    return float(
        kl_divergence(
            survivors, np.broadcast_to(survivor_mean, survivors.shape)
        ).sum()
    )


def value_disagreement(values: np.ndarray, trim: int) -> float:
    """``U_V`` of one decision step, from the members' value estimates.

    *values* is ``(members,)``.  Same contract as
    :func:`policy_disagreement`: the math behind
    :class:`ValueEnsembleSignal`, reusable on externally batched values.
    """
    distances = np.abs(values - values.mean())
    survivors = trim_by_distance(values[:, None], distances, trim)[:, 0]
    return float(np.abs(survivors - survivors.mean()).sum())


def _keep_rows(distances: np.ndarray, trim: int) -> np.ndarray:
    """Per-column survivor indices, ``(members - trim, batch)`` ascending.

    The batched form of :func:`trim_by_distance`'s selection: numpy sorts
    every lane of ``axis=0`` with the same algorithm it applies to the
    equivalent 1-D array, so each column's survivor set (ties included)
    matches the scalar path's exactly.
    """
    members = distances.shape[0]
    if trim < 0:
        raise SafetyError(f"trim must be >= 0, got {trim}")
    if members <= trim:
        raise SafetyError(f"cannot trim {trim} of {members} ensemble outputs")
    return np.sort(np.argsort(distances, axis=0)[: members - trim], axis=0)


def policy_disagreement_batch(distributions: np.ndarray, trim: int) -> np.ndarray:
    """``U_pi`` for a whole wave of sessions in one vectorized reduction.

    *distributions* is ``(members, batch, num_actions)``; returns one
    signal value per batch column.  Column *b* is bitwise-equal to
    ``policy_disagreement(distributions[:, b, :], trim)``: every
    operation is elementwise or a short fixed-length reduction whose
    accumulation order does not depend on the batch shape.
    """
    members = distributions.shape[0]
    means = distributions.mean(axis=0)
    if trim == 0:
        if members <= 0:
            raise SafetyError("cannot trim 0 of 0 ensemble outputs")
        survivors = distributions
    else:
        distances = kl_divergence(
            distributions, np.broadcast_to(means, distributions.shape)
        )
        keep = _keep_rows(distances, trim)
        survivors = np.take_along_axis(distributions, keep[:, :, None], axis=0)
    survivor_means = survivors.mean(axis=0)
    return kl_divergence(
        survivors, np.broadcast_to(survivor_means, survivors.shape)
    ).sum(axis=0)


def value_disagreement_batch(values: np.ndarray, trim: int) -> np.ndarray:
    """``U_V`` for a whole wave of sessions in one vectorized reduction.

    *values* is ``(members, batch)``; returns one signal value per batch
    column, each bitwise-equal to ``value_disagreement(values[:, b], trim)``.
    """
    members = values.shape[0]
    means = values.mean(axis=0)
    if trim == 0:
        if members <= 0:
            raise SafetyError("cannot trim 0 of 0 ensemble outputs")
        survivors = values
    else:
        distances = np.abs(values - means)
        keep = _keep_rows(distances, trim)
        survivors = np.take_along_axis(values, keep, axis=0)
    return np.abs(survivors - survivors.mean(axis=0)).sum(axis=0)


@SIGNALS.register("U_pi")
class PolicyEnsembleSignal(UncertaintySignal):
    """``U_pi``: KL disagreement within an agent ensemble.

    Given the action distributions output by the ensemble members for the
    current observation, compute each member's KL divergence from the
    members' mean distribution, discard the *trim* farthest members, and
    return the sum of KL divergences of the survivors from the survivors'
    mean.
    """

    binary = False
    stateless = True

    def __init__(self, agents: list, trim: int = 2) -> None:
        if len(agents) < 2:
            raise SafetyError(
                f"need an ensemble of >= 2 agents, got {len(agents)}"
            )
        if not 0 <= trim < len(agents) - 1:
            raise SafetyError(
                f"trim must leave >= 2 members, got trim={trim} of {len(agents)}"
            )
        self.agents = list(agents)
        self.trim = trim
        self._stacked = _try_stack_actors(self.agents)

    def measure(self, observation: np.ndarray) -> float:
        check_finite_values(observation, "observation value")
        if self._stacked is not None and fast_paths_enabled():
            distributions = self._stacked.probabilities(observation)
        else:
            distributions = np.stack(
                [agent.action_probabilities(observation) for agent in self.agents]
            )
        return policy_disagreement(distributions, self.trim)

    def measure_batch(self, observations: np.ndarray) -> np.ndarray:
        """``U_pi`` for one observation per concurrent session.

        With a stackable ensemble and fast paths on, all members answer
        for all sessions in one fused forward — the serve engine's
        cross-session batch.  Values match :meth:`measure` up to BLAS
        batch-shape accumulation (see
        :meth:`repro.pensieve.stacked.StackedActorEnsemble.probabilities_batch`).
        """
        check_finite_values(observations, "observation value")
        if self._stacked is None or not fast_paths_enabled():
            return super().measure_batch(observations)
        distributions = self._stacked.probabilities_batch(observations)
        return policy_disagreement_batch(distributions, self.trim)


@SIGNALS.register("U_V")
class ValueEnsembleSignal(UncertaintySignal):
    """``U_V``: disagreement within a value-function ensemble.

    The per-member distance is the absolute difference from the mean
    value; after trimming, the signal is the sum of survivors' distances
    from the survivors' mean.
    """

    binary = False
    stateless = True

    def __init__(self, value_functions: list, trim: int = 2) -> None:
        if len(value_functions) < 2:
            raise SafetyError(
                f"need an ensemble of >= 2 value functions, got {len(value_functions)}"
            )
        if not 0 <= trim < len(value_functions) - 1:
            raise SafetyError(
                f"trim must leave >= 2 members, got trim={trim} of "
                f"{len(value_functions)}"
            )
        self.value_functions = list(value_functions)
        self.trim = trim
        self._stacked = _try_stack_critics(self.value_functions)

    def measure(self, observation: np.ndarray) -> float:
        check_finite_values(observation, "observation value")
        if self._stacked is not None and fast_paths_enabled():
            values = self._stacked.values(observation)
        else:
            values = np.array(
                [vf.value(observation) for vf in self.value_functions]
            )
        return value_disagreement(values, self.trim)

    def measure_batch(self, observations: np.ndarray) -> np.ndarray:
        """``U_V`` for one observation per concurrent session (same
        contract as :meth:`PolicyEnsembleSignal.measure_batch`)."""
        check_finite_values(observations, "observation value")
        if self._stacked is None or not fast_paths_enabled():
            return super().measure_batch(observations)
        values = self._stacked.values_batch(observations)
        return value_disagreement_batch(values, self.trim)
