"""Trained Pensieve agents and external value functions as policies.

:class:`PensieveAgent` wraps an :class:`~repro.pensieve.model.ActorNetwork`
(and optionally its critic) behind the shared policy protocol, so the
evaluation harness treats it exactly like BB or Random.  Evaluation is
greedy by default (argmax of the action distribution); training samples.

:class:`PensieveValueFunction` wraps a critic trained externally to a
policy — the object the paper's ``U_V`` ensembles are made of ("even if an
agent does not explicitly estimate state values, a value function for that
agent can still be trained externally").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.pensieve.model import ActorNetwork, CriticNetwork
from repro.policies.base import ABRPolicy

__all__ = ["PensieveAgent", "PensieveValueFunction"]


def _finite(observations: np.ndarray) -> np.ndarray:
    """*observations* as a float array, or :class:`ModelError` if any
    value is NaN or infinite."""
    observations = np.asarray(observations, dtype=float)
    if not np.isfinite(observations).all():
        raise ModelError("observation holds a non-finite value")
    return observations


class PensieveAgent(ABRPolicy):
    """A trained actor (plus optional critic) as an ABR policy."""

    def __init__(
        self,
        bitrates_kbps: np.ndarray | list[float],
        actor: ActorNetwork,
        critic: CriticNetwork | None = None,
        greedy: bool = True,
        name: str = "pensieve",
    ) -> None:
        super().__init__(bitrates_kbps)
        if actor.head.weight.shape[1] != self.num_actions:
            raise ModelError(
                f"actor outputs {actor.head.weight.shape[1]} actions, "
                f"ladder has {self.num_actions}"
            )
        self.actor = actor
        self.critic = critic
        self.greedy = greedy
        self.name = name

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """The actor's softmax distribution for one observation.

        A non-finite observation raises :class:`ModelError`: the ReLU
        would map a NaN feature to zero and score it as a real one.
        """
        return self.actor.probabilities_inference(_finite(observation))[0]

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        probabilities = self.action_probabilities(observation)
        if self.greedy:
            return int(np.argmax(probabilities))
        return int(rng.choice(self.num_actions, p=probabilities))

    def act_batch(
        self, observations: np.ndarray, rngs: list[np.random.Generator]
    ) -> list[int]:
        """Exactly ``[act(o, r) for o, r in zip(observations, rngs)]``.

        *rngs* holds one RNG per observation; a length mismatch raises
        :class:`ModelError`, as does a non-finite observation.  A greedy
        agent takes the argmax of one row-stable forward; a sampling agent
        acts row by row so each session's RNG is drawn exactly as
        :meth:`act` draws it.
        """
        observations = _finite(observations)
        if len(rngs) != len(observations):
            raise ModelError(f"{len(rngs)} rngs for {len(observations)} observations")
        if not self.greedy:
            return [
                self.act(observation, rng)
                for observation, rng in zip(observations, rngs)
            ]
        probabilities = self.actor.probabilities_inference(
            observations, row_stable=True
        )
        return probabilities.argmax(axis=1).tolist()

    def value(self, observation: np.ndarray) -> float:
        """The built-in critic's value estimate (actor-critic agents have
        value estimation "built in", as the paper notes of Pensieve).

        A non-finite observation raises :class:`ModelError`.
        """
        if self.critic is None:
            raise ModelError("this agent was built without a critic")
        return float(self.critic.values_inference(_finite(observation))[0])


class PensieveValueFunction:
    """An externally trained value function for a fixed policy."""

    def __init__(self, critic: CriticNetwork, name: str = "value") -> None:
        self.critic = critic
        self.name = name

    def value(self, observation: np.ndarray) -> float:
        """Predicted discounted return from *observation*.

        A non-finite observation raises :class:`ModelError`.
        """
        return float(self.critic.values_inference(_finite(observation))[0])

    def values(self, observations: np.ndarray) -> np.ndarray:
        """Batched value prediction.

        A non-finite observation raises :class:`ModelError`.
        """
        return self.critic.values_inference(_finite(observations))
