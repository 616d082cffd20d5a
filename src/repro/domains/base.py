"""The domain abstraction: what one learning-augmented workload plugs in.

The paper's claim is that uncertainty-triggered safety monitoring
generalizes across learning-augmented systems; this module is where the
repository states, in code, what a workload must provide for the whole
stack above :mod:`repro.core` — the serve engine, the multi-tenant
service, the experiment harnesses, the CLI — to run it unmodified:

* :class:`~repro.core.runner.SessionSpec` — what one monitored session
  streams (a trace, a seed, a name).  Pure data, picklable, shared by
  every domain.
* :class:`~repro.core.runner.SessionFactory` — the per-session wiring:
  build the seeded environment for a spec, produce the per-step record
  type, say how many decision steps a session has.  This is the only
  object the session loop (:mod:`repro.core.runner`) and the serve
  engine need; they never see an environment class directly.  Both
  live in :mod:`repro.core` so the workload substrates (``abr``) can
  define their factories below this package; :mod:`repro.domains`
  re-exports them.
* :class:`Domain` — the full workload description: dataset enumeration,
  split loading, a session factory, a self-contained demo
  :class:`~repro.core.runner.MonitoredScheme` (learned policy + safe
  fallback + uncertainty signal + trigger + session factory), and
  the observation adapter (:meth:`Domain.throughput_of`) that lets the
  state-novelty signal ``U_S`` read a domain's observations.

Domains register in :data:`DOMAINS` under a stable string key
(``abr``, ``cc``); :func:`get_domain` constructs one by key and raises
an actionable :class:`~repro.errors.ConfigError` listing the registered
keys on a miss.  Layering: this package may import ``core``/``mdp`` and
the workload substrates (``abr``), but never ``serve``/``service`` —
those layers reach domains only through this registry
(``tools/check_layers.py`` enforces both directions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.runner import MonitoredScheme, SessionFactory
from repro.core.signals import ComponentRegistry
from repro.traces.dataset import DatasetSplit

__all__ = [
    "DOMAINS",
    "Domain",
    "LinearSoftmaxPolicy",
    "domain_keys",
    "get_domain",
]


class LinearSoftmaxPolicy:
    """A deterministic seeded linear-softmax policy over flat features.

    The demo schemes' stand-in for a trained agent: logits are a fixed
    random linear map of the flattened observation, the action is the
    argmax, so trajectories are reproducible from the seed alone and
    need no artifacts on disk.
    """

    def __init__(self, seed: int, num_actions: int, num_features: int) -> None:
        self._weights = np.random.default_rng(seed).normal(
            size=(num_actions, num_features)
        )

    def reset(self) -> None:
        """No per-session state to reset."""

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """Softmax over the linear logits of the flattened observation."""
        logits = self._weights @ np.asarray(observation, dtype=float).reshape(-1)
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        """The argmax action (deterministic; *rng* is unused)."""
        return int(np.argmax(self.action_probabilities(observation)))


class Domain(ABC):
    """One learning-augmented workload, fully described.

    Implementations are cheap, stateless objects — anything expensive
    (training the demo policies) must be cached behind the methods, not
    done in ``__init__``, so that registry lookups stay free.
    """

    #: Stable registry key (matches the :data:`DOMAINS` registration).
    key: str = ""
    #: The shape of every observation the domain's environments emit
    #: (each implementation sets it; the service checks ``step`` input).
    observation_shape: tuple[int, ...]

    @abstractmethod
    def dataset_names(self) -> tuple[str, ...]:
        """The trace datasets this domain can stream, by name."""

    @abstractmethod
    def load_split(
        self,
        dataset: str,
        num_traces: int = 20,
        duration_s: float = 1200.0,
        seed: int = 0,
    ) -> DatasetSplit:
        """A deterministic train/validation/test split of *dataset*."""

    @abstractmethod
    def session_factory(self, **options) -> SessionFactory:
        """The domain's session factory (options are domain-specific)."""

    @abstractmethod
    def demo_scheme(
        self,
        alpha: float | None = None,
        ensemble_size: int = 4,
        seed: int = 0,
        name: str = "demo",
    ) -> MonitoredScheme:
        """A self-contained seeded ``U_pi`` scheme for demos and CI.

        ``alpha=None`` picks the domain's calibrated default threshold.
        Everything derives from *seed*, so any two processes build
        bitwise-identical schemes.
        """

    @abstractmethod
    def throughput_of(self, observation: np.ndarray) -> float:
        """Extract the latest raw throughput (Mbit/s) from an observation.

        The observation adapter for the state-novelty signal ``U_S``
        (:class:`repro.core.novelty_signal.StateNoveltySignal`'s
        ``throughput_of`` hook): each domain says where in its
        observation layout the measured throughput lives.
        """


#: The domain registry: implementations register their class under a
#: stable key; :func:`get_domain` constructs (and caches) instances.
DOMAINS = ComponentRegistry("domain")

_INSTANCES: dict[str, Domain] = {}


def get_domain(key: str) -> Domain:
    """The registered :class:`Domain` for *key*.

    Raises :class:`~repro.errors.ConfigError` naming the registered
    domains when *key* is unknown.  Instances are cached — domains are
    stateless, so one object serves every caller.
    """
    if key not in _INSTANCES:
        _INSTANCES[key] = DOMAINS.create(key)
    return _INSTANCES[key]


def domain_keys() -> tuple[str, ...]:
    """All registered domain keys, sorted."""
    return DOMAINS.keys()
