"""Scheme runtimes: the artifacts a service worker holds per scheme.

A *scheme* bundles everything needed to answer a monitored decision:
the learned policy, the default policy, and a configured
:class:`~repro.core.monitor.SafetyMonitor` prototype (signal + trigger
+ revert mode).  :class:`SchemeRuntime` is the worker-side handle — it
mints fresh per-session monitors from the prototype
(:meth:`SchemeRuntime.new_monitor`, via
:meth:`~repro.core.monitor.SafetyMonitor.fork`) and computes policy
actions for the service's ``step`` handler.  Crucially a runtime holds
**no session state**: every worker loading the same artifacts can serve
(or resume) any session, which is what makes the service's compute tier
stateless.

:func:`build_demo_scheme` asks a registered :class:`~repro.domains.Domain`
for its self-contained demo scheme (seeded policies, calibrated trigger)
and wraps it into a :class:`SchemeRuntime`, so the CLI and CI can boot a
service for any domain without trained artifacts on disk.  This module
reaches workloads only through the :mod:`repro.domains` registry —
enforced by ``tools/check_layers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.monitor import SafetyMonitor
from repro.domains import LinearSoftmaxPolicy, get_domain
from repro.mdp.interfaces import Policy

__all__ = [
    "DEMO_SCHEME",
    "LinearSoftmaxPolicy",
    "SchemeRuntime",
    "build_demo_scheme",
]

#: Name under which :func:`build_demo_scheme` registers itself.
DEMO_SCHEME = "demo"


@dataclass(frozen=True)
class SchemeRuntime:
    """One scheme's stateless artifacts held by a service worker."""

    #: Scheme name clients pass in ``attach``.
    name: str
    #: The learned (monitored) policy.
    learned: Policy
    #: The safe fallback policy.
    default: Policy
    #: Configured monitor prototype; sessions get forks of it.
    prototype: SafetyMonitor
    #: The shape ``step`` observations must have (``None``: unchecked).
    observation_shape: tuple[int, ...] | None = None

    def new_monitor(self) -> SafetyMonitor:
        """A fresh session monitor forked from the prototype."""
        return self.prototype.fork()

    def policy_for(self, defaulted: bool) -> Policy:
        """The policy that decides given the monitor's current mode."""
        return self.default if defaulted else self.learned


def build_demo_scheme(
    alpha: float | None = None,
    ensemble_size: int = 4,
    seed: int = 0,
    name: str = DEMO_SCHEME,
    domain: str = "abr",
) -> SchemeRuntime:
    """A self-contained demo scheme for demos, CI, and benchmarks.

    Dispatches to the registered *domain*'s
    :meth:`~repro.domains.Domain.demo_scheme` — seeded policies over the
    domain's action set, its safe fallback, and its calibrated trigger
    (``alpha=None`` picks the domain's default threshold) — and wraps
    the result into a :class:`SchemeRuntime`.  Everything is derived
    from *seed*, so any two workers build bitwise-identical runtimes.

    Raises :class:`~repro.errors.ConfigError` naming the registered
    domains when *domain* is unknown.
    """
    workload = get_domain(domain)
    scheme = workload.demo_scheme(
        alpha=alpha, ensemble_size=ensemble_size, seed=seed, name=name
    )
    return SchemeRuntime(
        name=name,
        learned=scheme.learned,
        default=scheme.default,
        prototype=scheme.monitor(),
        observation_shape=workload.observation_shape,
    )
