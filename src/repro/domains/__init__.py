"""``repro.domains`` — the pluggable workload layer.

One learning-augmented workload = one registered :class:`Domain`:
environment factory and seeded RNG wiring, per-step record type, safe
fallback policy, dataset enumeration, a self-contained demo scheme, and
the observation adapter the state-novelty signal needs.  The layers
above (``serve``, ``service``, the tools) dispatch on a domain key and
never import a workload module directly — ``tools/check_layers.py``
enforces that they reach this package only through its root.

The session loop and its interface (:class:`SessionSpec`,
:class:`SessionFactory`, :class:`MonitoredScheme`,
:class:`MonitoredSessionResult`, :func:`run_session`,
:func:`run_monitored_session`) live in
:mod:`repro.core.runner` and are re-exported here, so the layers above
reach everything a session needs through this root.

Importing this package registers the built-in domains (``abr``, ``cc``)
and the distribution-shift scenario corpus; look them up with
:func:`get_domain` / :func:`repro.domains.scenarios.apply_scenario`.
"""

from repro.core.runner import (
    MonitoredScheme,
    MonitoredSessionResult,
    SessionFactory,
    SessionSpec,
    run_monitored_session,
    run_session,
)
from repro.domains.base import (
    DOMAINS,
    Domain,
    LinearSoftmaxPolicy,
    domain_keys,
    get_domain,
)
from repro.domains.scenarios import (
    SCENARIOS,
    ShiftedTrace,
    apply_scenario,
    scenario_keys,
)

# Imported for their registry side effects: each module registers its
# Domain subclass in DOMAINS at import time.
from repro.domains import abr as _abr  # noqa: E402,F401
from repro.domains import cc as _cc  # noqa: E402,F401

__all__ = [
    "DOMAINS",
    "Domain",
    "LinearSoftmaxPolicy",
    "MonitoredScheme",
    "MonitoredSessionResult",
    "SCENARIOS",
    "SessionFactory",
    "SessionSpec",
    "ShiftedTrace",
    "apply_scenario",
    "domain_keys",
    "get_domain",
    "run_monitored_session",
    "run_session",
    "scenario_keys",
]
