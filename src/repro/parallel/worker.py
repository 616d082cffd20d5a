"""Module-level task functions for :func:`repro.parallel.executor.parallel_map`.

Process pools pickle tasks by *name*, so every parallel loop in the
library maps one of the functions below over a list of small, explicit
items (session tasks, dataset names).  The heavyweight context —
manifest, traces, trained policies, configs — is shipped **once per
worker** through the matching ``init_*`` initializer into a module-level
state dict, instead of being re-pickled for every task.

Each task family keeps its own state dict so the serial fallback can nest
families (e.g. a serial distribution build running a serial session sweep)
without clobbering anything.
"""

from __future__ import annotations

from typing import Any

from repro.abr.session import run_session

__all__ = [
    "init_sessions",
    "evaluate_session",
    "init_distributions",
    "build_distribution",
]

_SESSION_STATE: dict[str, Any] = {}
_DISTRIBUTION_STATE: dict[str, Any] = {}


# -- per-(policy, trace) session evaluation ----------------------------------

def init_sessions(manifest, policies, trace_groups, qoe_metric) -> None:
    """Ship evaluation context for :func:`evaluate_session`.

    *policies* maps a policy key to a policy object; *trace_groups* maps a
    group key (e.g. a test-dataset name) to its list of traces.
    """
    _SESSION_STATE.update(
        manifest=manifest,
        policies=policies,
        trace_groups=trace_groups,
        qoe_metric=qoe_metric,
    )


def evaluate_session(task: tuple[str, str, int, int]) -> tuple[float, float]:
    """Run one (policy, trace, seed) session; return (QoE, default fraction).

    The task is ``(policy_key, group_key, trace_index, seed)`` — pure data,
    so the same task always produces the same floats in any process.
    """
    policy_key, group_key, trace_index, seed = task
    state = _SESSION_STATE
    result = run_session(
        state["policies"][policy_key],
        state["manifest"],
        state["trace_groups"][group_key][trace_index],
        qoe_metric=state["qoe_metric"],
        seed=seed,
    )
    return float(result.qoe), float(result.default_fraction)


# -- per-distribution suite builds -------------------------------------------

def init_distributions(config, weight_root=None) -> None:
    """Ship the experiment config (and optional weight-cache root
    directory) for :func:`build_distribution`."""
    _DISTRIBUTION_STATE.update(config=config, weight_root=weight_root)


def build_distribution(train_name: str) -> dict:
    """Run the full offline phase + evaluation for one training
    distribution (the body of ``run_training_distribution``)."""
    from repro.experiments.training_runs import compute_training_distribution

    return compute_training_distribution(
        _DISTRIBUTION_STATE["config"],
        train_name,
        weight_root=_DISTRIBUTION_STATE.get("weight_root"),
    )


def _clear_state() -> None:
    """Reset all task-family state (test hook)."""
    for state in (_SESSION_STATE, _DISTRIBUTION_STATE):
        state.clear()
