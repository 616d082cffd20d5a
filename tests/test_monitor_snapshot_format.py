"""Pins the byte format of :meth:`SafetyMonitor.state_dict`.

A monitor snapshot is what the service's cold store persists (SQLite
rows, JSON text), so its layout is a wire format: a snapshot written by
an earlier build must resume in a later one.  Each case below feeds a
fixed value stream through a monitor and compares
``json.dumps(state_dict(), sort_keys=True)`` with a golden string
captured from the implementation that first wrote the format.  Loading
each golden string back must then continue bitwise: the restored monitor
decides a fixed tail exactly as the uninterrupted one does and ends in
the same snapshot.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.monitor import SafetyMonitor
from repro.core.signals import UncertaintySignal
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger


class _ValueSignal(UncertaintySignal):
    """Stateless: the signal value is the observation's first entry."""

    stateless = True

    def measure(self, observation: np.ndarray) -> float:
        return float(observation[0])


#: case -> (trigger factory, allow_revert, value stream).
CASES = {
    "consecutive": (
        lambda: ConsecutiveTrigger(l=3),
        False,
        [1.0, 1.0, 0.0, 1.0, 1.0],
    ),
    "variance": (
        lambda: VarianceTrigger(alpha=0.05, k=4, l=2),
        False,
        [0.1, 0.7, 0.2, 0.05, 0.3, 0.25],
    ),
    "variance-partial-window": (
        lambda: VarianceTrigger(alpha=0.05, k=5, l=2),
        False,
        [0.1, 0.7, 0.2],
    ),
    "ewma": (
        lambda: EWMATrigger(bar=0.5, alpha=0.3),
        False,
        [0.2, 0.9, 0.4, 0.3],
    ),
    "ewma-unseeded": (lambda: EWMATrigger(bar=0.5, alpha=0.3), False, []),
    "cusum": (
        lambda: CusumTrigger(threshold=2.0, drift=0.1),
        False,
        [0.3, 0.6, 0.05, 0.4],
    ),
    "hysteresis": (
        lambda: HysteresisTrigger(high=0.6, low=0.2),
        False,
        [0.3, 0.7, 0.4],
    ),
    # Defaults at step 1, then three steps on the sticky skip path.
    "sticky": (
        lambda: ConsecutiveTrigger(l=2),
        False,
        [1.0, 1.0, 0.0, 1.0, 0.0],
    ),
    # Hands off, holds between the bars, recovers, stays recovered.
    "revertible": (
        lambda: HysteresisTrigger(high=0.6, low=0.2),
        True,
        [0.7, 0.5, 0.1, 0.3],
    ),
}

#: Captured with ``json.dumps(monitor.state_dict(), sort_keys=True)``.
GOLDEN = {
    "consecutive": (
        '{"allow_revert": false, "default_steps": 0, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 5, "trigger": {"streak": 2}, "version": 1}'
    ),
    "variance": (
        '{"allow_revert": false, "default_steps": 2, "defaulted": true, '
        '"last_decision_defaulted": true, "name": "golden", "signal": {}, '
        '"total_steps": 6, "trigger": {"streak": 2, "window": [0.7, 0.2, '
        '0.05, 0.3]}, "version": 1}'
    ),
    "variance-partial-window": (
        '{"allow_revert": false, "default_steps": 0, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 3, "trigger": {"streak": 0, "window": [0.1, 0.7, '
        '0.2]}, "version": 1}'
    ),
    "ewma": (
        '{"allow_revert": false, "default_steps": 0, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 4, "trigger": {"level": 0.3749}, "version": 1}'
    ),
    "ewma-unseeded": (
        '{"allow_revert": false, "default_steps": 0, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 0, "trigger": {"level": null}, "version": 1}'
    ),
    "cusum": (
        '{"allow_revert": false, "default_steps": 0, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 4, "trigger": {"statistic": 0.9500000000000001}, '
        '"version": 1}'
    ),
    "hysteresis": (
        '{"allow_revert": false, "default_steps": 2, "defaulted": true, '
        '"last_decision_defaulted": true, "name": "golden", "signal": {}, '
        '"total_steps": 3, "trigger": {"active": true}, "version": 1}'
    ),
    "sticky": (
        '{"allow_revert": false, "default_steps": 4, "defaulted": true, '
        '"last_decision_defaulted": true, "name": "golden", "signal": {}, '
        '"total_steps": 5, "trigger": {"streak": 2}, "version": 1}'
    ),
    "revertible": (
        '{"allow_revert": true, "default_steps": 2, "defaulted": false, '
        '"last_decision_defaulted": false, "name": "golden", "signal": {}, '
        '"total_steps": 4, "trigger": {"active": false}, "version": 1}'
    ),
}

TAIL = [0.4, 0.8, 0.0, 0.6, 0.9, 0.1, 1.0]


def _monitor(case: str) -> SafetyMonitor:
    factory, allow_revert, _ = CASES[case]
    monitor = SafetyMonitor(
        _ValueSignal(), factory(), allow_revert=allow_revert, name="golden"
    )
    monitor.reset()
    return monitor


def _observe(monitor: SafetyMonitor, values) -> list[tuple]:
    decisions = []
    for value in values:
        decision = monitor.observe(np.array([value]))
        signal = decision.signal_value
        decisions.append(
            (
                decision.step,
                None if math.isnan(signal) else signal,
                decision.fired,
                decision.defaulted,
                decision.handoff,
                decision.recovered,
            )
        )
    return decisions


def snapshot(case: str) -> str:
    """The golden-format snapshot of *case* after its value stream."""
    monitor = _monitor(case)
    _observe(monitor, CASES[case][2])
    return json.dumps(monitor.state_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_matches_golden_bytes(case):
    assert snapshot(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_snapshot_resumes_bitwise(case):
    reference = _monitor(case)
    _observe(reference, CASES[case][2])
    expected = _observe(reference, TAIL)
    restored = _monitor(case)
    restored.load_state_dict(json.loads(GOLDEN[case]))
    assert _observe(restored, TAIL) == expected
    assert json.dumps(restored.state_dict(), sort_keys=True) == json.dumps(
        reference.state_dict(), sort_keys=True
    )
