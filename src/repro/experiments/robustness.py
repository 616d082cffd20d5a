"""Graded-shift robustness curves.

The paper's evaluation jumps between *whole distributions* (train on one
dataset, test on another).  Deployments more often drift gradually, so
this module measures the safety machinery against *graded* shifts built
with the trace transforms: how much capacity loss (or cross traffic, or
outage load) does it take before the controller starts defaulting — and
does the defaulting decision track where the learned policy actually
starts losing to the default?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.domains import MonitoredScheme, SessionSpec, run_session
from repro.errors import ConfigError
from repro.traces.trace import Trace
from repro.traces.transforms import add_cross_traffic, inject_outages, scale

__all__ = [
    "RobustnessPoint",
    "graded_shift_curve",
    "capacity_loss_shift",
    "cross_traffic_shift",
    "outage_shift",
]


@dataclass(frozen=True)
class RobustnessPoint:
    """Measurements at one shift magnitude."""

    magnitude: float
    learned_qoe: float
    controlled_qoe: float
    default_qoe: float
    default_fraction: float


def capacity_loss_shift(trace: Trace, magnitude: float) -> Trace:
    """Shift family: lose ``magnitude`` fraction of link capacity."""
    if not 0.0 <= magnitude < 1.0:
        raise ConfigError(f"capacity loss must be in [0, 1), got {magnitude}")
    if magnitude == 0.0:
        return trace
    return scale(trace, 1.0 - magnitude)


def cross_traffic_shift(trace: Trace, magnitude: float) -> Trace:
    """Shift family: a competing flow of ``magnitude`` Mbit/s appears."""
    if magnitude < 0:
        raise ConfigError(f"cross traffic must be >= 0, got {magnitude}")
    if magnitude == 0.0:
        return trace
    return add_cross_traffic(trace, mean_mbps=magnitude, seed=0)


def outage_shift(trace: Trace, magnitude: float) -> Trace:
    """Shift family: ``magnitude`` fraction of time spent in outages."""
    if not 0.0 <= magnitude < 1.0:
        raise ConfigError(f"outage fraction must be in [0, 1), got {magnitude}")
    if magnitude == 0.0:
        return trace
    period = 40.0
    return inject_outages(
        trace,
        outage_duration_s=magnitude * period,
        period_s=period,
        seed=0,
    )


def graded_shift_curve(
    scheme: MonitoredScheme,
    base_traces: Sequence[Trace],
    shift: Callable[[Trace, float], Trace],
    magnitudes: Sequence[float],
    seed: int = 0,
) -> list[RobustnessPoint]:
    """Measure a scheme and both of its policies across graded shifts.

    At each magnitude every shifted trace is streamed through the
    scheme's factory three times: under ``scheme.learned`` alone, under
    ``scheme.default`` alone, and under the scheme itself, whose
    per-session default fraction is averaged over the traces.
    """
    if not base_traces:
        raise ConfigError("no base traces supplied")
    if not magnitudes:
        raise ConfigError("no shift magnitudes supplied")

    def sessions(policy, traces):
        return [
            run_session(scheme.factory, SessionSpec(trace=t, seed=seed), policy)
            for t in traces
        ]

    points = []
    for magnitude in magnitudes:
        shifted = [shift(trace, float(magnitude)) for trace in base_traces]
        learned = sessions(scheme.learned, shifted)
        default = sessions(scheme.default, shifted)
        controlled = sessions(scheme, shifted)
        points.append(
            RobustnessPoint(
                magnitude=float(magnitude),
                learned_qoe=float(np.mean([r.qoe for r in learned])),
                controlled_qoe=float(np.mean([r.qoe for r in controlled])),
                default_qoe=float(np.mean([r.qoe for r in default])),
                default_fraction=float(
                    np.mean([r.default_fraction for r in controlled])
                ),
            )
        )
    return points
