"""Trace transformations: controlled perturbations of bandwidth traces.

The paper lists the causes of train/test mismatch: "variability in network
conditions not adequately covered by the finite training data, or the
introduction of new factors such as routing changes, network failures, the
addition/removal of traffic sources".  These transforms synthesize exactly
those factors on top of any base trace, which is how the robustness
experiments build *graded* distribution shifts (is a 10% slowdown enough
to trigger defaulting?  a 2x one?):

* :func:`scale` — uniform capacity change (route change / plan change),
* :func:`inject_outages` — periodic failures (handoffs, tunnels),
* :func:`add_cross_traffic` — a competing flow stealing bandwidth,
* :func:`concatenate` — splicing traces (regime switches mid-session).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed

__all__ = [
    "scale",
    "inject_outages",
    "add_cross_traffic",
    "concatenate",
]

_FLOOR_MBPS = 0.01


def scale(trace: Trace, factor: float) -> Trace:
    """Multiply all bandwidth by *factor* (capacity upgrade/downgrade)."""
    return trace.scaled(factor)


def inject_outages(
    trace: Trace,
    outage_duration_s: float,
    period_s: float,
    depth_factor: float = 0.02,
    seed: int | np.random.Generator | None = 0,
) -> Trace:
    """Overlay periodic outages: every ~*period_s*, bandwidth drops to
    ``depth_factor`` of its value for *outage_duration_s*.

    Outage start offsets are jittered by the RNG so sessions do not all
    stall at the same chunk.
    """
    if outage_duration_s <= 0 or period_s <= outage_duration_s:
        raise TraceError(
            "need 0 < outage_duration < period, got "
            f"({outage_duration_s}, {period_s})"
        )
    if not 0.0 < depth_factor <= 1.0:
        raise TraceError(f"depth_factor must be in (0, 1], got {depth_factor}")
    rng = rng_from_seed(seed)
    bandwidths = trace.bandwidths_mbps.copy()
    times = trace.times
    start = float(rng.uniform(0.0, period_s))
    while start < times[-1]:
        mask = (times >= start) & (times < start + outage_duration_s)
        bandwidths[mask] = np.maximum(
            bandwidths[mask] * depth_factor, _FLOOR_MBPS
        )
        start += period_s
    return Trace(
        times=times.copy(),
        bandwidths_mbps=bandwidths,
        name=f"{trace.name}+outages",
    )


def add_cross_traffic(
    trace: Trace,
    mean_mbps: float,
    burstiness: float = 0.5,
    seed: int | np.random.Generator | None = 0,
) -> Trace:
    """Subtract a bursty competing flow from the available bandwidth.

    The competing flow's instantaneous rate is Gamma-distributed with the
    given mean; ``burstiness`` is its coefficient of variation.  Residual
    bandwidth is floored at a small positive value.
    """
    if mean_mbps <= 0:
        raise TraceError(f"cross-traffic mean must be positive, got {mean_mbps}")
    if burstiness <= 0:
        raise TraceError(f"burstiness must be positive, got {burstiness}")
    rng = rng_from_seed(seed)
    shape = 1.0 / burstiness**2
    competing = rng.gamma(shape, mean_mbps / shape, size=len(trace))
    residual = np.maximum(trace.bandwidths_mbps - competing, _FLOOR_MBPS)
    return Trace(
        times=trace.times.copy(),
        bandwidths_mbps=residual,
        name=f"{trace.name}+x{mean_mbps:g}",
    )


def concatenate(first: Trace, second: Trace, name: str | None = None) -> Trace:
    """Splice *second* after *first* (a mid-session regime switch)."""
    offset = first.times[-1] + (
        first.times[-1] - first.times[-2] if len(first) > 1 else 1.0
    )
    times = np.concatenate(
        [first.times, second.times - second.times[0] + offset]
    )
    bandwidths = np.concatenate(
        [first.bandwidths_mbps, second.bandwidths_mbps]
    )
    return Trace(
        times=times,
        bandwidths_mbps=bandwidths,
        name=name or f"{first.name}+{second.name}",
    )
