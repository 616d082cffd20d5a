"""Plain reference version of the ABR simulator's segment walk.

:class:`repro.abr.env.ABREnv` walks the trace's bandwidth segments with
one shared segment lookup per iteration.  This oracle restates the walk
the straightforward way — :meth:`Trace.bandwidth_at` plus a separate
boundary search — so the tests can check the production loop bitwise
against an independent reading.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.traces.trace import Trace


def time_to_boundary(trace: Trace, time_s: float) -> float:
    """Seconds until *trace*'s next bandwidth change after *time_s*."""
    offset = (time_s - trace.times[0]) % trace.duration + trace.times[0]
    index = int(np.searchsorted(trace.times, offset, side="right") - 1)
    boundary = trace.times[index + 1] if index + 1 < len(trace.times) else None
    if boundary is None:
        return float(trace.times[-1] - offset) or trace.duration
    gap = float(boundary - offset)
    # Guard against landing exactly on a boundary (gap == 0 would stall).
    return gap if gap > 1e-12 else float(trace.times[index + 1] - trace.times[index])


def transfer_time(trace: Trace, trace_time: float, size_bytes: float):
    """Push *size_bytes* through *trace* from *trace_time*, walking the
    piecewise-constant segments and wrapping at the trace end.

    Returns ``(seconds, new_trace_time)``.
    """
    if size_bytes <= 0:
        raise SimulationError(f"chunk size must be positive, got {size_bytes}")
    elapsed = 0.0
    remaining = size_bytes
    for _ in range(10_000_000):
        rate_bytes_s = trace.bandwidth_at(trace_time) * 1e6 / 8.0
        segment = time_to_boundary(trace, trace_time)
        capacity = rate_bytes_s * segment
        if capacity >= remaining:
            dt = remaining / rate_bytes_s
            return elapsed + dt, trace_time + dt
        elapsed += segment
        remaining -= capacity
        trace_time += segment
    raise SimulationError(f"chunk of {size_bytes:.0f} bytes did not finish")
