"""Plain reference versions of the ABR simulator's segment walk and step.

:class:`repro.abr.env.ABREnv` walks the trace's bandwidth segments with
one shared segment lookup per iteration, over lists read once per
session.  :func:`transfer_time` restates the walk the straightforward
way — :meth:`Trace.bandwidth_at` plus a separate boundary search — and
:func:`session` restates a whole session on top of it, through the
manifest's checked accessors and :meth:`QoEMetric.chunk_reward`, so the
tests can check the production loop bitwise against an independent
reading.
"""

from __future__ import annotations

import numpy as np

from repro.abr.state import StateBuilder
from repro.errors import SimulationError
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric


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


def session(
    manifest: VideoManifest,
    trace: Trace,
    metric: QoEMetric,
    rungs,
    start_offset_s: float = 0.0,
    rtt_s: float = 0.080,
    max_buffer_s: float = 60.0,
) -> list[tuple[np.ndarray, float | None, dict]]:
    """One :class:`~repro.abr.env.ABREnv` session restated step by step.

    The first chunk is fetched at rung 0, then one chunk per entry of
    *rungs*.  Reads the manifest through its checked accessors, walks the
    trace with :func:`transfer_time`, drains with ``np.ceil`` and scores
    with :meth:`QoEMetric.chunk_reward`.  Returns ``(observation, reward,
    info)`` per chunk; the first chunk's reward is ``None`` (``reset``
    returns none).
    """
    builder = StateBuilder(manifest.bitrates_kbps, manifest.num_chunks)
    builder.reset()
    clock = start_offset_s
    buffer_s = 0.0
    previous = None
    out = []
    for chunk_index, rung in enumerate([0, *rungs]):
        size = manifest.chunk_size(chunk_index, rung)
        seconds, clock = transfer_time(trace, clock, size)
        download = rtt_s + seconds
        rebuffer = max(download - buffer_s, 0.0)
        buffer_s = max(buffer_s - download, 0.0) + manifest.chunk_duration_s
        sleep = 0.0
        if buffer_s > max_buffer_s:
            sleep = float(np.ceil((buffer_s - max_buffer_s) / 0.5) * 0.5)
            buffer_s -= sleep
            clock += sleep
        throughput = size * 8.0 / download / 1e6
        remaining = manifest.num_chunks - chunk_index - 1
        observation = builder.push(
            rung,
            buffer_s,
            throughput,
            download,
            manifest.next_chunk_sizes(chunk_index + 1) if remaining else None,
            remaining,
        )
        bitrate = float(manifest.bitrates_kbps[rung]) / 1000.0
        previous_bitrate = (
            float(manifest.bitrates_kbps[previous]) / 1000.0
            if previous is not None
            else None
        )
        reward = metric.chunk_reward(bitrate, rebuffer, previous_bitrate)
        info = {
            "chunk_index": chunk_index,
            "bitrate_index": rung,
            "bitrate_mbps": bitrate,
            "previous_bitrate_mbps": previous_bitrate,
            "size_bytes": size,
            "download_time_s": download,
            "throughput_mbps": throughput,
            "rebuffer_s": rebuffer,
            "sleep_s": sleep,
            "buffer_s": buffer_s,
        }
        out.append((observation, reward if previous is not None else None, info))
        previous = rung
    return out
