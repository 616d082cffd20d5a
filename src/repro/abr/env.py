"""The chunk-level ABR streaming environment.

This reimplements the discrete-event simulator Pensieve was trained on
(``env.py`` in the reference code), against this library's trace and video
abstractions:

* one :meth:`ABREnv.step` = one chunk download at the chosen ladder rung;
* download time = RTT + the time to push the chunk's bytes through the
  trace's piecewise-constant bandwidth (walking trace segments, wrapping
  at the trace end);
* the playback buffer drains in real time during the download; if it
  empties, the difference is rebuffering; downloading then adds one chunk
  duration of content;
* if the buffer exceeds its cap (60 s, Pensieve's ``BUFFER_THRESH``), the
  client sleeps in 500 ms drain increments before requesting more;
* the per-chunk reward is the QoE metric's summand, so the episode return
  equals the session QoE exactly.

The first chunk is downloaded at the lowest rung before the agent's first
decision, as in the reference implementation, so throughput history is
never empty when the agent acts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.mdp.interfaces import StepResult
from repro.abr.state import StateBuilder
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import LinearQoE, QoEMetric

__all__ = ["ABREnv"]

_DEFAULT_RTT_S = 0.080  # the paper: "a 80ms RTT between video client and server"
_DEFAULT_MAX_BUFFER_S = 60.0
_DRAIN_GRANULARITY_S = 0.5


class ABREnv:
    """Trace-driven ABR environment with Pensieve observations and rewards."""

    def __init__(
        self,
        manifest: VideoManifest,
        trace: Trace,
        qoe_metric: QoEMetric | None = None,
        rtt_s: float = _DEFAULT_RTT_S,
        max_buffer_s: float = _DEFAULT_MAX_BUFFER_S,
        start_offset_s: float = 0.0,
    ) -> None:
        if rtt_s < 0:
            raise SimulationError(f"RTT must be >= 0, got {rtt_s}")
        if max_buffer_s <= manifest.chunk_duration_s:
            raise SimulationError(
                "max buffer must exceed one chunk duration "
                f"({max_buffer_s} <= {manifest.chunk_duration_s})"
            )
        if start_offset_s < 0:
            raise SimulationError(f"start offset must be >= 0, got {start_offset_s}")
        self.manifest = manifest
        self.trace = trace
        self.qoe_metric = qoe_metric if qoe_metric is not None else LinearQoE()
        self.rtt_s = rtt_s
        self.max_buffer_s = max_buffer_s
        self.start_offset_s = start_offset_s
        self._state = StateBuilder(manifest.bitrates_kbps, manifest.num_chunks)
        self._trace_time = 0.0
        self._buffer_s = 0.0
        self._next_chunk = 0
        self._last_bitrate_index: int | None = None
        self._done = True

    @property
    def num_actions(self) -> int:
        """One action per ladder rung."""
        return self.manifest.num_bitrates

    @property
    def buffer_s(self) -> float:
        """Current playback buffer occupancy in seconds."""
        return self._buffer_s

    @property
    def chunks_downloaded(self) -> int:
        """How many chunks have been fetched so far this episode."""
        return self._next_chunk

    def reset(self) -> np.ndarray:
        """Start a session; the first chunk is fetched at the lowest rung."""
        self._trace_time = self.start_offset_s
        self._buffer_s = 0.0
        self._next_chunk = 0
        self._last_bitrate_index = None
        self._done = False
        self._state.reset()
        observation, _ = self._download_chunk(0)
        return observation

    def step(self, action: int) -> StepResult:
        """Download the next chunk at ladder rung *action*."""
        if self._done:
            raise SimulationError("step() called on a finished episode; call reset()")
        if not 0 <= action < self.num_actions:
            raise SimulationError(
                f"action must be in [0, {self.num_actions}), got {action}"
            )
        observation, info = self._download_chunk(action)
        reward = self.qoe_metric.chunk_reward(
            bitrate_mbps=info["bitrate_mbps"],
            rebuffer_s=info["rebuffer_s"],
            previous_bitrate_mbps=info["previous_bitrate_mbps"],
        )
        self._done = self._next_chunk >= self.manifest.num_chunks
        return StepResult(
            observation=observation, reward=reward, done=self._done, info=info
        )

    def _download_chunk(self, bitrate_index: int) -> tuple[np.ndarray, dict]:
        chunk_index = self._next_chunk
        size_bytes = self.manifest.chunk_size(chunk_index, bitrate_index)
        download_time = self.rtt_s + self._transfer_time(size_bytes)
        rebuffer = max(download_time - self._buffer_s, 0.0)
        self._buffer_s = max(self._buffer_s - download_time, 0.0)
        self._buffer_s += self.manifest.chunk_duration_s
        sleep_time = self._drain_if_full()
        throughput_mbps = size_bytes * 8.0 / download_time / 1e6
        previous_index = self._last_bitrate_index
        self._last_bitrate_index = bitrate_index
        self._next_chunk += 1
        remaining = self.manifest.num_chunks - self._next_chunk
        next_sizes = (
            self.manifest.next_chunk_sizes(self._next_chunk) if remaining > 0 else None
        )
        observation = self._state.push(
            bitrate_index=bitrate_index,
            buffer_s=self._buffer_s,
            throughput_mbps=throughput_mbps,
            download_time_s=download_time,
            next_chunk_sizes_bytes=next_sizes,
            chunks_remaining=remaining,
        )
        bitrates = self.manifest.bitrates_kbps
        info = {
            "chunk_index": chunk_index,
            "bitrate_index": bitrate_index,
            "bitrate_mbps": float(bitrates[bitrate_index]) / 1000.0,
            "previous_bitrate_mbps": (
                float(bitrates[previous_index]) / 1000.0
                if previous_index is not None
                else None
            ),
            "size_bytes": size_bytes,
            "download_time_s": download_time,
            "throughput_mbps": throughput_mbps,
            "rebuffer_s": rebuffer,
            "sleep_s": sleep_time,
            "buffer_s": self._buffer_s,
        }
        return observation, info

    def _transfer_time(self, size_bytes: float) -> float:
        """Seconds to push *size_bytes* through the trace from the current
        trace position, advancing that position.

        Walks the piecewise-constant bandwidth segments, wrapping at the
        trace end.  Each iteration locates the current segment once, with
        the same ``(time - times[0]) % duration + times[0]`` offset as
        :meth:`Trace.bandwidth_at`, and reads both its rate and the time
        to its end from that one lookup.
        """
        if size_bytes <= 0:
            raise SimulationError(f"chunk size must be positive, got {size_bytes}")
        times = self.trace.times
        bandwidths = self.trace.bandwidths_mbps
        start = times[0]
        duration = float(times[-1] - start)
        if duration <= 0:
            raise SimulationError("trace has zero duration")
        last = len(times) - 1
        elapsed = 0.0
        remaining = size_bytes
        for _ in range(10_000_000):
            offset = (self._trace_time - start) % duration + start
            index = int(times.searchsorted(offset, side="right")) - 1
            rate_bytes_s = float(bandwidths[index]) * 1e6 / 8.0
            if index < last:
                segment = float(times[index + 1] - offset)
                # Landing exactly on a boundary (a zero gap would stall).
                if segment <= 1e-12:
                    segment = float(times[index + 1] - times[index])
            else:
                segment = float(times[last] - offset) or duration
            capacity = rate_bytes_s * segment
            if capacity >= remaining:
                dt = remaining / rate_bytes_s
                self._trace_time += dt
                return elapsed + dt
            elapsed += segment
            remaining -= capacity
            self._trace_time += segment
        raise SimulationError(
            f"chunk of {size_bytes:.0f} bytes did not finish; trace "
            f"{self.trace.name!r} bandwidth is implausibly low"
        )

    def _drain_if_full(self) -> float:
        """Sleep (advance the trace clock) while the buffer exceeds its cap."""
        if self._buffer_s <= self.max_buffer_s:
            return 0.0
        excess = self._buffer_s - self.max_buffer_s
        sleep_time = (
            np.ceil(excess / _DRAIN_GRANULARITY_S) * _DRAIN_GRANULARITY_S
        )
        self._buffer_s -= sleep_time
        self._trace_time += sleep_time
        return float(sleep_time)
