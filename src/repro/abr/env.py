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

A step runs on Python floats.  Each env reads its trace's segment
boundaries and byte rates as lists once and walks them with
:func:`bisect.bisect_right`.  What a step reads of the video and the QoE
metric — chunk sizes, the ladder in Mbit/s, the observation's next-size
rows, and each rung's quality through one
:meth:`~repro.video.qoe.QoEMetric.quality` call — is built once per
:class:`~repro.abr.session.ABRSessionFactory` and shared by every env it
makes.  The reward applies :meth:`~repro.video.qoe.QoEMetric.chunk_reward`'s
arithmetic in its order to those per-rung qualities, so every served
float equals the numpy reading of the same simulator bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.mdp.interfaces import StepResult
from repro.abr.state import StateBuilder, next_size_rows
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import LinearQoE, QoEMetric

__all__ = ["ABREnv"]

_DEFAULT_RTT_S = 0.080  # the paper: "a 80ms RTT between video client and server"
_DEFAULT_MAX_BUFFER_S = 60.0
_DRAIN_GRANULARITY_S = 0.5


class _StepTables:
    """What one step reads of a manifest and a QoE metric, read once.

    Immutable once built, so one instance serves every env of a factory.
    """

    def __init__(self, manifest: VideoManifest, qoe_metric: QoEMetric | None) -> None:
        metric = qoe_metric if qoe_metric is not None else LinearQoE()
        if type(metric).chunk_reward is not QoEMetric.chunk_reward:
            raise ConfigError(
                "ABREnv rewards follow QoEMetric.chunk_reward; customise "
                f"{type(metric).__name__}.quality() instead of chunk_reward()"
            )
        self.manifest = manifest
        self.qoe_metric = metric
        self.num_chunks = manifest.num_chunks
        self.num_bitrates = manifest.num_bitrates
        self.sizes_bytes = manifest.chunk_sizes_bytes.tolist()
        self.next_size_rows = next_size_rows(
            manifest.chunk_sizes_bytes, manifest.num_bitrates
        )
        self.bitrates_mbps = [float(b) / 1000.0 for b in manifest.bitrates_kbps]
        self.quality = [
            float(metric.quality(np.asarray([b]))[0]) for b in self.bitrates_mbps
        ]
        self.rebuffer_penalty = metric.rebuffer_penalty
        self.smoothness_penalty = metric.smoothness_penalty

    def reward(
        self, rung: int, rebuffer_s: float, previous_rung: int | None
    ) -> float:
        """:meth:`QoEMetric.chunk_reward` for ladder rungs, bit for bit."""
        if rebuffer_s < 0:
            raise ConfigError(f"rebuffer time must be >= 0, got {rebuffer_s}")
        quality = self.quality[rung]
        reward = quality - self.rebuffer_penalty * rebuffer_s
        if previous_rung is not None:
            reward -= self.smoothness_penalty * abs(
                quality - self.quality[previous_rung]
            )
        return reward


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
        self._setup(
            _StepTables(manifest, qoe_metric),
            trace,
            rtt_s,
            max_buffer_s,
            start_offset_s,
        )

    @classmethod
    def _from_tables(
        cls, tables: _StepTables, trace: Trace, start_offset_s: float
    ) -> "ABREnv":
        """An env with default RTT and buffer cap over shared *tables*."""
        env = cls.__new__(cls)
        env._setup(
            tables, trace, _DEFAULT_RTT_S, _DEFAULT_MAX_BUFFER_S, start_offset_s
        )
        return env

    def _setup(
        self,
        tables: _StepTables,
        trace: Trace,
        rtt_s: float,
        max_buffer_s: float,
        start_offset_s: float,
    ) -> None:
        manifest = tables.manifest
        if not rtt_s >= 0:
            raise SimulationError(f"RTT must be >= 0, got {rtt_s}")
        if not max_buffer_s > manifest.chunk_duration_s:
            raise SimulationError(
                "max buffer must exceed one chunk duration "
                f"({max_buffer_s} <= {manifest.chunk_duration_s})"
            )
        if not start_offset_s >= 0:
            raise SimulationError(f"start offset must be >= 0, got {start_offset_s}")
        self.manifest = manifest
        self.trace = trace
        self.qoe_metric = tables.qoe_metric
        self.rtt_s = rtt_s
        self.max_buffer_s = max_buffer_s
        self.start_offset_s = start_offset_s
        self._tables = tables
        self._times = trace.times.tolist()
        self._rates_bytes_s = (trace.bandwidths_mbps * 1e6 / 8.0).tolist()
        self._state = StateBuilder(manifest.bitrates_kbps, manifest.num_chunks)
        self._trace_time = 0.0
        self._buffer_s = 0.0
        self._next_chunk = 0
        self._last_bitrate_index: int | None = None
        self._done = True

    @property
    def num_actions(self) -> int:
        """One action per ladder rung."""
        return self._tables.num_bitrates

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
        tables = self._tables
        if not 0 <= action < tables.num_bitrates:
            raise SimulationError(
                f"action must be in [0, {tables.num_bitrates}), got {action}"
            )
        previous = self._last_bitrate_index
        observation, info = self._download_chunk(action)
        reward = tables.reward(action, info["rebuffer_s"], previous)
        self._done = done = self._next_chunk >= tables.num_chunks
        return StepResult(observation=observation, reward=reward, done=done, info=info)

    def _download_chunk(self, bitrate_index: int) -> tuple[np.ndarray, dict]:
        tables = self._tables
        chunk_index = self._next_chunk
        size_bytes = tables.sizes_bytes[chunk_index][bitrate_index]
        download_time = self.rtt_s + self._transfer_time(size_bytes)
        rebuffer = max(download_time - self._buffer_s, 0.0)
        self._buffer_s = (
            max(self._buffer_s - download_time, 0.0) + self.manifest.chunk_duration_s
        )
        sleep_time = self._drain_if_full()
        throughput_mbps = size_bytes * 8.0 / download_time / 1e6
        previous_index = self._last_bitrate_index
        self._last_bitrate_index = bitrate_index
        self._next_chunk = next_chunk = chunk_index + 1
        observation = self._state._push_row(
            bitrate_index,
            self._buffer_s,
            throughput_mbps,
            download_time,
            tables.next_size_rows[next_chunk],
            tables.num_chunks - next_chunk,
        )
        bitrates_mbps = tables.bitrates_mbps
        info = {
            "chunk_index": chunk_index,
            "bitrate_index": bitrate_index,
            "bitrate_mbps": bitrates_mbps[bitrate_index],
            "previous_bitrate_mbps": (
                bitrates_mbps[previous_index] if previous_index is not None else None
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
        :meth:`Trace.bandwidth_at` and a right-side bisect over the
        session's boundary list, and reads both its rate and the time to
        its end from that one lookup.
        """
        if size_bytes <= 0:
            raise SimulationError(f"chunk size must be positive, got {size_bytes}")
        times = self._times
        rates = self._rates_bytes_s
        start = times[0]
        last = len(times) - 1
        duration = times[last] - start
        if duration <= 0:
            raise SimulationError("trace has zero duration")
        clock = self._trace_time
        elapsed = 0.0
        remaining = size_bytes
        for _ in range(10_000_000):
            offset = (clock - start) % duration + start
            index = bisect_right(times, offset) - 1
            rate_bytes_s = rates[index]
            if index < last:
                segment = times[index + 1] - offset
                # Landing exactly on a boundary (a zero gap would stall).
                if segment <= 1e-12:
                    segment = times[index + 1] - times[index]
            else:
                segment = times[last] - offset or duration
            capacity = rate_bytes_s * segment
            if capacity >= remaining:
                dt = remaining / rate_bytes_s
                self._trace_time = clock + dt
                return elapsed + dt
            elapsed += segment
            remaining -= capacity
            clock += segment
        self._trace_time = clock
        raise SimulationError(
            f"chunk of {size_bytes:.0f} bytes did not finish; trace "
            f"{self.trace.name!r} bandwidth is implausibly low"
        )

    def _drain_if_full(self) -> float:
        """Sleep (advance the trace clock) while the buffer exceeds its cap."""
        if self._buffer_s <= self.max_buffer_s:
            return 0.0
        excess = self._buffer_s - self.max_buffer_s
        sleep_time = math.ceil(excess / _DRAIN_GRANULARITY_S) * _DRAIN_GRANULARITY_S
        self._buffer_s -= sleep_time
        self._trace_time += sleep_time
        return sleep_time
