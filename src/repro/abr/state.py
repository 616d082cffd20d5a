"""Pensieve's observation representation.

Pensieve's agent observes a ``(S_INFO, S_LEN)`` matrix rolling over the last
``S_LEN = 8`` chunks, with the rows (S_INFO = 6):

0. last selected bitrate, normalized by the top rung,
1. current buffer occupancy, in 10-second units,
2. measured throughput of recent chunk downloads (Mbit/s, normalized),
3. download time of recent chunks, in 10-second units,
4. sizes of the *next* chunk at each ladder rung, in megabytes
   (occupies the first ``num_bitrates`` columns),
5. fraction of the video still ahead.

Rows 0, 1, and 5 are scalars repeated in the last column only (matching the
reference implementation, which writes scalars into column -1 and lets the
conv layers read the vector rows).  :class:`StateBuilder` maintains the
rolling matrix; :class:`ObservationView` gives policies named, validated
access to an observation produced by it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["S_INFO", "S_LEN", "StateBuilder", "ObservationView"]

S_INFO = 6
S_LEN = 8

_BUFFER_NORM_S = 10.0
_TIME_NORM_S = 10.0
_THROUGHPUT_NORM_MBPS = 8.0
_BYTES_PER_MB = 1e6


def next_size_rows(
    chunk_sizes_bytes: np.ndarray, num_bitrates: int
) -> list[np.ndarray]:
    """Row 4 for every next chunk of a video, normalised once.

    Entry ``n`` holds chunk ``n``'s sizes in MB, zero-padded to
    ``S_LEN`` columns; one extra all-zero entry stands for "no next
    chunk" at the end of the video.  What :meth:`StateBuilder.push`
    writes for the same sizes, bit for bit.
    """
    sizes = np.asarray(chunk_sizes_bytes, dtype=float)
    if sizes.ndim != 2 or not sizes.shape[1] == num_bitrates <= S_LEN:
        raise SimulationError(
            f"expected (chunks, {num_bitrates}) chunk sizes with at most "
            f"S_LEN = {S_LEN} rungs, got shape {sizes.shape}"
        )
    table = np.zeros((sizes.shape[0] + 1, S_LEN))
    table[:-1, :num_bitrates] = sizes / _BYTES_PER_MB
    return list(table)


class StateBuilder:
    """Maintains the rolling Pensieve observation matrix for one session."""

    def __init__(self, bitrates_kbps: np.ndarray, num_chunks: int) -> None:
        bitrates = np.asarray(bitrates_kbps, dtype=float)
        if bitrates.ndim != 1 or bitrates.size < 2:
            raise SimulationError("need a bitrate ladder with at least two rungs")
        if bitrates.size > S_LEN:
            raise SimulationError(
                f"ladder of {bitrates.size} rungs does not fit row 4 "
                f"(S_LEN = {S_LEN})"
            )
        if num_chunks <= 0:
            raise SimulationError(f"num_chunks must be positive, got {num_chunks}")
        self.bitrates_kbps = bitrates
        self.num_chunks = num_chunks
        self._rung_levels = (bitrates / bitrates[-1]).tolist()
        self._state = np.zeros((S_INFO, S_LEN))

    def reset(self) -> np.ndarray:
        """Zero the rolling state and return the initial observation."""
        self._state = np.zeros((S_INFO, S_LEN))
        return self.observation()

    def push(
        self,
        bitrate_index: int,
        buffer_s: float,
        throughput_mbps: float,
        download_time_s: float,
        next_chunk_sizes_bytes: np.ndarray | None,
        chunks_remaining: int,
    ) -> np.ndarray:
        """Roll the state one chunk forward and return the new observation.

        *next_chunk_sizes_bytes* is ``None`` at the end of the video (there
        is no next chunk); row 4 is then zero.
        """
        if not 0 <= bitrate_index < self.bitrates_kbps.size:
            raise SimulationError(f"bitrate index {bitrate_index} out of range")
        row = np.zeros(S_LEN)
        if next_chunk_sizes_bytes is not None:
            sizes = np.asarray(next_chunk_sizes_bytes, dtype=float)
            if sizes.shape != (self.bitrates_kbps.size,):
                raise SimulationError(
                    f"expected {self.bitrates_kbps.size} next-chunk sizes, "
                    f"got shape {sizes.shape}"
                )
            row[: sizes.size] = sizes / _BYTES_PER_MB
        return self._push_row(
            bitrate_index,
            buffer_s,
            throughput_mbps,
            download_time_s,
            row,
            chunks_remaining,
        )

    def _push_row(
        self,
        bitrate_index: int,
        buffer_s: float,
        throughput_mbps: float,
        download_time_s: float,
        size_row: np.ndarray,
        chunks_remaining: int,
    ) -> np.ndarray:
        """:meth:`push` with an in-range rung and row 4 given whole: the
        next sizes in MB, zero-padded to ``S_LEN`` (a
        :func:`next_size_rows` row)."""
        if buffer_s < 0 or throughput_mbps < 0 or download_time_s < 0:
            raise SimulationError("state inputs must be non-negative")
        if not 0 <= chunks_remaining <= self.num_chunks:
            raise SimulationError(
                f"chunks_remaining {chunks_remaining} out of range"
            )
        # In-place left shift; every cell np.roll would wrap around is
        # overwritten below, so the resulting matrix is identical.
        state = self._state
        state[:, :-1] = state[:, 1:]
        state[0, -1] = self._rung_levels[bitrate_index]
        state[1, -1] = buffer_s / _BUFFER_NORM_S
        state[2, -1] = throughput_mbps / _THROUGHPUT_NORM_MBPS
        state[3, -1] = download_time_s / _TIME_NORM_S
        state[4] = size_row
        state[5, -1] = chunks_remaining / self.num_chunks
        return state.copy()

    def observation(self) -> np.ndarray:
        """A defensive copy of the current observation matrix."""
        return self._state.copy()


class ObservationView:
    """Named access to a Pensieve observation matrix.

    Lets heuristic policies (Buffer-Based, Rate-Based, MPC) read exactly the
    quantities they need from the shared observation format instead of
    keeping private side channels.
    """

    def __init__(self, observation: np.ndarray, bitrates_kbps: np.ndarray) -> None:
        observation = np.asarray(observation, dtype=float)
        if observation.shape != (S_INFO, S_LEN):
            raise SimulationError(
                f"observation must be ({S_INFO}, {S_LEN}), got {observation.shape}"
            )
        self._obs = observation
        self._bitrates = np.asarray(bitrates_kbps, dtype=float)

    @property
    def last_bitrate_index(self) -> int:
        """Ladder index of the previously selected bitrate."""
        normalized = self._obs[0, -1] * self._bitrates[-1]
        return int(np.argmin(np.abs(self._bitrates - normalized)))

    @property
    def buffer_s(self) -> float:
        """Playback buffer occupancy in seconds."""
        return float(self._obs[1, -1] * _BUFFER_NORM_S)

    @property
    def throughput_history_mbps(self) -> np.ndarray:
        """Measured throughput of the last ``S_LEN`` chunks (Mbit/s).

        Leading zeros mean "not yet observed" early in a session.
        """
        return self._obs[2] * _THROUGHPUT_NORM_MBPS

    @property
    def download_time_history_s(self) -> np.ndarray:
        """Download durations of the last ``S_LEN`` chunks (seconds)."""
        return self._obs[3] * _TIME_NORM_S

    @property
    def next_chunk_sizes_bytes(self) -> np.ndarray:
        """Upcoming chunk's size at each ladder rung (bytes)."""
        return self._obs[4, : self._bitrates.size] * _BYTES_PER_MB

    @property
    def remaining_fraction(self) -> float:
        """Fraction of the video still to download."""
        return float(self._obs[5, -1])
