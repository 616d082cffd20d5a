"""Quality-of-experience metrics.

The paper scores sessions with "the conventional linear QoE metric from
previous studies [27, 63]":

    QoE = sum_n R_n  -  mu * sum_n T_n  -  sum_n |R_{n+1} - R_n|

where ``R_n`` is the bitrate (Mbit/s) at which chunk ``n`` was downloaded,
``T_n`` the rebuffering time it caused, and ``mu`` the rebuffer penalty.
Pensieve's linear variant uses ``mu = 4.3`` (the top rung in Mbit/s).  The
log variant from [27] is included for the extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["QoEMetric", "LinearQoE", "LogQoE"]


class QoEMetric:
    """Base QoE metric over per-chunk bitrates and rebuffer times.

    Subclasses define :meth:`quality` (per-chunk quality from bitrate in
    Mbit/s); the rebuffer and smoothness penalties follow the shared linear
    form above, applied in quality units.
    """

    def __init__(
        self, rebuffer_penalty: float, smoothness_penalty: float = 1.0
    ) -> None:
        if rebuffer_penalty < 0 or smoothness_penalty < 0:
            raise ConfigError("QoE penalties must be non-negative")
        self.rebuffer_penalty = rebuffer_penalty
        self.smoothness_penalty = smoothness_penalty

    def quality(self, bitrate_mbps: np.ndarray) -> np.ndarray:
        """Per-chunk quality as a function of bitrate (Mbit/s)."""
        raise NotImplementedError

    def chunk_reward(
        self,
        bitrate_mbps: float,
        rebuffer_s: float,
        previous_bitrate_mbps: float | None,
    ) -> float:
        """Per-chunk reward: the summand of the session QoE.

        This is the reward Pensieve's RL formulation maximizes; summing it
        over a session reproduces :meth:`session_qoe` exactly.
        """
        if rebuffer_s < 0:
            raise ConfigError(f"rebuffer time must be >= 0, got {rebuffer_s}")
        quality = float(self.quality(np.asarray([bitrate_mbps]))[0])
        reward = quality - self.rebuffer_penalty * rebuffer_s
        if previous_bitrate_mbps is not None:
            previous = float(self.quality(np.asarray([previous_bitrate_mbps]))[0])
            reward -= self.smoothness_penalty * abs(quality - previous)
        return reward

    def session_qoe(
        self,
        bitrates_mbps: np.ndarray | list[float],
        rebuffer_times_s: np.ndarray | list[float],
    ) -> float:
        """Total QoE of a session (the paper's displayed metric)."""
        bitrates = np.asarray(bitrates_mbps, dtype=float)
        rebuffers = np.asarray(rebuffer_times_s, dtype=float)
        if bitrates.shape != rebuffers.shape:
            raise ConfigError(
                f"shape mismatch: {bitrates.shape} bitrates vs "
                f"{rebuffers.shape} rebuffer times"
            )
        if bitrates.size == 0:
            raise ConfigError("session has no chunks")
        if np.any(rebuffers < 0):
            raise ConfigError("rebuffer times must be >= 0")
        quality = self.quality(bitrates)
        total = quality.sum()
        total -= self.rebuffer_penalty * rebuffers.sum()
        total -= self.smoothness_penalty * np.abs(np.diff(quality)).sum()
        return float(total)


@dataclass(frozen=True)
class _LinearSpec:
    rebuffer_penalty: float = 4.3


class LinearQoE(QoEMetric):
    """The paper's linear metric: quality = bitrate in Mbit/s, mu = 4.3."""

    def __init__(
        self, rebuffer_penalty: float = 4.3, smoothness_penalty: float = 1.0
    ) -> None:
        super().__init__(rebuffer_penalty, smoothness_penalty)

    def quality(self, bitrate_mbps: np.ndarray) -> np.ndarray:
        return np.asarray(bitrate_mbps, dtype=float)


class LogQoE(QoEMetric):
    """Pensieve's QoE_log variant: quality = log(R / R_min).

    Diminishing returns at high bitrates; used by the extension benchmarks
    to check that findings are not an artifact of the linear metric.
    """

    def __init__(
        self,
        min_bitrate_mbps: float = 0.3,
        rebuffer_penalty: float = 2.66,
        smoothness_penalty: float = 1.0,
    ) -> None:
        if min_bitrate_mbps <= 0:
            raise ConfigError(
                f"min_bitrate_mbps must be positive, got {min_bitrate_mbps}"
            )
        super().__init__(rebuffer_penalty, smoothness_penalty)
        self.min_bitrate_mbps = min_bitrate_mbps

    def quality(self, bitrate_mbps: np.ndarray) -> np.ndarray:
        bitrate = np.asarray(bitrate_mbps, dtype=float)
        if np.any(bitrate <= 0):
            raise ConfigError("bitrates must be positive for the log metric")
        return np.log(bitrate / self.min_bitrate_mbps)
