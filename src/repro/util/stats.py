"""Small statistics helpers used throughout the library.

Includes windowed mean/std features (the input representation of the
paper's ``U_S`` novelty signal), the paper's score normalization
(Random = 0, BB = 1), and empirical CDFs (Figure 5).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mean_std_window",
    "normalize_scores",
    "empirical_cdf",
    "summarize",
]


def mean_std_window(values: np.ndarray, window: int) -> tuple[float, float]:
    """Mean and standard deviation of the last *window* entries of *values*.

    This is the feature extractor used by the paper's ``U_S`` scheme: "the
    mean and standard deviation of the 10 most recent network throughputs".
    If fewer than *window* samples are available, all of them are used.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot summarize an empty window")
    tail = arr[-window:]
    return float(tail.mean()), float(tail.std())


def normalize_scores(
    scores: np.ndarray | list[float],
    random_score: float,
    bb_score: float,
) -> np.ndarray:
    """Normalize QoE so that Random maps to 0 and Buffer-Based maps to 1.

    This is the normalization used in Figures 3-5 of the paper: "a
    performance value of 0 corresponds to Random's performance ... a
    performance of 1 corresponds to the gap between BB's performance and
    Random's performance".

    Raises :class:`ValueError` when BB and Random tie, because the gap that
    defines the unit of the scale is then zero.
    """
    gap = bb_score - random_score
    if gap == 0:
        raise ValueError("BB and Random scores coincide; normalization undefined")
    return (np.asarray(scores, dtype=float) - random_score) / gap


def empirical_cdf(values: np.ndarray | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_fractions)`` for an empirical CDF.

    The fractions are ``i / n`` for the i-th smallest value (1-indexed), the
    convention used when plotting Figure 5.
    """
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    fractions = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return arr, fractions


def summarize(values: np.ndarray | list[float]) -> dict[str, float]:
    """Max/min/mean/median summary, the statistics reported in Figure 4."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot summarize no samples")
    return {
        "max": float(arr.max()),
        "min": float(arr.min()),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
    }
