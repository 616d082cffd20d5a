"""``U_S``: state uncertainty as novelty detection (Section 2.4, 3.1).

The paper's recipe: "at each time step t, the mean and standard deviation
of the 10 most recent network throughputs are calculated, and a sample
consisting of the k latest [mean, deviation] pairs is fed into the
(trained) OC-SVM model" — k = 5 for the empirical distributions, k = 30
for the synthetic ones.  The OC-SVM answers in/out-of-distribution per
step; the l-consecutive rule in :mod:`repro.core.thresholding` decides
when to default.

:func:`throughput_window_samples` builds the same representation from
training sessions, producing the OC-SVM's training set.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

import numpy as np

from repro.core.signals import SIGNALS, UncertaintySignal
from repro.errors import SafetyError, SimulationError
from repro.novelty.base import NoveltyDetector
from repro.util.stats import mean_std_window

__all__ = ["StateNoveltySignal", "throughput_window_samples"]

_DEFAULT_THROUGHPUT_WINDOW = 10

#: Row 2 of the ABR observation matrix is measured throughput normalized
#: by this constant.  It restates the observation contract of
#: ``repro.abr.state`` (``_THROUGHPUT_NORM_MBPS``) so the core layer can
#: read the stream without importing the ABR substrate; a sync test
#: asserts the two constants (and the extracted values) agree.
_THROUGHPUT_NORM_MBPS = 8.0
_THROUGHPUT_ROW = 2


def _latest_throughput_mbps(observation: np.ndarray) -> float:
    """The newest measured throughput in an ABR observation (Mbit/s)."""
    observation = np.asarray(observation, dtype=float)
    if observation.ndim != 2:
        raise SimulationError(
            f"expected a 2-d observation matrix, got shape {observation.shape}"
        )
    return float(observation[_THROUGHPUT_ROW, -1] * _THROUGHPUT_NORM_MBPS)


def throughput_window_samples(
    throughput_series: list[np.ndarray] | tuple[np.ndarray, ...],
    k: int,
    throughput_window: int = _DEFAULT_THROUGHPUT_WINDOW,
    max_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Build OC-SVM samples from per-session throughput sequences.

    For every time step with a full history, compute the ``[mean, std]``
    of the last *throughput_window* throughputs, then stack the *k* latest
    pairs into one ``2k``-dimensional sample.  Sessions shorter than
    ``k`` usable steps contribute nothing.

    *max_samples* optionally subsamples the result (uniformly, with *rng*)
    to bound OC-SVM training cost.
    """
    if k <= 0:
        raise SafetyError(f"k must be positive, got {k}")
    if throughput_window <= 0:
        raise SafetyError(
            f"throughput_window must be positive, got {throughput_window}"
        )
    samples: list[np.ndarray] = []
    for series in throughput_series:
        series = np.asarray(series, dtype=float).ravel()
        # Only full windows: partial-history statistics at session start
        # have a different signature (tiny std) and would either pollute
        # the learned region or be sacrificed as training outliers,
        # making every fresh session's first windows false alarms.
        pairs = [
            mean_std_window(series[: t + 1], throughput_window)
            for t in range(throughput_window - 1, series.size)
        ]
        if not pairs:
            continue
        pairs_arr = np.asarray(pairs)
        for end in range(k, len(pairs) + 1):
            samples.append(pairs_arr[end - k : end].ravel())
    if not samples:
        raise SafetyError(
            f"no training samples: sessions too short for k={k} windows"
        )
    stacked = np.stack(samples)
    if max_samples is not None and stacked.shape[0] > max_samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen = rng.choice(stacked.shape[0], size=max_samples, replace=False)
        stacked = stacked[np.sort(chosen)]
    return stacked


@SIGNALS.register("U_S")
class StateNoveltySignal(UncertaintySignal):
    """Per-step OOD flag from a fitted novelty detector.

    Emits 1.0 when the current window of throughput statistics is an
    outlier with respect to the training distribution, else 0.0.  During
    warm-up (before *k* windows have been observed) it emits 0.0 — the
    paper's system likewise cannot flag before it has a full sample.

    Any fitted :class:`~repro.novelty.base.NoveltyDetector` works as the
    backend (the registry in :mod:`repro.core.signals` lists them under
    ``novelty/*``); the paper's choice is the one-class SVM.  The signal
    reads the latest measured throughput from the ABR observation row by
    default; *throughput_of* swaps that extraction for other domains.
    """

    binary = True

    def __init__(
        self,
        detector: NoveltyDetector,
        bitrates_kbps: np.ndarray,
        k: int,
        throughput_window: int = _DEFAULT_THROUGHPUT_WINDOW,
        throughput_of: Callable[[np.ndarray], float] | None = None,
    ) -> None:
        if k <= 0:
            raise SafetyError(f"k must be positive, got {k}")
        if throughput_window <= 0:
            raise SafetyError(
                f"throughput_window must be positive, got {throughput_window}"
            )
        self.detector = detector
        self.bitrates_kbps = np.asarray(bitrates_kbps, dtype=float)
        self.k = k
        self.throughput_window = throughput_window
        self.throughput_of = throughput_of or _latest_throughput_mbps
        self._throughputs: deque[float] = deque(maxlen=max(throughput_window, 1))
        self._pairs: deque[tuple[float, float]] = deque(maxlen=k)

    def reset(self) -> None:
        self._throughputs.clear()
        self._pairs.clear()

    def state_dict(self) -> dict:
        return {
            "throughputs": [float(v) for v in self._throughputs],
            "pairs": [[float(m), float(s)] for m, s in self._pairs],
        }

    def load_state_dict(self, state: dict) -> None:
        throughputs = [float(v) for v in state["throughputs"]]
        pairs = [(float(m), float(s)) for m, s in state["pairs"]]
        if len(throughputs) > self._throughputs.maxlen:
            raise SafetyError(
                f"restored {len(throughputs)} throughputs into a window "
                f"of {self._throughputs.maxlen}"
            )
        if len(pairs) > self.k:
            raise SafetyError(
                f"restored {len(pairs)} pairs into a window of {self.k}"
            )
        self._throughputs = deque(throughputs, maxlen=self._throughputs.maxlen)
        self._pairs = deque(pairs, maxlen=self.k)

    def measure(self, observation: np.ndarray) -> float:
        latest = self.throughput_of(observation)
        if not math.isfinite(latest):
            raise SafetyError(f"non-finite throughput {latest}")
        if latest > 0:
            self._throughputs.append(latest)
        # Warm-up: wait for a full throughput window before producing
        # [mean, std] pairs, matching the training-sample construction.
        if len(self._throughputs) < self.throughput_window:
            return 0.0
        self._pairs.append(
            mean_std_window(np.asarray(self._throughputs), self.throughput_window)
        )
        if len(self._pairs) < self.k:
            return 0.0
        sample = np.asarray(self._pairs).ravel()
        return 1.0 if self.detector.is_outlier(sample) else 0.0
