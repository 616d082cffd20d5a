"""Alternative thresholding strategies (paper future work, Section 5).

"Natural directions for future research include ... exploring the
implications for the performance of different thresholding strategies."
The paper's own rules live in :mod:`repro.core.thresholding` (k-window
variance + l-consecutive); this module adds two classical alternatives
behind the same :class:`~repro.core.thresholding.DefaultTrigger` interface:

* :class:`EWMATrigger` — exponential smoothing of the raw signal level
  against a bar; memory decays geometrically instead of dropping out of a
  window, so brief spikes are forgiven but sustained elevation fires.
* :class:`CusumTrigger` — the CUSUM change-point detector: accumulates
  evidence that the signal's mean has risen above its in-distribution
  level; provably detects persistent small shifts that per-step rules
  miss, at the cost of a tunable drift allowance.
* :class:`HysteresisTrigger` — distinct on/off bars, for revertible
  controllers: fires above the high bar and only clears below the low
  bar, preventing flapping near the threshold.

The strategy-ablation benchmark compares all of them under the same
signal and calibration budget.

Like the paper's rules, each strategy is one row bank: all three are
elementwise recurrences, so a wave of rows updates in one numpy
operation, and the per-session API is row 0 of the same bank — the serve
engine's continuous-batching kernel works for every trigger in the
library, not just the paper's.
"""

from __future__ import annotations

import numpy as np

from repro.core.signals import TRIGGERS
from repro.core.thresholding import DefaultTrigger, check_finite_values
from repro.errors import SafetyError

__all__ = ["CusumTrigger", "EWMATrigger", "HysteresisTrigger"]


@TRIGGERS.register("ewma")
class EWMATrigger(DefaultTrigger):
    """Fire when the exponentially smoothed signal exceeds ``bar``.

    An unseeded row adopts its first value as its level.
    """

    def __init__(self, bar: float, alpha: float = 0.3, capacity: int = 1) -> None:
        if bar < 0:
            raise SafetyError(f"bar must be >= 0, got {bar}")
        if not 0.0 < alpha <= 1.0:
            raise SafetyError(f"alpha must be in (0, 1], got {alpha}")
        self.bar = bar
        self.alpha = alpha
        super().__init__(capacity)

    def _new_rows(self, capacity: int) -> None:
        self._level = np.zeros(capacity, dtype=float)
        self._seen = np.zeros(capacity, dtype=bool)

    def reset_rows(self, rows: np.ndarray) -> None:
        self._level[rows] = 0.0
        self._seen[rows] = False

    @property
    def level(self) -> float:
        """Row 0's smoothed signal level (0 before its first value)."""
        return float(self._level[0])

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold one value per row into the EWMA; fire where level > bar."""
        check_finite_values(values)
        blended = self.alpha * values + (1.0 - self.alpha) * self._level[rows]
        level = np.where(self._seen[rows], blended, values)
        self._level[rows] = level
        self._seen[rows] = True
        return level > self.bar

    def _row_state(self, row: int) -> dict:
        seen = bool(self._seen[row])
        return {"level": float(self._level[row]) if seen else None}

    def _load_row_state(self, row: int, state: dict) -> None:
        level = state["level"]
        self._seen[row] = level is not None
        self._level[row] = 0.0 if level is None else float(level)


@TRIGGERS.register("cusum")
class CusumTrigger(DefaultTrigger):
    """One-sided CUSUM on the signal stream.

    Maintains ``S_t = max(0, S_{t-1} + (x_t - drift))`` and fires when
    ``S_t`` exceeds ``threshold``.  ``drift`` should be set a little above
    the signal's in-distribution mean: in-distribution excursions then
    bleed off, while a persistent OOD elevation accumulates linearly and
    must eventually fire.
    """

    def __init__(self, threshold: float, drift: float, capacity: int = 1) -> None:
        if threshold <= 0:
            raise SafetyError(f"threshold must be positive, got {threshold}")
        if drift < 0:
            raise SafetyError(f"drift must be >= 0, got {drift}")
        self.threshold = threshold
        self.drift = drift
        super().__init__(capacity)

    def _new_rows(self, capacity: int) -> None:
        self._statistic = np.zeros(capacity, dtype=float)

    def reset_rows(self, rows: np.ndarray) -> None:
        self._statistic[rows] = 0.0

    @property
    def statistic(self) -> float:
        """Row 0's accumulated CUSUM statistic."""
        return float(self._statistic[0])

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Accumulate drift-adjusted evidence; fire where S > threshold."""
        check_finite_values(values)
        statistic = np.maximum(0.0, self._statistic[rows] + values - self.drift)
        self._statistic[rows] = statistic
        return statistic > self.threshold

    def _row_state(self, row: int) -> dict:
        return {"statistic": float(self._statistic[row])}

    def _load_row_state(self, row: int, state: dict) -> None:
        self._statistic[row] = float(state["statistic"])


@TRIGGERS.register("hysteresis")
class HysteresisTrigger(DefaultTrigger):
    """Two-bar rule: fire above ``high``, clear only below ``low``.

    Meaningful for controllers with ``allow_revert=True``: a single bar
    makes the controller flap when the signal hovers near it; hysteresis
    requires the signal to genuinely recover before control returns to
    the learned policy.
    """

    def __init__(self, high: float, low: float, capacity: int = 1) -> None:
        if not 0.0 <= low <= high:
            raise SafetyError(
                f"need 0 <= low <= high, got (low={low}, high={high})"
            )
        self.high = high
        self.low = low
        super().__init__(capacity)

    def _new_rows(self, capacity: int) -> None:
        self._active = np.zeros(capacity, dtype=bool)

    def reset_rows(self, rows: np.ndarray) -> None:
        self._active[rows] = False

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Advance the two-bar state machine one value per row: active
        rows stay active unless the value drops below ``low``, idle rows
        activate above ``high``."""
        check_finite_values(values)
        active = np.where(
            self._active[rows], ~(values < self.low), values > self.high
        )
        self._active[rows] = active
        return active

    def _row_state(self, row: int) -> dict:
        return {"active": bool(self._active[row])}

    def _load_row_state(self, row: int, state: dict) -> None:
        self._active[row] = bool(state["active"])
