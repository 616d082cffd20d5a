"""Plain-Python reference state machines for the defaulting rules.

The library implements each rule once, as a vectorized row bank
(:mod:`repro.core.thresholding`, :mod:`repro.core.strategies`), and the
monitor's mode fold once, as :class:`repro.core.monitor.MonitorTable`.
These oracles restate each rule the straightforward way — one session,
Python scalars, a deque for the variance window — so the tests can check
the banks against an independent reading of the paper's rules rather
than against themselves.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class ConsecutiveOracle:
    """Fire after *l* consecutive positive values."""

    def __init__(self, l: int = 3) -> None:
        self.l = l
        self.streak = 0

    def reset(self) -> None:
        self.streak = 0

    def update(self, value: float) -> bool:
        self.streak = self.streak + 1 if value > 0 else 0
        return self.streak >= self.l


class VarianceOracle:
    """Fire when the full k-window's variance exceeds alpha l times running."""

    def __init__(self, alpha: float, k: int = 5, l: int = 3) -> None:
        self.alpha = alpha
        self.k = k
        self.l = l
        self.window: deque[float] = deque(maxlen=k)
        self.streak = 0

    def reset(self) -> None:
        self.window.clear()
        self.streak = 0

    def window_variance(self) -> float:
        if len(self.window) < self.k:
            return 0.0
        return float(np.var(np.asarray(self.window)))

    def update(self, value: float) -> bool:
        self.window.append(float(value))
        self.streak = self.streak + 1 if self.window_variance() > self.alpha else 0
        return self.streak >= self.l


class EWMAOracle:
    """Fire when the exponentially smoothed value exceeds ``bar``."""

    def __init__(self, bar: float, alpha: float = 0.3) -> None:
        self.bar = bar
        self.alpha = alpha
        self.level: float | None = None

    def reset(self) -> None:
        self.level = None

    def update(self, value: float) -> bool:
        if self.level is None:
            self.level = float(value)
        else:
            self.level = self.alpha * float(value) + (1.0 - self.alpha) * self.level
        return self.level > self.bar


class CusumOracle:
    """One-sided CUSUM: ``S = max(0, S + x - drift)``, fire above threshold."""

    def __init__(self, threshold: float, drift: float) -> None:
        self.threshold = threshold
        self.drift = drift
        self.statistic = 0.0

    def reset(self) -> None:
        self.statistic = 0.0

    def update(self, value: float) -> bool:
        self.statistic = max(0.0, self.statistic + float(value) - self.drift)
        return self.statistic > self.threshold


class HysteresisOracle:
    """Fire above ``high``; once active, clear only below ``low``."""

    def __init__(self, high: float, low: float) -> None:
        self.high = high
        self.low = low
        self.active = False

    def reset(self) -> None:
        self.active = False

    def update(self, value: float) -> bool:
        if self.active:
            if value < self.low:
                self.active = False
        elif value > self.high:
            self.active = True
        return self.active


class MonitorOracle:
    """One session's mode fold over a trigger oracle.

    Sticky monitors default for good once the trigger fires; revertible
    ones follow the trigger.  Settled sticky steps skip the trigger.
    """

    def __init__(self, trigger, allow_revert: bool = False) -> None:
        self.trigger = trigger
        self.allow_revert = allow_revert
        self.reset()

    def reset(self) -> None:
        self.trigger.reset()
        self.defaulted = False
        self.total_steps = 0
        self.default_steps = 0

    @property
    def settled(self) -> bool:
        return self.defaulted and not self.allow_revert

    def observe(self, value: float) -> bool:
        if not self.settled:
            fired = self.trigger.update(value)
            self.defaulted = fired if self.allow_revert else fired or self.defaulted
        self.total_steps += 1
        self.default_steps += int(self.defaulted)
        return self.defaulted

    @property
    def default_fraction(self) -> float:
        if self.total_steps == 0:
            return 0.0
        return self.default_steps / self.total_steps
