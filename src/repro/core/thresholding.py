"""Defaulting rules: turning a per-step uncertainty signal into a
switch-to-default decision (Section 2.5 / 3.1).

Two smoothing ideas guard against "premature transitions to the default
policy because of sporadic or noisy data points":

1. windows of the last *k* signal values — the binary ``U_S`` already
   works on windowed samples internally; the continuous ``U_pi``/``U_V``
   use the **variance** of the signal over the last *k* steps,
2. only defaulting when the condition holds *l* consecutive times.

:class:`ConsecutiveTrigger` implements (2) alone for binary signals;
:class:`VarianceTrigger` composes (1) and (2) for continuous signals, with
the variance bar ``alpha`` being the calibrated quantity.

Vectorized banks: every trigger the serve engine runs exposes a
:class:`TriggerTable` (:meth:`DefaultTrigger.make_table`) — the same
decision rule over *rows* of independent sessions, updated with one
vectorized operation per serving wave instead of one Python call per
session.  A table row is bitwise-equivalent to a scalar trigger fed the
same value stream (asserted by ``tests/test_serve_table.py``); the serve
engine's continuous-batching kernel is built on this equivalence.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.signals import TRIGGERS
from repro.errors import SafetyError

__all__ = [
    "ConsecutiveTrigger",
    "ConsecutiveTriggerTable",
    "DefaultTrigger",
    "TriggerTable",
    "VarianceTrigger",
    "VarianceTriggerTable",
    "check_finite_values",
]


class TriggerTable:
    """A bank of independent trigger rows updated by vectorized waves.

    Each row carries the per-session state of one scalar trigger; the
    contract is exact equivalence: for any value stream, a row fed through
    :meth:`update_rows` fires at exactly the steps the corresponding
    scalar :class:`DefaultTrigger` would.  Rows are recycled between
    sessions with :meth:`reset_rows` (the serve engine's slot free-list).
    """

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear per-session state of every row in *rows*."""
        raise NotImplementedError

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold one signal value per row in; return a fired bool array.

        *rows* are distinct row indices and *values* their float64 signal
        measurements for this wave; the result aligns with *rows*.
        """
        raise NotImplementedError

    def recent_values(self, row: int) -> list[float]:
        """The signal values this row currently remembers (oldest first).

        Used by the observability layer to attach the window that led to
        a hand-off; tables without a window report an empty list.
        """
        return []


class DefaultTrigger:
    """Base trigger: consumes the signal stream, answers "default now?"."""

    def reset(self) -> None:
        """Clear per-session state."""

    def update(self, signal_value: float) -> bool:
        """Fold one signal value in; return whether to default at this step."""
        raise NotImplementedError

    def make_table(self, capacity: int) -> TriggerTable | None:
        """A :class:`TriggerTable` of *capacity* rows of this rule.

        Part of the trigger contract: the serve engine folds every wave
        through the table, and rejects a trigger whose table is ``None``
        (this base answer) when it is constructed.  Scalar-only users
        (:class:`~repro.core.monitor.SafetyMonitor`) never call it.
        """
        return None

    def state_dict(self) -> dict:
        """Per-session state as a JSON-able mapping (see
        :meth:`repro.core.signals.UncertaintySignal.state_dict`)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise SafetyError(
                f"{type(self).__name__} is stateless but was asked to "
                f"restore state keys {sorted(state)}"
            )


def check_finite_values(values: np.ndarray, what: str = "signal value") -> None:
    """Raise :class:`SafetyError` naming the first non-finite value.

    The vectorized counterpart of the scalar triggers' per-value check;
    runs *before* any row state is touched so a poisoned wave never
    half-updates the bank.  The ensemble signals run it over their
    input observations (*what* names the values in the message).
    """
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise SafetyError(f"non-finite {what} {bad}")


@TRIGGERS.register("consecutive")
class ConsecutiveTrigger(DefaultTrigger):
    """Fire after *l* consecutive uncertain steps (binary signals).

    The paper's ``U_S`` rule: "when samples are classified as OOD for
    l = 3 consecutive time steps, the system defaults to BB".
    """

    def __init__(self, l: int = 3) -> None:
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.l = l
        self._streak = 0

    def reset(self) -> None:
        self._streak = 0

    def update(self, signal_value: float) -> bool:
        if not math.isfinite(signal_value):
            raise SafetyError(f"non-finite signal value {signal_value}")
        if signal_value > 0:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.l

    def make_table(self, capacity: int) -> "ConsecutiveTriggerTable":
        """A bank of *capacity* independent l-consecutive rows."""
        return ConsecutiveTriggerTable(capacity, l=self.l)

    def state_dict(self) -> dict:
        return {"streak": int(self._streak)}

    def load_state_dict(self, state: dict) -> None:
        self._streak = int(state["streak"])


class ConsecutiveTriggerTable(TriggerTable):
    """Vectorized bank of :class:`ConsecutiveTrigger` rows.

    State per row is one streak counter; a wave update is two elementwise
    operations, exactly reproducing the scalar increment-or-reset rule.
    """

    def __init__(self, capacity: int, l: int = 3) -> None:
        if capacity < 1:
            raise SafetyError(f"capacity must be >= 1, got {capacity}")
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.capacity = capacity
        self.l = l
        self._streak = np.zeros(capacity, dtype=np.int64)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear the streaks of *rows*."""
        self._streak[rows] = 0

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One value per row: streak+1 where value > 0, else reset to 0."""
        check_finite_values(values)
        streak = np.where(values > 0, self._streak[rows] + 1, 0)
        self._streak[rows] = streak
        return streak >= self.l


@TRIGGERS.register("variance")
class VarianceTrigger(DefaultTrigger):
    """Fire when the k-window variance exceeds ``alpha``, *l* times in a row.

    The paper's rule for ``U_pi``/``U_V``: "the system defaults to BB when
    the variance of this value across the last k = 5 time steps exceeds a
    certain threshold alpha for l consecutive times".  ``alpha`` is set by
    calibration (:mod:`repro.core.calibration`).
    """

    def __init__(self, alpha: float, k: int = 5, l: int = 3) -> None:
        if alpha < 0:
            raise SafetyError(f"alpha must be >= 0, got {alpha}")
        if k < 2:
            raise SafetyError(f"k must be >= 2 to define a variance, got {k}")
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.alpha = alpha
        self.k = k
        self.l = l
        self._window: deque[float] = deque(maxlen=k)
        self._streak = 0

    def reset(self) -> None:
        self._window.clear()
        self._streak = 0

    def window_variance(self) -> float:
        """Variance of the current window (0 until the window fills)."""
        if len(self._window) < self.k:
            return 0.0
        return float(np.var(np.asarray(self._window)))

    def update(self, signal_value: float) -> bool:
        if not np.isfinite(signal_value):
            raise SafetyError(f"non-finite signal value {signal_value}")
        self._window.append(float(signal_value))
        if self.window_variance() > self.alpha:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.l

    def make_table(self, capacity: int) -> "VarianceTriggerTable":
        """A bank of *capacity* independent k-window/l-streak rows."""
        return VarianceTriggerTable(capacity, alpha=self.alpha, k=self.k, l=self.l)

    def state_dict(self) -> dict:
        return {
            "window": [float(v) for v in self._window],
            "streak": int(self._streak),
        }

    def load_state_dict(self, state: dict) -> None:
        window = [float(v) for v in state["window"]]
        if len(window) > self.k:
            raise SafetyError(
                f"restored window of {len(window)} exceeds k={self.k}"
            )
        self._window = deque(window, maxlen=self.k)
        self._streak = int(state["streak"])


class VarianceTriggerTable(TriggerTable):
    """Vectorized bank of :class:`VarianceTrigger` rows.

    Each row keeps its k-window as one row of a ``(capacity, k)`` array,
    *shifted* left on every update — not a ring buffer: the rotated
    element order of a ring would change ``np.var``'s summation order
    relative to the scalar trigger's deque and break the bitwise
    contract.  ``np.var(window, axis=1)`` over the full rows is bitwise
    identical to the scalar per-row 1-D ``np.var`` (small fixed k, same
    element order, same pairwise reduction), which is what makes the
    serve engine's batched trigger decisions exact.
    """

    def __init__(self, capacity: int, alpha: float, k: int = 5, l: int = 3) -> None:
        if capacity < 1:
            raise SafetyError(f"capacity must be >= 1, got {capacity}")
        if alpha < 0:
            raise SafetyError(f"alpha must be >= 0, got {alpha}")
        if k < 2:
            raise SafetyError(f"k must be >= 2 to define a variance, got {k}")
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.capacity = capacity
        self.alpha = alpha
        self.k = k
        self.l = l
        self._window = np.zeros((capacity, k), dtype=float)
        self._count = np.zeros(capacity, dtype=np.int64)
        self._streak = np.zeros(capacity, dtype=np.int64)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear the windows and streaks of *rows*."""
        self._window[rows] = 0.0
        self._count[rows] = 0
        self._streak[rows] = 0

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Shift one value into each row's window; fire on variance > alpha
        sustained for l waves, exactly like the scalar rule."""
        check_finite_values(values)
        window = self._window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = values
        self._window[rows] = window
        count = np.minimum(self._count[rows] + 1, self.k)
        self._count[rows] = count
        # Variance is defined (and compared) only once a window is full;
        # until then the scalar trigger reports 0.0, which never exceeds
        # a non-negative alpha.
        over = np.zeros(len(rows), dtype=bool)
        full = count >= self.k
        if np.any(full):
            over[full] = np.var(window[full], axis=1) > self.alpha
        streak = np.where(over, self._streak[rows] + 1, 0)
        self._streak[rows] = streak
        return streak >= self.l

    def recent_values(self, row: int) -> list[float]:
        """The row's current window contents, oldest first."""
        count = int(self._count[row])
        if count == 0:
            return []
        return [float(v) for v in self._window[row, self.k - count :]]
