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

Every rule has exactly one implementation: a bank of *capacity*
independent rows (one per session) that :meth:`DefaultTrigger.update_rows`
advances with one vectorized operation per serving wave.  A trigger built
with the default ``capacity=1`` is the per-session form the serial runner,
the service and calibration use: :meth:`DefaultTrigger.update`,
:meth:`~DefaultTrigger.reset` and the ``state_dict`` pair read and write
row 0 of that same bank, so the serve kernel (which folds waves through
:meth:`DefaultTrigger.make_table`) and a single session decide alike by
construction.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.signals import TRIGGERS
from repro.errors import SafetyError

__all__ = [
    "ConsecutiveTrigger",
    "DefaultTrigger",
    "VarianceTrigger",
    "check_finite_values",
]

#: The row the per-session API reads and writes.
_ROW0 = np.zeros(1, dtype=np.intp)


class DefaultTrigger:
    """Base trigger: consumes signal streams, answers "default now?".

    A trigger holds *capacity* rows of per-session state.  Subclasses
    implement the row bank — :meth:`update_rows`, :meth:`reset_rows`,
    :meth:`_new_rows` and the row-state pair :meth:`_row_state` /
    :meth:`_load_row_state` — and inherit the per-session API, which is
    row 0 of the bank.
    """

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise SafetyError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._new_rows(capacity)

    def _new_rows(self, capacity: int) -> None:
        """Allocate *capacity* cleared rows of per-session state."""

    def make_table(self, capacity: int) -> "DefaultTrigger":
        """This rule with the same parameters over *capacity* fresh rows."""
        table = copy.copy(self)
        DefaultTrigger.__init__(table, capacity)
        return table

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear per-session state of every row in *rows*."""

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold one signal value per row in; return a fired bool array.

        *rows* are distinct row indices and *values* their float64 signal
        measurements for this wave; the result aligns with *rows*.
        """
        raise NotImplementedError

    def recent_values(self, row: int) -> list[float]:
        """The signal values this row currently remembers (oldest first).

        Used by the observability layer to attach the window that led to
        a hand-off; rules without a window report an empty list.
        """
        return []

    def _row_state(self, row: int) -> dict:
        """*row*'s state as a JSON-able mapping."""
        return {}

    def _load_row_state(self, row: int, state: dict) -> None:
        """Restore *row* from a mapping built by :meth:`_row_state`."""
        if state:
            raise SafetyError(
                f"{type(self).__name__} is stateless but was asked to "
                f"restore state keys {sorted(state)}"
            )

    def reset(self) -> None:
        """Clear row 0 (the per-session state)."""
        self.reset_rows(_ROW0)

    def update(self, signal_value: float) -> bool:
        """Fold one signal value into row 0; return whether to default."""
        values = np.array([signal_value], dtype=float)
        return bool(self.update_rows(_ROW0, values)[0])

    def state_dict(self) -> dict:
        """Row 0's state as a JSON-able mapping (see
        :meth:`repro.core.signals.UncertaintySignal.state_dict`)."""
        return self._row_state(0)

    def load_state_dict(self, state: dict) -> None:
        """Restore row 0 from a mapping captured by :meth:`state_dict`."""
        self._load_row_state(0, state)


def check_finite_values(values: np.ndarray, what: str = "signal value") -> None:
    """Raise :class:`SafetyError` naming the first non-finite value.

    Runs *before* any row state is touched so a poisoned wave never
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
    l = 3 consecutive time steps, the system defaults to BB".  State per
    row is one streak counter.
    """

    def __init__(self, l: int = 3, capacity: int = 1) -> None:
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.l = l
        super().__init__(capacity)

    def _new_rows(self, capacity: int) -> None:
        self._streak = np.zeros(capacity, dtype=np.int64)

    def reset_rows(self, rows: np.ndarray) -> None:
        self._streak[rows] = 0

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """streak+1 where value > 0, else reset to 0; fire at l."""
        check_finite_values(values)
        streak = np.where(values > 0, self._streak[rows] + 1, 0)
        self._streak[rows] = streak
        return streak >= self.l

    def _row_state(self, row: int) -> dict:
        return {"streak": int(self._streak[row])}

    def _load_row_state(self, row: int, state: dict) -> None:
        self._streak[row] = int(state["streak"])


@TRIGGERS.register("variance")
class VarianceTrigger(DefaultTrigger):
    """Fire when the k-window variance exceeds ``alpha``, *l* times in a row.

    The paper's rule for ``U_pi``/``U_V``: "the system defaults to BB when
    the variance of this value across the last k = 5 time steps exceeds a
    certain threshold alpha for l consecutive times".  ``alpha`` is set by
    calibration (:mod:`repro.core.calibration`).

    Each row keeps its k-window as one row of a ``(capacity, k)`` array,
    *shifted* left on every update — not a ring buffer, so the window is
    always stored oldest first and ``np.var`` sums it in arrival order
    whichever rows a wave holds.  Slots no value has reached yet hold NaN
    (signal values are checked finite, so NaN marks nothing else).
    """

    def __init__(
        self, alpha: float, k: int = 5, l: int = 3, capacity: int = 1
    ) -> None:
        if alpha < 0:
            raise SafetyError(f"alpha must be >= 0, got {alpha}")
        if k < 2:
            raise SafetyError(f"k must be >= 2 to define a variance, got {k}")
        if l < 1:
            raise SafetyError(f"l must be >= 1, got {l}")
        self.alpha = alpha
        self.k = k
        self.l = l
        super().__init__(capacity)

    def _new_rows(self, capacity: int) -> None:
        self._window = np.full((capacity, self.k), np.nan)
        self._streak = np.zeros(capacity, dtype=np.int64)

    def reset_rows(self, rows: np.ndarray) -> None:
        self._window[rows] = np.nan
        self._streak[rows] = 0

    def window_variance(self) -> float:
        """Variance of row 0's window (0 until the window fills)."""
        window = self._window[0]
        if np.isnan(window[0]):
            return 0.0
        return float(np.var(window))

    def update_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Shift one value into each row's window; fire on variance > alpha
        sustained for l updates."""
        check_finite_values(values)
        window = self._window[rows]
        window[:, :-1] = window[:, 1:]
        window[:, -1] = values
        self._window[rows] = window
        # A window that is not full yet holds NaN, so its variance is NaN
        # and never exceeds alpha.  Each row reduces on its own, so a full
        # row's variance does not depend on the other rows of the wave.
        over = window.var(axis=1) > self.alpha
        streak = np.where(over, self._streak[rows] + 1, 0)
        self._streak[rows] = streak
        return streak >= self.l

    def recent_values(self, row: int) -> list[float]:
        """The row's current window contents, oldest first."""
        window = self._window[row]
        return [float(v) for v in window[~np.isnan(window)]]

    def _row_state(self, row: int) -> dict:
        return {
            "window": self.recent_values(row),
            "streak": int(self._streak[row]),
        }

    def _load_row_state(self, row: int, state: dict) -> None:
        window = [float(v) for v in state["window"]]
        if len(window) > self.k:
            raise SafetyError(
                f"restored window of {len(window)} exceeds k={self.k}"
            )
        self._window[row] = np.nan
        self._window[row, self.k - len(window) :] = window
        self._streak[row] = int(state["streak"])
