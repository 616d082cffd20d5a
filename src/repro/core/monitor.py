"""The streaming safety monitor: OSAP as a step-stream state machine.

This module is the single home of the paper's online decision rule.
:class:`MonitorTable` is the one implementation of the mode fold: rows
of sessions, each folding a measured signal value into its trigger row
and tracking the default/recover mode and step counters, one vectorized
operation per wave.  :class:`SafetyMonitor` is the per-session form — a
signal plus a one-row table: it consumes one observation per decision
step (:meth:`~SafetyMonitor.observe`) and answers with a
:class:`MonitorDecision` without knowing anything about policies,
environments, or sessions.  Because its full state (signal windows,
trigger counters, mode, step counters) is serializable
(:meth:`~SafetyMonitor.state_dict` /
:meth:`~SafetyMonitor.load_state_dict`), a monitored session can be
suspended, shipped to another worker, and resumed with bitwise-identical
subsequent decisions.

:class:`SafetyController` is the policy-facing adapter: the same object
the paper calls the safety-enhanced agent — ``learned`` inside its
comfort zone, ``default`` outside — now a thin wrapper that lets the
monitor decide and the chosen policy act.

The telemetry layer rides on top: :class:`SignalRecorder` logs per-step
signal values, :class:`MonitoredController` keeps a full decision log,
and :func:`explain_default` renders the moments around a hand-off.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import DefaultTrigger
from repro.errors import SafetyError
from repro.mdp.interfaces import Policy
from repro.perf import fast_paths_enabled
from repro.util.tables import render_table

__all__ = [
    "DecisionRecord",
    "MonitorDecision",
    "MonitorTable",
    "MonitoredController",
    "SafetyController",
    "SafetyMonitor",
    "SignalRecorder",
    "explain_default",
]

#: Schema version of the monitor state mapping (bump on layout changes).
_STATE_VERSION = 1

#: The row a :class:`SafetyMonitor` keeps in its one-row table.
_ROW0 = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class MonitorDecision:
    """What the monitor concluded about one decision step."""

    #: 0-based decision index within the session.
    step: int
    #: The measured signal value; NaN when the sticky fast path skipped
    #: measuring (the value could not change this session's decisions).
    signal_value: float
    #: Whether the trigger fired at this step.
    fired: bool
    #: The mode after folding this step in: decide with the default policy?
    defaulted: bool
    #: True exactly at the learned-to-default hand-off step.
    handoff: bool
    #: True exactly at a default-to-learned recovery step (revertible
    #: monitors only).
    recovered: bool

    @property
    def mode(self) -> str:
        """``"default"`` or ``"learned"`` — who decides this step."""
        return "default" if self.defaulted else "learned"


class SafetyMonitor:
    """The OSAP decision rule over a step stream, free of any domain.

    Feed it one observation per decision step; it measures the
    uncertainty signal and folds the value into a one-row
    :class:`MonitorTable` whose trigger bank *is* :attr:`trigger`, so a
    single session and the serve kernel's rows run the same fold.  By
    default the hand-off is *sticky* for the rest of the session,
    matching the paper's "defaulting" language (the enhanced system
    "defaults to BB"); ``allow_revert=True`` switches back as soon as the
    trigger stops firing, for the extension experiments.
    """

    def __init__(
        self,
        signal: UncertaintySignal,
        trigger: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "monitor",
    ) -> None:
        self.signal = signal
        self._table = MonitorTable(1, trigger, allow_revert=allow_revert, name=name)
        self._last_decision: MonitorDecision | None = None

    @property
    def trigger(self) -> DefaultTrigger:
        """The defaulting rule; this monitor's state is its row 0."""
        return self._table.trigger_table

    @property
    def allow_revert(self) -> bool:
        return self._table.allow_revert

    @property
    def name(self) -> str:
        return self._table.name

    @name.setter
    def name(self, value: str) -> None:
        self._table.name = value

    def reset(self) -> None:
        """Reset the signal, the trigger, and all session state."""
        self.signal.reset()
        self._table.admit(0)
        self._last_decision = None

    @property
    def defaulted(self) -> bool:
        """Current mode: is the default policy deciding?"""
        return bool(self._table.defaulted[0])

    #: The mode the latest decision was made in (the current mode).
    last_decision_defaulted = defaulted

    @property
    def total_steps(self) -> int:
        """Decisions made this session."""
        return int(self._table.total_steps[0])

    @property
    def default_steps(self) -> int:
        """Decisions made in default mode this session."""
        return int(self._table.default_steps[0])

    @property
    def last_decision(self) -> MonitorDecision | None:
        """The most recent decision, or ``None`` before the first step."""
        return self._last_decision

    @property
    def default_fraction(self) -> float:
        """Fraction of this session's decisions made in default mode."""
        return self._table.default_fraction(0)

    def will_measure(self) -> bool:
        """Whether the next :meth:`observe` call will measure the signal.

        False only on the sticky fast path: once defaulted without
        revert, the signal can never change another decision this
        session, so measuring is skipped while fast paths are on.  The
        serve engine uses this to exclude settled sessions from its
        batched forwards.
        """
        return not (
            self.defaulted and not self.allow_revert and fast_paths_enabled()
        )

    def observe(self, observation: np.ndarray) -> MonitorDecision:
        """Fold one decision step in and say who should decide it."""
        table = self._table
        if self.will_measure():
            value = float(self.signal.measure(observation))
            was = self.defaulted
            now = bool(table.observe_measured(_ROW0, np.array([value]))[0])
            fired = bool(table.fired[0])
        else:
            # Sticky hand-off: the signal can never change another decision
            # this session, so skip measuring it.  QoE and default_fraction
            # are untouched; only the (reset-per-session) signal/trigger
            # internals stop advancing.
            table.observe_sticky(_ROW0)
            value = float("nan")
            was = now = True
            fired = False
        decision = MonitorDecision(
            step=self.total_steps - 1,
            signal_value=value,
            fired=fired,
            defaulted=now,
            handoff=now and not was,
            recovered=was and not now,
        )
        self._last_decision = decision
        return decision

    def fork(self) -> "SafetyMonitor":
        """A fresh monitor over this monitor's scheme, with no session state.

        The signal is shared when stateless (one ensemble in memory can
        answer any number of concurrent sessions) and deep-copied
        otherwise, so each stateful session keeps its own rolling
        windows; the trigger is a fresh one-row bank of the same rule.
        This is how the serve engine and the service layer mint
        per-session monitors from one configured prototype.
        """
        signal = self.signal if self.signal.stateless else copy.deepcopy(self.signal)
        return SafetyMonitor(
            signal,
            self.trigger.make_table(1),
            allow_revert=self.allow_revert,
            name=self.name,
        )

    def state_dict(self) -> dict:
        """The monitor's full session state as a JSON-able mapping.

        Covers the mode, the step counters, and the signal's and
        trigger's rolling windows — everything needed so that a restored
        monitor produces bitwise-identical decisions on the same
        observation tail.
        """
        return {
            "version": _STATE_VERSION,
            "name": self.name,
            "allow_revert": bool(self.allow_revert),
            "defaulted": self.defaulted,
            "last_decision_defaulted": self.defaulted,
            "default_steps": self.default_steps,
            "total_steps": self.total_steps,
            "signal": self.signal.state_dict(),
            "trigger": self.trigger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore session state captured by :meth:`state_dict`.

        The monitor must already be built with the same signal/trigger
        configuration; only *session* state travels in the mapping.
        """
        version = state.get("version")
        if version != _STATE_VERSION:
            raise SafetyError(
                f"monitor state version {version!r} is not {_STATE_VERSION}"
            )
        if bool(state["allow_revert"]) != bool(self.allow_revert):
            raise SafetyError(
                "cannot restore state captured with "
                f"allow_revert={state['allow_revert']} into a monitor with "
                f"allow_revert={self.allow_revert}"
            )
        table = self._table
        table.defaulted[0] = bool(state["defaulted"])
        table.default_steps[0] = int(state["default_steps"])
        table.total_steps[0] = int(state["total_steps"])
        self.signal.load_state_dict(state["signal"])
        self.trigger.load_state_dict(state["trigger"])
        self._last_decision = None


class MonitorTable:
    """A vectorized bank of monitor phases: OSAP over rows, not objects.

    One *row* of monitor state per session — mode, step counters, the
    trigger's latest answer, and the trigger's own per-row state (row
    *i* of *trigger_table*, a :class:`~repro.core.thresholding.DefaultTrigger`
    bank) — folded with a handful of array operations per wave.  The
    serve engine's continuous-batching kernel keeps one row per live
    session slot; :class:`SafetyMonitor` is a one-row table.
    Observability output is aggregated counters plus per-row signal
    samples and hand-off events when collection is on.

    The bank does not measure signals itself — callers batch the
    measurements (that is the point) and hand the values to
    :meth:`observe_measured`; rows on the sticky fast path are advanced
    through :meth:`observe_sticky` without values.
    """

    def __init__(
        self,
        capacity: int,
        trigger_table: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "monitor",
    ) -> None:
        if capacity < 1:
            raise SafetyError(f"capacity must be >= 1, got {capacity}")
        if trigger_table.capacity < capacity:
            raise SafetyError(
                f"trigger bank has {trigger_table.capacity} rows,"
                f" fewer than capacity={capacity}"
            )
        self.capacity = capacity
        self.trigger_table = trigger_table
        self.allow_revert = allow_revert
        self.name = name
        self.defaulted = np.zeros(capacity, dtype=bool)
        #: Whether the trigger fired at each row's latest measured step.
        self.fired = np.zeros(capacity, dtype=bool)
        self.total_steps = np.zeros(capacity, dtype=np.int64)
        self.default_steps = np.zeros(capacity, dtype=np.int64)

    def admit(self, row: int) -> None:
        """Reset *row* for a fresh session (mode, counters, trigger)."""
        self.defaulted[row] = False
        self.fired[row] = False
        self.total_steps[row] = 0
        self.default_steps[row] = 0
        self.trigger_table.reset_rows(np.array([row]))

    def sticky_rows(self, rows: np.ndarray) -> np.ndarray:
        """Of *rows*, those whose next step skips measuring.

        The vectorized form of ``not SafetyMonitor.will_measure()``:
        defaulted rows of a non-revertible bank are settled for the rest
        of their session.  (The global fast-path switch is not consulted;
        callers serving with fast paths off keep measuring such rows.)
        """
        if self.allow_revert:
            return rows[:0]
        return rows[self.defaulted[rows]]

    def observe_sticky(self, rows: np.ndarray, waves: int = 1) -> None:
        """Advance settled rows *waves* steps without measuring.

        Both counters advance and the per-decision counter records
        default-mode decisions.  A settled row's bookkeeping is the same
        every wave, so the engine batches several waves of it into one
        call; the end-of-session counters and aggregate metrics are
        identical to crediting each wave individually.
        """
        self.total_steps[rows] += waves
        self.default_steps[rows] += waves
        obs.inc(
            "controller.decisions",
            amount=float(len(rows) * waves),
            controller=self.name,
            mode="default",
        )

    def observe_measured(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold one measured signal value per row; returns the new
        per-row defaulted mask (aligned with *rows*).

        Trigger rows update first, then ``defaulted`` becomes ``fired``
        (revertible) or ``defaulted | fired`` (sticky), and the counters
        advance.
        """
        fired = self.trigger_table.update_rows(rows, values)
        self.fired[rows] = fired
        was = self.defaulted[rows]
        if self.allow_revert:
            now = fired
        else:
            now = was | fired
        self.defaulted[rows] = now
        self.total_steps[rows] += 1
        self.default_steps[rows] += now
        if obs.enabled():
            self._observe_rows(rows, values, was, now)
        return now

    def default_fraction(self, row: int) -> float:
        """Fraction of *row*'s session decided in default mode."""
        total = int(self.total_steps[row])
        if total == 0:
            return 0.0
        return int(self.default_steps[row]) / total

    def _observe_rows(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        was: np.ndarray,
        now: np.ndarray,
    ) -> None:
        """Emit per-row signal samples, per-mode decision counts
        (aggregated), and hand-off/recover events; a hand-off carries
        the trigger row's window of signal values, or just the value
        for rules that keep no window."""
        defaults = int(np.count_nonzero(now))
        if defaults:
            obs.inc(
                "controller.decisions",
                amount=float(defaults),
                controller=self.name,
                mode="default",
            )
        if defaults < len(rows):
            obs.inc(
                "controller.decisions",
                amount=float(len(rows) - defaults),
                controller=self.name,
                mode="learned",
            )
        for position, row in enumerate(rows.tolist()):
            value = float(values[position])
            obs.observe("controller.signal", value, controller=self.name)
            if now[position] and not was[position]:
                obs.event(
                    "controller.default",
                    controller=self.name,
                    step=int(self.total_steps[row]),
                    signal=value,
                    window=self.trigger_table.recent_values(row) or [value],
                )
            elif was[position] and not now[position]:
                obs.event(
                    "controller.recover",
                    controller=self.name,
                    step=int(self.total_steps[row]),
                    signal=value,
                )


class SafetyController:
    """A policy that is ``learned`` inside its comfort zone, ``default``
    outside — the monitor decides, the chosen policy acts."""

    def __init__(
        self,
        learned: Policy,
        default: Policy,
        signal: UncertaintySignal,
        trigger: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "safe",
    ) -> None:
        if learned is default:
            raise SafetyError("learned and default policies must be distinct")
        self.learned = learned
        self.default = default
        self.monitor = SafetyMonitor(
            signal, trigger, allow_revert=allow_revert, name=name
        )

    # The monitor owns every piece of OSAP bookkeeping; these delegating
    # accessors keep the controller's historical surface intact.
    @property
    def signal(self) -> UncertaintySignal:
        return self.monitor.signal

    @property
    def trigger(self) -> DefaultTrigger:
        return self.monitor.trigger

    @property
    def allow_revert(self) -> bool:
        return self.monitor.allow_revert

    @property
    def name(self) -> str:
        return self.monitor.name

    @name.setter
    def name(self, value: str) -> None:
        self.monitor.name = value

    @property
    def _defaulted(self) -> bool:
        return self.monitor.defaulted

    @property
    def last_decision_defaulted(self) -> bool:
        return self.monitor.last_decision_defaulted

    @property
    def default_steps(self) -> int:
        return self.monitor.default_steps

    @property
    def total_steps(self) -> int:
        return self.monitor.total_steps

    @property
    def default_fraction(self) -> float:
        """Fraction of this session's decisions made by the default policy."""
        return self.monitor.default_fraction

    def reset(self) -> None:
        """Reset the wrapped policies and the monitor."""
        self.learned.reset()
        self.default.reset()
        self.monitor.reset()

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        """One decision: measure uncertainty, maybe default, then act."""
        decision = self.monitor.observe(observation)
        policy = self.default if decision.defaulted else self.learned
        return policy.act(observation, rng)

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """The active policy's action distribution.

        Reads the monitor's current mode without advancing the signal —
        only :meth:`act` consumes a decision step, so rollout bookkeeping
        that inspects probabilities does not double-count.
        """
        policy = self.default if self.monitor.defaulted else self.learned
        return policy.action_probabilities(observation)


@dataclass(frozen=True)
class DecisionRecord:
    """One decision step as the safety controller saw it."""

    step: int
    signal_value: float
    trigger_fired: bool
    defaulted: bool
    action: int


class SignalRecorder(UncertaintySignal):
    """A pass-through wrapper that logs every signal value."""

    def __init__(self, inner: UncertaintySignal) -> None:
        self.inner = inner
        self.binary = inner.binary
        self.values: list[float] = []

    def reset(self) -> None:
        self.inner.reset()
        self.values.clear()

    def measure(self, observation: np.ndarray) -> float:
        value = self.inner.measure(observation)
        self.values.append(float(value))
        return value

    def state_dict(self) -> dict:
        return {
            "inner": self.inner.state_dict(),
            "values": [float(v) for v in self.values],
        }

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state["inner"])
        self.values = [float(v) for v in state["values"]]


class MonitoredController(SafetyController):
    """A :class:`SafetyController` that keeps a per-decision log."""

    def __init__(
        self,
        learned: Policy,
        default: Policy,
        signal: UncertaintySignal,
        trigger: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "monitored",
    ) -> None:
        recorder = SignalRecorder(signal)
        super().__init__(
            learned=learned,
            default=default,
            signal=recorder,
            trigger=trigger,
            allow_revert=allow_revert,
            name=name,
        )
        self.recorder = recorder
        self.log: list[DecisionRecord] = []

    def reset(self) -> None:
        super().reset()
        self.log = []

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        was_defaulted = self._defaulted
        action = super().act(observation, rng)
        self.log.append(
            DecisionRecord(
                step=self.total_steps - 1,
                signal_value=self.recorder.values[-1],
                trigger_fired=self._defaulted and not was_defaulted,
                defaulted=self.last_decision_defaulted,
                action=action,
            )
        )
        return action

    @property
    def handoff_step(self) -> int | None:
        """The decision index at which control first moved to the default
        policy, or ``None`` if it never did."""
        for record in self.log:
            if record.defaulted:
                return record.step
        return None


def explain_default(
    controller: MonitoredController, context_steps: int = 5
) -> str:
    """Render the decisions around the hand-off as a monospace table.

    Raises :class:`SafetyError` when the controller never defaulted
    (there is nothing to explain).
    """
    handoff = controller.handoff_step
    if handoff is None:
        raise SafetyError("controller never defaulted in this session")
    start = max(handoff - context_steps, 0)
    end = min(handoff + context_steps + 1, len(controller.log))
    rows = []
    for record in controller.log[start:end]:
        marker = "<< hand-off" if record.step == handoff else ""
        rows.append(
            [
                record.step,
                round(record.signal_value, 5),
                "yes" if record.defaulted else "no",
                record.action,
                marker,
            ]
        )
    header = (
        f"defaulted at decision {handoff} "
        f"(of {len(controller.log)}; "
        f"{controller.default_fraction:.0%} of session under default)\n"
    )
    return header + render_table(
        ["step", "signal", "defaulted", "action", ""], rows
    )
