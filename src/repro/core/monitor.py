"""The streaming safety monitor: OSAP as a step-stream state machine.

This module is the single home of the paper's online decision rule.
:class:`SafetyMonitor` consumes one observation per decision step
(:meth:`~SafetyMonitor.observe`) and answers with a
:class:`MonitorDecision` — measure the uncertainty signal, fold it into
the trigger, and track the default/recover mode — without knowing
anything about policies, environments, or sessions.  Because its full
state (signal windows, trigger counters, mode, step counters) is
serializable (:meth:`~SafetyMonitor.state_dict` /
:meth:`~SafetyMonitor.load_state_dict`), a monitored session can be
suspended, shipped to another worker, and resumed with bitwise-identical
subsequent decisions.

:class:`SafetyController` is the policy-facing adapter: the same object
the paper calls the safety-enhanced agent — ``learned`` inside its
comfort zone, ``default`` outside — now a thin wrapper that lets the
monitor decide and the chosen policy act.  (It is re-exported from
:mod:`repro.core.controller` for backward compatibility; the bookkeeping
lives only here.)

The telemetry layer rides on top: :class:`SignalRecorder` logs per-step
signal values, :class:`MonitoredController` keeps a full decision log,
and :func:`explain_default` renders the moments around a hand-off.
"""

from __future__ import annotations

import copy
from collections import deque
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
    uncertainty signal, updates the trigger, and tracks whether the
    system should be deciding with the default policy.  By default the
    hand-off is *sticky* for the rest of the session, matching the
    paper's "defaulting" language (the enhanced system "defaults to
    BB"); ``allow_revert=True`` switches back as soon as the trigger
    stops firing, for the extension experiments.
    """

    def __init__(
        self,
        signal: UncertaintySignal,
        trigger: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "monitor",
    ) -> None:
        self.signal = signal
        self.trigger = trigger
        self.allow_revert = allow_revert
        self.name = name
        self._defaulted = False
        self.last_decision_defaulted = False
        self.default_steps = 0
        self.total_steps = 0
        self._last_decision: MonitorDecision | None = None
        # Recent signal values for the observability default-event; only
        # materialized while metric collection is on.
        self._recent_signals: deque[float] | None = None

    def reset(self) -> None:
        """Reset the signal, the trigger, and all session state."""
        self.signal.reset()
        self.trigger.reset()
        self._defaulted = False
        self.last_decision_defaulted = False
        self.default_steps = 0
        self.total_steps = 0
        self._last_decision = None
        self._recent_signals = None

    @property
    def defaulted(self) -> bool:
        """Current mode: is the default policy deciding?"""
        return self._defaulted

    @property
    def last_decision(self) -> MonitorDecision | None:
        """The most recent decision, or ``None`` before the first step."""
        return self._last_decision

    @property
    def default_fraction(self) -> float:
        """Fraction of this session's decisions made in default mode."""
        if self.total_steps == 0:
            return 0.0
        return self.default_steps / self.total_steps

    def will_measure(self) -> bool:
        """Whether the next :meth:`observe` call will measure the signal.

        False only on the sticky fast path: once defaulted without
        revert, the signal can never change another decision this
        session, so measuring is skipped while fast paths are on.  The
        serve engine uses this to exclude settled sessions from its
        batched forwards.
        """
        return not (
            self._defaulted and not self.allow_revert and fast_paths_enabled()
        )

    def observe(
        self, observation: np.ndarray, signal_value: float | None = None
    ) -> MonitorDecision:
        """Fold one decision step in and say who should decide it.

        *signal_value*, when given, is used instead of measuring the
        signal — for callers that computed the identical value through
        another path (the table-equivalence tests feed value streams this
        way).  Only valid for stateless signals: a stateful signal
        skipped this way would desynchronize from the stream.
        """
        if not self.will_measure():
            # Sticky hand-off: the signal can never change another decision
            # this session, so skip measuring it.  QoE and default_fraction
            # are untouched; only the (reset-per-session) signal/trigger
            # internals stop advancing.
            self.last_decision_defaulted = True
            self.total_steps += 1
            self.default_steps += 1
            obs.inc("controller.decisions", controller=self.name, mode="default")
            decision = MonitorDecision(
                step=self.total_steps - 1,
                signal_value=float("nan"),
                fired=False,
                defaulted=True,
                handoff=False,
                recovered=False,
            )
            self._last_decision = decision
            return decision
        if signal_value is None:
            value = self.signal.measure(observation)
        else:
            value = float(signal_value)
        fired = self.trigger.update(value)
        was_defaulted = self._defaulted
        if self.allow_revert:
            self._defaulted = fired
        else:
            self._defaulted = self._defaulted or fired
        self.last_decision_defaulted = self._defaulted
        self.total_steps += 1
        if self._defaulted:
            self.default_steps += 1
        if obs.enabled():
            self._observe_decision(value, was_defaulted)
        decision = MonitorDecision(
            step=self.total_steps - 1,
            signal_value=float(value),
            fired=bool(fired),
            defaulted=self._defaulted,
            handoff=self._defaulted and not was_defaulted,
            recovered=was_defaulted and not self._defaulted,
        )
        self._last_decision = decision
        return decision

    def _observe_decision(self, value: float, was_defaulted: bool) -> None:
        """Record this decision's signal and mode, plus hand-off events
        carrying the window of signal values that led to them.  Only
        called while collection is on; never touches control flow."""
        if self._recent_signals is None:
            window = max(int(getattr(self.trigger, "k", 1)), 1)
            self._recent_signals = deque(maxlen=window)
        self._recent_signals.append(float(value))
        obs.observe("controller.signal", float(value), controller=self.name)
        obs.inc(
            "controller.decisions",
            controller=self.name,
            mode="default" if self._defaulted else "learned",
        )
        if self._defaulted and not was_defaulted:
            obs.event(
                "controller.default",
                controller=self.name,
                step=self.total_steps,
                signal=float(value),
                window=list(self._recent_signals),
            )
        elif was_defaulted and not self._defaulted:
            obs.event(
                "controller.recover",
                controller=self.name,
                step=self.total_steps,
                signal=float(value),
            )

    def fork(self) -> "SafetyMonitor":
        """A fresh monitor over this monitor's scheme, with no session state.

        The signal is shared when stateless (one ensemble in memory can
        answer any number of concurrent sessions) and deep-copied
        otherwise, so each stateful session keeps its own rolling
        windows; the trigger is always deep-copied.  This is how the
        serve engine and the service layer mint per-session monitors
        from one configured prototype.
        """
        signal = self.signal if self.signal.stateless else copy.deepcopy(self.signal)
        return SafetyMonitor(
            signal,
            copy.deepcopy(self.trigger),
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
            "defaulted": bool(self._defaulted),
            "last_decision_defaulted": bool(self.last_decision_defaulted),
            "default_steps": int(self.default_steps),
            "total_steps": int(self.total_steps),
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
        self._defaulted = bool(state["defaulted"])
        self.last_decision_defaulted = bool(state["last_decision_defaulted"])
        self.default_steps = int(state["default_steps"])
        self.total_steps = int(state["total_steps"])
        self.signal.load_state_dict(state["signal"])
        self.trigger.load_state_dict(state["trigger"])
        self._last_decision = None
        self._recent_signals = None


class MonitorTable:
    """A vectorized bank of monitor phases: OSAP over rows, not objects.

    The serve engine's continuous-batching kernel keeps one *row* of
    monitor state per live session slot — mode, step counters, and the
    trigger's per-row state (a
    :class:`~repro.core.thresholding.TriggerTable`) — and folds a whole
    wave of signal measurements in with a handful of array operations.
    Row semantics are exactly :class:`SafetyMonitor`'s: the same trigger
    decisions, the same sticky/revert mode fold, the same counters, and
    equivalent observability output (aggregated counters plus per-row
    signal samples and hand-off events when collection is on).

    The bank does not measure signals itself — callers batch the
    measurements (that is the point) and hand the values to
    :meth:`observe_measured`; rows on the sticky fast path are advanced
    through :meth:`observe_sticky` without values, mirroring
    :meth:`SafetyMonitor.observe`'s skip-measure branch.
    """

    def __init__(
        self,
        capacity: int,
        trigger_table,
        allow_revert: bool = False,
        name: str = "monitor",
        signal_window: int = 1,
    ) -> None:
        if capacity < 1:
            raise SafetyError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.trigger_table = trigger_table
        self.allow_revert = allow_revert
        self.name = name
        self._signal_window = max(int(signal_window), 1)
        self.defaulted = np.zeros(capacity, dtype=bool)
        self.total_steps = np.zeros(capacity, dtype=np.int64)
        self.default_steps = np.zeros(capacity, dtype=np.int64)
        # Per-row recent-signal windows for the observability default
        # event; materialized only while collection is on.
        self._recent: list[deque | None] = [None] * capacity

    def admit(self, row: int) -> None:
        """Reset *row* for a fresh session (mode, counters, trigger)."""
        self.defaulted[row] = False
        self.total_steps[row] = 0
        self.default_steps[row] = 0
        self._recent[row] = None
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

        Mirrors the scalar sticky fast path: both counters advance and
        the per-decision counter records default-mode decisions.  A
        settled row's bookkeeping is the same every wave, so the engine
        batches several waves of it into one call; the end-of-session
        counters and aggregate metrics are identical to crediting each
        wave individually.
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

        The fold is the scalar rule vectorized: trigger rows update
        first, then ``defaulted`` becomes ``fired`` (revertible) or
        ``defaulted | fired`` (sticky), and the counters advance.
        """
        fired = self.trigger_table.update_rows(rows, values)
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
        """Emit the same observability stream the scalar monitors would:
        per-row signal samples, per-mode decision counts (aggregated),
        and hand-off/recover events with their signal windows."""
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
            recent = self._recent[row]
            if recent is None:
                recent = deque(maxlen=self._signal_window)
                self._recent[row] = recent
            recent.append(value)
            obs.observe("controller.signal", value, controller=self.name)
            if now[position] and not was[position]:
                obs.event(
                    "controller.default",
                    controller=self.name,
                    step=int(self.total_steps[row]),
                    signal=value,
                    window=list(recent),
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
