"""Tests for repro.core.monitor: telemetry and defaulting explanations."""

import numpy as np
import pytest

from repro.core.monitor import MonitoredController, explain_default
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.errors import SafetyError

OBS = np.zeros((6, 8))


class _ScriptedSignal(UncertaintySignal):
    binary = True

    def __init__(self, script):
        self.script = list(script)
        self._index = 0

    def reset(self):
        self._index = 0

    def measure(self, observation):
        value = self.script[min(self._index, len(self.script) - 1)]
        self._index += 1
        return value


class _FixedPolicy:
    def __init__(self, action):
        self.action = action

    def action_probabilities(self, observation):
        probs = np.zeros(6)
        probs[self.action] = 1.0
        return probs

    def act(self, observation, rng):
        return self.action

    def reset(self):
        pass


def monitored(script, l=2):
    return MonitoredController(
        learned=_FixedPolicy(5),
        default=_FixedPolicy(0),
        signal=_ScriptedSignal(script),
        trigger=ConsecutiveTrigger(l=l),
    )


class TestMonitoredController:
    def test_log_matches_decisions(self):
        controller = monitored([0, 1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        actions = [controller.act(OBS, rng) for _ in range(4)]
        # Signal goes uncertain from step 1; l=2 fires at step 2.
        assert actions == [5, 5, 0, 0]
        assert [record.defaulted for record in controller.log] == [
            False,
            False,
            True,
            True,
        ]

    def test_log_marks_steps_after_sticky_handoff_unmeasured(self):
        controller = monitored([0, 1, 1, 0, 0, 0], l=2)
        rng = np.random.default_rng(0)
        for _ in range(6):
            controller.act(OBS, rng)
        values = [record.signal_value for record in controller.log]
        # Fired at step 2; the sticky monitor measures nothing afterwards,
        # so steps 3-5 carry no signal value (not the stale 1.0).
        assert values[:3] == [0.0, 1.0, 1.0]
        assert all(np.isnan(value) for value in values[3:])
        assert controller.signal._index == 3

    def test_handoff_step(self):
        controller = monitored([1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            controller.act(OBS, rng)
        assert controller.handoff_step == 1

    def test_handoff_none_when_never_defaulted(self):
        controller = monitored([0, 0, 0], l=2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            controller.act(OBS, rng)
        assert controller.handoff_step is None

    def test_trigger_fired_marks_transition_only(self):
        controller = monitored([1, 1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            controller.act(OBS, rng)
        fired = [record.trigger_fired for record in controller.log]
        assert fired == [False, True, False, False]

    def test_reset_clears_log(self):
        controller = monitored([1, 1], l=1)
        rng = np.random.default_rng(0)
        controller.act(OBS, rng)
        controller.reset()
        assert controller.log == []


class TestExplainDefault:
    def test_renders_handoff_context(self):
        controller = monitored([0, 0, 1, 1, 0, 0], l=2)
        rng = np.random.default_rng(0)
        for _ in range(6):
            controller.act(OBS, rng)
        text = explain_default(controller, context_steps=2)
        assert "hand-off" in text
        assert "defaulted at decision 3" in text

    def test_unmeasured_steps_rendered_as_such(self):
        controller = monitored([0, 1, 1, 0, 0, 0], l=2)
        rng = np.random.default_rng(0)
        for _ in range(6):
            controller.act(OBS, rng)
        lines = explain_default(controller, context_steps=3).splitlines()
        rows = {line.split()[0]: line for line in lines if line[:1].isdigit()}
        assert "not measured" not in rows["2"]
        for step in ("3", "4", "5"):
            assert "not measured" in rows[step]

    def test_never_defaulted_raises(self):
        controller = monitored([0, 0], l=2)
        rng = np.random.default_rng(0)
        controller.act(OBS, rng)
        with pytest.raises(SafetyError):
            explain_default(controller)
