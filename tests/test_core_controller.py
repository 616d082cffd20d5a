"""Tests for the SafetyController policy wrapper (repro.core.monitor)."""

import numpy as np
import pytest

from repro.core.monitor import SafetyController
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.errors import SafetyError
from repro.perf import fast_paths

OBS = np.zeros((6, 8))


class _ScriptedSignal(UncertaintySignal):
    """Emits a scripted sequence of uncertainty values."""

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


class _NamedPolicy:
    def __init__(self, action):
        self.action = action
        self.reset_count = 0

    def action_probabilities(self, observation):
        probs = np.zeros(6)
        probs[self.action] = 1.0
        return probs

    def act(self, observation, rng):
        return self.action

    def reset(self):
        self.reset_count += 1


def make_controller(script, l=2, allow_revert=False):
    return SafetyController(
        learned=_NamedPolicy(5),
        default=_NamedPolicy(0),
        signal=_ScriptedSignal(script),
        trigger=ConsecutiveTrigger(l=l),
        allow_revert=allow_revert,
    )


class TestSwitching:
    def test_uses_learned_policy_while_certain(self):
        controller = make_controller([0, 0, 0, 0])
        rng = np.random.default_rng(0)
        actions = [controller.act(OBS, rng) for _ in range(4)]
        assert actions == [5, 5, 5, 5]
        assert controller.default_fraction == 0.0

    def test_defaults_after_l_consecutive(self):
        controller = make_controller([1, 1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        actions = [controller.act(OBS, rng) for _ in range(4)]
        assert actions == [5, 0, 0, 0]

    def test_sticky_default_by_default(self):
        controller = make_controller([1, 1, 0, 0, 0], l=2)
        rng = np.random.default_rng(0)
        actions = [controller.act(OBS, rng) for _ in range(5)]
        assert actions == [5, 0, 0, 0, 0]

    def test_revert_mode_switches_back(self):
        controller = make_controller([1, 1, 0, 0], l=2, allow_revert=True)
        rng = np.random.default_rng(0)
        actions = [controller.act(OBS, rng) for _ in range(4)]
        assert actions == [5, 0, 5, 5]

    def test_last_decision_defaulted_flag(self):
        controller = make_controller([1, 1], l=2)
        rng = np.random.default_rng(0)
        controller.act(OBS, rng)
        assert controller.last_decision_defaulted is False
        controller.act(OBS, rng)
        assert controller.last_decision_defaulted is True


class TestBookkeeping:
    def test_default_fraction(self):
        controller = make_controller([1, 1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            controller.act(OBS, rng)
        assert controller.default_fraction == pytest.approx(0.75)

    def test_reset_restores_everything(self):
        controller = make_controller([1, 1], l=2)
        rng = np.random.default_rng(0)
        controller.act(OBS, rng)
        controller.act(OBS, rng)
        controller.reset()
        assert controller.default_fraction == 0.0
        assert controller.act(OBS, rng) == 5
        assert controller.learned.reset_count >= 1
        assert controller.default.reset_count >= 1

    def test_action_probabilities_do_not_advance_signal(self):
        controller = make_controller([1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        controller.action_probabilities(OBS)
        controller.action_probabilities(OBS)
        # Signal untouched: the first act() is still decision 1.
        assert controller.act(OBS, rng) == 5

    def test_action_probabilities_follow_mode(self):
        controller = make_controller([1, 1, 1], l=1)
        rng = np.random.default_rng(0)
        assert controller.action_probabilities(OBS)[5] == 1.0
        controller.act(OBS, rng)
        assert controller.action_probabilities(OBS)[0] == 1.0


class TestStickySignalSkip:
    """After a sticky hand-off the fast path stops measuring the signal;
    decisions and bookkeeping must be unaffected."""

    def test_same_actions_and_fraction_with_and_without_fast_paths(self):
        script = [1, 1, 0, 1, 0, 0]
        with fast_paths(True):
            fast_controller = make_controller(script, l=2)
            rng = np.random.default_rng(0)
            fast_actions = [fast_controller.act(OBS, rng) for _ in range(6)]
        with fast_paths(False):
            slow_controller = make_controller(script, l=2)
            rng = np.random.default_rng(0)
            slow_actions = [slow_controller.act(OBS, rng) for _ in range(6)]
        assert fast_actions == slow_actions
        assert fast_controller.default_fraction == slow_controller.default_fraction
        assert fast_controller.total_steps == slow_controller.total_steps

    def test_signal_not_measured_after_sticky_default(self):
        controller = make_controller([1, 1, 1, 1, 1], l=2)
        rng = np.random.default_rng(0)
        with fast_paths(True):
            for _ in range(5):
                controller.act(OBS, rng)
        # Steps 1 and 2 measured (the trigger fired on step 2); the three
        # defaulted steps afterwards skipped the signal entirely.
        assert controller.signal._index == 2
        assert controller.default_fraction == pytest.approx(0.8)

    def test_revert_mode_keeps_measuring(self):
        controller = make_controller([1, 1, 0, 0], l=2, allow_revert=True)
        rng = np.random.default_rng(0)
        with fast_paths(True):
            actions = [controller.act(OBS, rng) for _ in range(4)]
        assert actions == [5, 0, 5, 5]
        assert controller.signal._index == 4


class TestValidation:
    def test_same_policy_rejected(self):
        policy = _NamedPolicy(0)
        with pytest.raises(SafetyError):
            SafetyController(
                learned=policy,
                default=policy,
                signal=_ScriptedSignal([0]),
                trigger=ConsecutiveTrigger(l=1),
            )
