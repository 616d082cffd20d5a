"""Tests for the monitored scheme run as a policy (repro.core.runner).

``run_session`` streams a :class:`MonitoredScheme` the way it streams
any policy: the scheme's monitor decides each step, and the chosen
policy acts.
"""

import pytest

from repro.core.runner import MonitoredScheme, run_session
from repro.core.thresholding import ConsecutiveTrigger
from repro.errors import SafetyError
from tests.scripted_scheme import (
    DEFAULT,
    LEARNED,
    SPEC,
    FixedPolicy,
    ScriptedSignal,
    ToyFactory,
    scripted_scheme,
)


def run(script, steps, l=2, allow_revert=False):
    scheme = scripted_scheme(script, steps, l=l, allow_revert=allow_revert)
    return scheme, run_session(scheme.factory, SPEC, scheme)


def actions(result):
    return [record.action for record in result.chunks]


class TestSwitching:
    def test_uses_learned_policy_while_certain(self):
        _, result = run([0, 0, 0, 0], steps=4)
        assert actions(result) == [LEARNED] * 4
        assert result.default_fraction == 0.0

    def test_defaults_after_l_consecutive(self):
        _, result = run([1, 1, 1, 1], steps=4, l=2)
        assert actions(result) == [LEARNED, DEFAULT, DEFAULT, DEFAULT]

    def test_sticky_default_by_default(self):
        _, result = run([1, 1, 0, 0, 0], steps=5, l=2)
        assert actions(result) == [LEARNED] + [DEFAULT] * 4

    def test_revert_mode_switches_back(self):
        _, result = run([1, 1, 0, 0], steps=4, l=2, allow_revert=True)
        assert actions(result) == [LEARNED, DEFAULT, LEARNED, LEARNED]

    def test_records_carry_the_decision_mode(self):
        _, result = run([1, 1], steps=2, l=2)
        assert [record.defaulted for record in result.chunks] == [False, True]

    def test_result_is_named_after_the_scheme(self):
        scheme, result = run([0], steps=1)
        assert result.policy_name == scheme.name


class TestBookkeeping:
    def test_default_fraction(self):
        _, result = run([1, 1, 1, 1], steps=4, l=2)
        assert result.default_fraction == pytest.approx(0.75)

    def test_reset_restores_everything(self):
        scheme, first = run([1, 1], steps=2, l=2)
        second = run_session(scheme.factory, SPEC, scheme)
        # Each session starts from a fresh monitor: the second one
        # decides its first step with the learned policy again.
        assert second.chunks == first.chunks
        assert actions(second)[0] == LEARNED
        assert scheme.learned.reset_count >= 2
        assert scheme.default.reset_count >= 2


class TestStickySignalSkip:
    """After a sticky hand-off the monitor stops measuring the signal;
    decisions and bookkeeping must be unaffected."""

    def test_signal_not_measured_after_sticky_default(self):
        scheme, result = run([1, 1, 1, 1, 1], steps=5, l=2)
        assert actions(result) == [LEARNED] + [DEFAULT] * 4
        # Steps 1 and 2 measured (the trigger fired on step 2); the three
        # defaulted steps afterwards skipped the signal entirely.
        assert scheme.signal._index == 2
        assert result.default_fraction == pytest.approx(0.8)

    def test_revert_mode_keeps_measuring(self):
        scheme, result = run([1, 1, 0, 0], steps=4, l=2, allow_revert=True)
        assert actions(result) == [LEARNED, DEFAULT, LEARNED, LEARNED]
        assert scheme.signal._index == 4


class TestValidation:
    def test_same_policy_rejected(self):
        policy = FixedPolicy(0)
        with pytest.raises(SafetyError):
            MonitoredScheme(
                name="same",
                learned=policy,
                default=policy,
                signal=ScriptedSignal([0]),
                trigger=ConsecutiveTrigger(l=1),
                factory=ToyFactory(1),
            )
