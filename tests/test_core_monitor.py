"""Tests for repro.core.monitor: per-step decisions and hand-off explanations."""

import dataclasses

import numpy as np
import pytest

from repro.core.monitor import SafetyMonitor, explain_default
from repro.core.runner import run_session
from repro.core.thresholding import ConsecutiveTrigger
from repro.domains import SessionSpec, get_domain
from repro.errors import SafetyError
from repro.serve import ServeEngine
from repro.traces.dataset import make_dataset
from tests.scripted_scheme import OBS, SPEC, ScriptedSignal, scripted_scheme


def observe(script, steps, l=2):
    monitor = SafetyMonitor(ScriptedSignal(script), ConsecutiveTrigger(l=l))
    return monitor, [monitor.observe(OBS) for _ in range(steps)]


class TestMonitorDecisions:
    def test_decisions_follow_the_trigger(self):
        _, decisions = observe([0, 1, 1, 1], steps=4, l=2)
        # Signal goes uncertain from step 1; l=2 fires at step 2.
        assert [d.defaulted for d in decisions] == [False, False, True, True]
        assert [d.mode for d in decisions] == ["learned"] * 2 + ["default"] * 2

    def test_steps_after_sticky_handoff_are_unmeasured(self):
        monitor, decisions = observe([0, 1, 1, 0, 0, 0], steps=6, l=2)
        values = [d.signal_value for d in decisions]
        # Fired at step 2; the sticky monitor measures nothing afterwards,
        # so steps 3-5 carry no signal value (not the stale 1.0).
        assert values[:3] == [0.0, 1.0, 1.0]
        assert all(np.isnan(value) for value in values[3:])
        assert monitor.signal._index == 3

    def test_handoff_at_first_defaulted_step(self):
        _, decisions = observe([1, 1, 1], steps=3, l=2)
        assert [d.step for d in decisions if d.handoff] == [1]

    def test_no_handoff_when_never_defaulted(self):
        monitor, decisions = observe([0, 0, 0], steps=3, l=2)
        assert not any(d.handoff for d in decisions)
        assert monitor.default_fraction == 0.0

    def test_fired_and_handoff_only_at_the_transition(self):
        _, decisions = observe([1, 1, 1, 1], steps=4, l=2)
        assert [d.fired for d in decisions] == [False, True, False, False]
        assert [d.handoff for d in decisions] == [False, True, False, False]

    def test_reset_starts_a_fresh_session(self):
        monitor, _ = observe([1, 1], steps=1, l=1)
        monitor.reset()
        assert monitor.last_decision is None
        assert (monitor.total_steps, monitor.defaulted) == (0, False)


def served(script, steps, l=2):
    scheme = scripted_scheme(script, steps, l=l)
    return scheme, run_session(scheme.factory, SPEC, scheme)


def table_rows(text):
    return {line.split()[0]: line for line in text.splitlines() if line[:1].isdigit()}


class TestExplainDefault:
    def test_renders_handoff_context(self):
        scheme, result = served([0, 0, 1, 1, 0, 0], steps=6)
        text = explain_default(result, scheme.monitor(), context_steps=2)
        assert "hand-off" in text
        assert "defaulted at decision 3" in text
        assert "(of 6; 50% of session under default)" in text
        # The record's reward is the acting policy's action here.
        assert table_rows(text)["2"].split()[:4] == ["2", "1.000", "no", "5.000"]
        assert table_rows(text)["3"].split()[:4] == ["3", "1.000", "yes", "0.000"]

    def test_unmeasured_steps_rendered_as_such(self):
        scheme, result = served([0, 1, 1, 0, 0, 0], steps=6)
        rows = table_rows(explain_default(result, scheme.monitor(), context_steps=3))
        assert "not measured" not in rows["2"]
        for step in ("3", "4", "5"):
            assert "not measured" in rows[step]

    def test_never_defaulted_raises(self):
        scheme, result = served([0, 0], steps=1)
        with pytest.raises(SafetyError, match="never defaulted"):
            explain_default(result, scheme.monitor())

    def test_replay_resets_the_monitor_first(self):
        scheme, result = served([0, 0, 1, 1, 0, 0], steps=6)
        monitor = scheme.monitor()
        for _ in range(4):
            monitor.observe(OBS)
        assert explain_default(result, monitor) == explain_default(
            result, scheme.monitor()
        )

    def test_tampered_defaulted_flag_raises(self):
        scheme, result = served([0, 0, 1, 1, 0, 0], steps=6)
        result.chunks[1] = dataclasses.replace(result.chunks[1], defaulted=True)
        with pytest.raises(SafetyError, match="replay diverges at decision 1"):
            explain_default(result, scheme.monitor())

    def test_explains_a_session_served_by_the_engine(self):
        scheme = get_domain("abr").demo_scheme()
        dataset = make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0)
        trace = dataset.split().test[0]
        [result] = ServeEngine.from_scheme(scheme).run(
            [SessionSpec(trace=trace, seed=0)]
        )
        assert 0.0 < result.default_fraction < 1.0
        handoff = next(i for i, c in enumerate(result.chunks) if c.defaulted)
        text = explain_default(result, scheme.monitor())
        assert text.startswith(f"defaulted at decision {handoff} ")
        assert "<< hand-off" in table_rows(text)[str(handoff)]
