"""Tests for the vectorized trigger banks, the monitor bank, and the
SoA session table.

The load-bearing contract is *bitwise equivalence*: a trigger-table row
fed through vectorized wave updates must fire at exactly the steps the
corresponding scalar trigger would, and a :class:`MonitorTable` row must
track a :class:`SafetyMonitor` counter-for-counter — this is what lets
the serve engine's continuous-batching kernel replace per-session
objects without changing a single trajectory.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import MonitorTable, SafetyMonitor
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.errors import SafetyError, SimulationError
from repro.serve.table import SessionTable

TRIGGER_FACTORIES = {
    "consecutive": lambda: ConsecutiveTrigger(l=3),
    "variance": lambda: VarianceTrigger(alpha=0.02, k=4, l=2),
    "ewma": lambda: EWMATrigger(bar=0.3, alpha=0.4),
    "cusum": lambda: CusumTrigger(threshold=1.5, drift=0.2),
    "hysteresis": lambda: HysteresisTrigger(high=0.4, low=0.1),
}


def _value_stream(rng, kind: str, steps: int, rows: int) -> np.ndarray:
    if kind == "consecutive":
        # Binary-ish signal with runs, including exact zeros.
        return rng.choice([0.0, 0.0, 1.0, 1.0, 1.0], size=(steps, rows))
    return np.abs(rng.normal(0.2, 0.25, size=(steps, rows)))


class TestTriggerTableEquivalence:
    @pytest.mark.parametrize("kind", sorted(TRIGGER_FACTORIES))
    def test_rows_match_scalar_triggers(self, kind):
        """Partial waves, full waves, and mid-stream row recycling all
        reproduce the scalar decisions bitwise."""
        capacity = 5
        prototype = TRIGGER_FACTORIES[kind]()
        table = prototype.make_table(capacity)
        scalars = [copy.deepcopy(prototype) for _ in range(capacity)]
        for scalar in scalars:
            scalar.reset()
        table.reset_rows(np.arange(capacity))
        rng = np.random.default_rng(7)
        values = _value_stream(rng, kind, steps=200, rows=capacity)
        for step in range(200):
            rows = np.flatnonzero(rng.random(capacity) < 0.7)
            if len(rows) == 0:
                continue
            fired = table.update_rows(rows, values[step, rows])
            expected = [
                scalars[row].update(float(values[step, row]))
                for row in rows.tolist()
            ]
            assert fired.tolist() == expected, f"{kind} diverged at {step}"
            if step % 37 == 0:
                # Recycle one row mid-stream, as the serve free-list does.
                recycled = int(rows[0])
                table.reset_rows(np.array([recycled]))
                scalars[recycled].reset()

    @pytest.mark.parametrize("kind", sorted(TRIGGER_FACTORIES))
    def test_non_finite_wave_raises(self, kind):
        table = TRIGGER_FACTORIES[kind]().make_table(3)
        with pytest.raises(SafetyError, match="non-finite"):
            table.update_rows(np.array([0, 2]), np.array([0.1, np.nan]))

    def test_consecutive_rejects_poisoned_wave_before_updating(self):
        table = ConsecutiveTrigger(l=2).make_table(2)
        table.update_rows(np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(SafetyError, match="non-finite"):
            table.update_rows(np.array([0, 1]), np.array([1.0, np.nan]))
        # Neither row's streak moved: the next positive wave fires both.
        fired = table.update_rows(np.array([0, 1]), np.array([1.0, 1.0]))
        assert fired.tolist() == [True, True]

    def test_variance_recent_values_matches_scalar_window(self):
        prototype = VarianceTrigger(alpha=0.5, k=4, l=1)
        table = prototype.make_table(2)
        scalar = copy.deepcopy(prototype)
        stream = [0.3, 0.9, 0.1, 0.7, 0.5, 0.2]
        for position, value in enumerate(stream):
            table.update_rows(np.array([1]), np.array([value]))
            scalar.update(value)
            assert table.recent_values(1) == list(scalar._window)
            assert table.recent_values(0) == []

    def test_make_table_validates_capacity(self):
        for factory in TRIGGER_FACTORIES.values():
            with pytest.raises(SafetyError, match="capacity"):
                factory().make_table(0)


class _NeverMeasuredSignal:
    """Monitor tests feed explicit signal values; measuring must not happen."""

    stateless = True

    def reset(self) -> None:
        pass

    def measure(self, observation):
        raise AssertionError("monitor measured instead of using the value")


class TestMonitorTableEquivalence:
    @pytest.mark.parametrize("allow_revert", [False, True])
    def test_bank_matches_scalar_monitors(self, allow_revert):
        capacity = 4
        prototype = VarianceTrigger(alpha=0.015, k=3, l=2)
        bank = MonitorTable(
            capacity,
            prototype.make_table(capacity),
            allow_revert=allow_revert,
            name="bank",
            signal_window=prototype.k,
        )
        monitors = [
            SafetyMonitor(
                _NeverMeasuredSignal(),
                copy.deepcopy(prototype),
                allow_revert=allow_revert,
                name="bank",
            )
            for _ in range(capacity)
        ]
        for row in range(capacity):
            bank.admit(row)
            monitors[row].reset()
        rng = np.random.default_rng(11)
        observation = np.zeros(4)
        for step in range(150):
            rows = np.flatnonzero(rng.random(capacity) < 0.8)
            if len(rows) == 0:
                continue
            values = np.abs(rng.normal(0.1, 0.15, size=len(rows)))
            sticky = bank.sticky_rows(rows)
            measured = rows[~bank.defaulted[rows]] if len(sticky) else rows
            if len(sticky):
                bank.observe_sticky(sticky)
            if len(measured):
                bank.observe_measured(
                    measured, values[np.isin(rows, measured)]
                )
            for position, row in enumerate(rows.tolist()):
                decision = monitors[row].observe(
                    observation, signal_value=float(values[position])
                )
                assert bool(bank.defaulted[row]) == decision.defaulted
            if step == 80:
                recycled = int(rows[0])
                bank.admit(recycled)
                monitors[recycled].reset()
        for row in range(capacity):
            assert int(bank.total_steps[row]) == monitors[row].total_steps
            assert int(bank.default_steps[row]) == monitors[row].default_steps
            assert bank.default_fraction(row) == monitors[row].default_fraction

    def test_sticky_rows_respects_revert(self):
        table = VarianceTrigger(alpha=0.0, k=2, l=1).make_table(3)
        sticky_bank = MonitorTable(3, table, allow_revert=False)
        sticky_bank.defaulted[:] = [True, False, True]
        assert sticky_bank.sticky_rows(np.arange(3)).tolist() == [0, 2]
        revert_bank = MonitorTable(
            3, VarianceTrigger(alpha=0.0, k=2, l=1).make_table(3),
            allow_revert=True,
        )
        revert_bank.defaulted[:] = True
        assert len(revert_bank.sticky_rows(np.arange(3))) == 0

    def test_capacity_validated(self):
        with pytest.raises(SafetyError, match="capacity"):
            MonitorTable(0, ConsecutiveTrigger(l=1).make_table(1))


class TestSessionTable:
    def _admit(self, table: SessionTable, spec_index: int) -> int:
        observation = np.full(3, float(spec_index))
        return table.admit(
            spec_index,
            env=f"env{spec_index}",
            rng=f"rng{spec_index}",
            result=f"result{spec_index}",
            observation=observation,
            remaining=5,
        )

    def test_slots_fill_ascending_and_reuse_lifo(self):
        table = SessionTable(3, (3,))
        assert [self._admit(table, i) for i in range(3)] == [0, 1, 2]
        assert table.free_slots == 0
        table.release(1)
        assert self._admit(table, 9) == 1  # the freed slot, immediately
        assert table.slots_reused == 1
        assert table.admissions == 4

    def test_full_table_rejects_admission(self):
        table = SessionTable(1, (3,))
        self._admit(table, 0)
        with pytest.raises(SimulationError, match="full"):
            self._admit(table, 1)

    def test_release_clears_row(self):
        table = SessionTable(2, (3,))
        slot = self._admit(table, 0)
        table.release(slot)
        assert not table.active[slot]
        assert table.spec_index[slot] == -1
        assert table.envs[slot] is None
        assert table.results[slot] is None
        assert table.current_observation[slot] is None
        with pytest.raises(SimulationError, match="not live"):
            table.release(slot)

    def test_admit_copies_observation_into_soa_row(self):
        table = SessionTable(2, (3,))
        slot = self._admit(table, 1)
        np.testing.assert_array_equal(table.observations[slot], np.ones(3))
        assert table.current_observation[slot] is not table.observations[slot]

    def test_capacity_validated(self):
        with pytest.raises(SimulationError, match="capacity"):
            SessionTable(0, (3,))

    @given(
        capacity=st.integers(min_value=1, max_value=6),
        operations=st.lists(st.integers(min_value=0, max_value=9), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_free_list_invariants_under_any_interleaving(
        self, capacity, operations
    ):
        """Random admit/release interleavings keep the table consistent:
        live rows and the free-list always partition the slots, and
        live_rows() reports exactly the admitted spec indices."""
        table = SessionTable(capacity, (3,))
        live: dict[int, int] = {}
        next_spec = 0
        for op in operations:
            if op % 2 == 0 and table.free_slots:
                slot = self._admit(table, next_spec)
                assert slot not in live
                live[slot] = next_spec
                next_spec += 1
            elif live:
                slot = sorted(live)[op % len(live)]
                table.release(slot)
                del live[slot]
            assert table.live_count == len(live)
            assert table.free_slots == capacity - len(live)
            assert table.live_rows().tolist() == sorted(live)
            for slot, spec in live.items():
                assert table.spec_index[slot] == spec
