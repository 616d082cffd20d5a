"""Tests for the trigger banks, the monitor bank, and the SoA session
table.

The load-bearing contract is that each bank row runs its rule exactly:
a trigger row fed through vectorized wave updates must fire at exactly
the steps the plain-Python oracle of its rule (``tests/trigger_oracles``)
would, and a :class:`MonitorTable` row must track the oracle's mode fold
counter-for-counter — including partial waves, sticky rows and row
recycling, which is what the serve engine's continuous-batching kernel
does to them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import MonitorTable
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.errors import SafetyError, SimulationError
from repro.serve.table import SessionTable

from tests.trigger_oracles import (
    ConsecutiveOracle,
    CusumOracle,
    EWMAOracle,
    HysteresisOracle,
    MonitorOracle,
    VarianceOracle,
)

#: kind -> (trigger factory, oracle factory) with equal parameters.
TRIGGER_FACTORIES = {
    "consecutive": (lambda: ConsecutiveTrigger(l=3), lambda: ConsecutiveOracle(l=3)),
    "variance": (
        lambda: VarianceTrigger(alpha=0.02, k=4, l=2),
        lambda: VarianceOracle(alpha=0.02, k=4, l=2),
    ),
    "ewma": (
        lambda: EWMATrigger(bar=0.3, alpha=0.4),
        lambda: EWMAOracle(bar=0.3, alpha=0.4),
    ),
    "cusum": (
        lambda: CusumTrigger(threshold=1.5, drift=0.2),
        lambda: CusumOracle(threshold=1.5, drift=0.2),
    ),
    "hysteresis": (
        lambda: HysteresisTrigger(high=0.4, low=0.1),
        lambda: HysteresisOracle(high=0.4, low=0.1),
    ),
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
        reproduce the oracle's decisions bitwise, and the per-session
        API (row 0 of a one-row bank) agrees with them too."""
        capacity = 5
        trigger_factory, oracle_factory = TRIGGER_FACTORIES[kind]
        table = trigger_factory().make_table(capacity)
        single = trigger_factory()
        oracles = [oracle_factory() for _ in range(capacity)]
        rng = np.random.default_rng(7)
        values = _value_stream(rng, kind, steps=200, rows=capacity)
        for step in range(200):
            rows = np.flatnonzero(rng.random(capacity) < 0.7)
            if len(rows) == 0:
                continue
            fired = table.update_rows(rows, values[step, rows])
            expected = [
                oracles[row].update(float(values[step, row]))
                for row in rows.tolist()
            ]
            assert fired.tolist() == expected, f"{kind} diverged at {step}"
            if rows[0] == 0:
                assert single.update(float(values[step, 0])) is expected[0]
            if step % 37 == 0:
                # Recycle one row mid-stream, as the serve free-list does.
                recycled = int(rows[0])
                table.reset_rows(np.array([recycled]))
                oracles[recycled].reset()
                if recycled == 0:
                    single.reset()

    @pytest.mark.parametrize("kind", sorted(TRIGGER_FACTORIES))
    def test_non_finite_wave_raises(self, kind):
        table = TRIGGER_FACTORIES[kind][0]().make_table(3)
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
        table = VarianceTrigger(alpha=0.5, k=4, l=1).make_table(2)
        oracle = VarianceOracle(alpha=0.5, k=4, l=1)
        stream = [0.3, 0.9, 0.1, 0.7, 0.5, 0.2]
        for value in stream:
            table.update_rows(np.array([1]), np.array([value]))
            oracle.update(value)
            assert table.recent_values(1) == list(oracle.window)
            assert table.recent_values(0) == []

    def test_make_table_validates_capacity(self):
        for trigger_factory, _ in TRIGGER_FACTORIES.values():
            with pytest.raises(SafetyError, match="capacity"):
                trigger_factory().make_table(0)

    def test_make_table_keeps_rule_and_clears_state(self):
        trigger = VarianceTrigger(alpha=0.02, k=4, l=2)
        trigger.update(1.0)
        table = trigger.make_table(3)
        assert type(table) is VarianceTrigger
        assert (table.alpha, table.k, table.l, table.capacity) == (0.02, 4, 2, 3)
        assert table.recent_values(0) == []
        assert trigger.recent_values(0) == [1.0]


class TestMonitorTableEquivalence:
    @pytest.mark.parametrize("allow_revert", [False, True])
    def test_bank_matches_scalar_monitors(self, allow_revert):
        capacity = 4
        bank = MonitorTable(
            capacity,
            VarianceTrigger(alpha=0.015, k=3, l=2).make_table(capacity),
            allow_revert=allow_revert,
            name="bank",
        )
        oracles = [
            MonitorOracle(VarianceOracle(alpha=0.015, k=3, l=2), allow_revert)
            for _ in range(capacity)
        ]
        for row in range(capacity):
            bank.admit(row)
        rng = np.random.default_rng(11)
        for step in range(150):
            rows = np.flatnonzero(rng.random(capacity) < 0.8)
            if len(rows) == 0:
                continue
            values = np.abs(rng.normal(0.1, 0.15, size=len(rows)))
            sticky = rows[:0] if allow_revert else rows[bank.defaulted[rows]]
            measured = rows[~bank.defaulted[rows]] if len(sticky) else rows
            if len(sticky):
                bank.observe_sticky(sticky)
            if len(measured):
                bank.observe_measured(measured, values[np.isin(rows, measured)])
            for position, row in enumerate(rows.tolist()):
                defaulted = oracles[row].observe(float(values[position]))
                assert bool(bank.defaulted[row]) == defaulted
            if step == 80:
                recycled = int(rows[0])
                bank.admit(recycled)
                oracles[recycled].reset()
        for row in range(capacity):
            assert int(bank.total_steps[row]) == oracles[row].total_steps
            assert int(bank.default_steps[row]) == oracles[row].default_steps
            assert bank.default_fraction(row) == oracles[row].default_fraction

    def test_capacity_validated(self):
        with pytest.raises(SafetyError, match="capacity"):
            MonitorTable(0, ConsecutiveTrigger(l=1))
        with pytest.raises(SafetyError, match="fewer than capacity"):
            MonitorTable(2, ConsecutiveTrigger(l=1))

    def test_fired_tracks_latest_measured_step(self):
        bank = MonitorTable(2, ConsecutiveTrigger(l=1).make_table(2))
        bank.observe_measured(np.array([0, 1]), np.array([1.0, 0.0]))
        assert bank.fired.tolist() == [True, False]
        bank.observe_measured(np.array([0]), np.array([0.0]))
        assert bank.fired.tolist() == [False, False]


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
