"""Regression tests for the last-ulp hazard at the trigger threshold.

Batched signal measurement may differ from the scalar path in the last
ulp, which matters exactly when a signal value lands **on** a trigger
threshold: one ulp decides whether the session hands off.  The
documented contract:

* every trigger compares with *strict* inequality — a value exactly at
  the threshold does **not** fire;
* one ulp below the threshold keeps the trigger silent, and the
  threshold nudged one ulp below the value makes it fire — on the
  engine's batched path and the serial runner alike, producing
  identical trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import run_monitored_session
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.domains import get_domain
from repro.policies.buffer_based import BufferBasedPolicy
from repro.serve import ServeEngine, SessionSpec
from repro.traces.dataset import make_dataset

from tests.test_serve_engine import _ObsPolicy, _fingerprint

THRESHOLD = 0.75
BELOW = np.nextafter(THRESHOLD, 0.0)


class _ConstantSignal:
    """Stateless signal pinned to one exact float for every observation."""

    stateless = True

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        pass

    def measure(self, observation) -> float:
        return self.value

    def measure_batch(self, observations) -> np.ndarray:
        return np.full(len(observations), self.value)


@pytest.fixture(scope="module")
def traces():
    return make_dataset("gamma_1_2", num_traces=3, duration_s=120.0, seed=9).traces


@pytest.fixture(scope="module")
def specs(traces):
    return [
        SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"u{index}")
        for index in range(4)
    ]


def _engine(manifest, signal, trigger):
    return ServeEngine(
        factory=get_domain("abr").session_factory(manifest=manifest),
        learned=_ObsPolicy(1, len(manifest.bitrates_kbps)),
        default=BufferBasedPolicy(manifest.bitrates_kbps),
        signal=signal,
        trigger=trigger,
        name="ulp",
    )


class TestScalarTriggersAtThreshold:
    """The strict-> contract, trigger by trigger, scalar and table."""

    def test_ewma_exact_threshold_never_fires(self):
        trigger = EWMATrigger(bar=THRESHOLD, alpha=1.0)
        table = trigger.make_table(2)
        for _ in range(5):
            assert bool(trigger.update(THRESHOLD)) is False
            assert not table.update_rows(
                np.array([0, 1]), np.full(2, THRESHOLD)
            ).any()

    def test_ewma_one_ulp_below_bar_fires(self):
        trigger = EWMATrigger(bar=BELOW, alpha=1.0)
        table = trigger.make_table(1)
        assert bool(trigger.update(THRESHOLD)) is True
        assert table.update_rows(np.array([0]), np.array([THRESHOLD])).all()

    def test_variance_exact_threshold_never_fires(self):
        # Alternating 0 and 2 over k=2 gives a window variance of exactly
        # ((0-1)^2 + (2-1)^2) / 2 = 1.0.
        trigger = VarianceTrigger(alpha=1.0, k=2, l=1)
        table = trigger.make_table(1)
        for step in range(8):
            value = float(step % 2) * 2.0
            assert bool(trigger.update(value)) is False
            assert not table.update_rows(np.array([0]), np.array([value])).any()
        assert trigger.window_variance() == 1.0

    def test_variance_one_ulp_below_alpha_fires(self):
        trigger = VarianceTrigger(alpha=np.nextafter(1.0, 0.0), k=2, l=1)
        table = trigger.make_table(1)
        fired_scalar = [bool(trigger.update(float(step % 2) * 2.0)) for step in range(3)]
        fired_table = [
            bool(
                table.update_rows(
                    np.array([0]), np.array([float(step % 2) * 2.0])
                )[0]
            )
            for step in range(3)
        ]
        assert fired_scalar == fired_table == [False, True, True]

    def test_consecutive_exact_zero_never_counts(self):
        trigger = ConsecutiveTrigger(l=1)
        table = trigger.make_table(1)
        assert bool(trigger.update(0.0)) is False
        assert not table.update_rows(np.array([0]), np.zeros(1)).any()
        tiny = np.nextafter(0.0, 1.0)
        assert bool(trigger.update(tiny)) is True
        assert table.update_rows(np.array([0]), np.array([tiny])).all()

    def test_cusum_exact_threshold_never_fires(self):
        # drift 0 accumulates the raw values; after three waves the
        # statistic sits exactly on the threshold.
        trigger = CusumTrigger(threshold=0.75, drift=0.0)
        table = trigger.make_table(1)
        for _ in range(3):
            fired = trigger.update(0.25)
            assert bool(fired) is False
            assert not table.update_rows(np.array([0]), np.array([0.25])).any()
        assert trigger.statistic == 0.75

    def test_hysteresis_exact_bars_hold(self):
        trigger = HysteresisTrigger(high=THRESHOLD, low=0.25)
        table = trigger.make_table(1)
        # Exactly at the high bar: stays off (strict >).
        assert bool(trigger.update(THRESHOLD)) is False
        assert not table.update_rows(np.array([0]), np.array([THRESHOLD])).any()
        above = np.nextafter(THRESHOLD, 1.0)
        assert bool(trigger.update(above)) is True
        assert table.update_rows(np.array([0]), np.array([above])).all()
        # Exactly at the low bar: stays on (strict <).
        assert bool(trigger.update(0.25)) is True
        assert table.update_rows(np.array([0]), np.array([0.25])).all()


class TestEngineAtThreshold:
    """The batched engine and the serial runner agree on the documented
    at-threshold decision."""

    def _fingerprints(self, manifest, specs, signal_value, bar):
        engine = _engine(
            manifest, _ConstantSignal(signal_value),
            EWMATrigger(bar=bar, alpha=1.0),
        )
        batched_prints = [_fingerprint(r) for r in engine.run(specs)]
        exact_prints = [
            _fingerprint(
                run_monitored_session(
                    engine.factory,
                    spec,
                    engine.learned,
                    engine.default,
                    engine.spawn_monitor(),
                )
            )
            for spec in specs
        ]
        return batched_prints, exact_prints

    def test_exactly_at_threshold_stays_learned_on_both_paths(
        self, manifest, specs
    ):
        batched, exact = self._fingerprints(manifest, specs, THRESHOLD, THRESHOLD)
        assert batched == exact
        for print_ in batched:
            chunk_defaulted = [chunk[-1] for chunk in print_[1]]
            assert not any(chunk_defaulted)

    def test_one_ulp_below_bar_defaults_on_both_paths(self, manifest, specs):
        batched, exact = self._fingerprints(manifest, specs, THRESHOLD, BELOW)
        assert batched == exact
        for print_ in batched:
            chunk_defaulted = [chunk[-1] for chunk in print_[1]]
            # Strict > with the bar one ulp below the constant signal:
            # the very first decision already defaults, and stickiness
            # keeps every later one defaulted.
            assert all(chunk_defaulted)
