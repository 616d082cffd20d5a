"""Graded-shift robustness: when does the safety net wake up?

The paper evaluates whole-distribution jumps; real drift is gradual.
This benchmark sweeps capacity loss from 0% to 80% on in-distribution
traces and reports, at each magnitude, the learned policy's QoE, the
ND-safety-controlled QoE, BB's QoE, and the default rate.  The desired
shape: near-zero defaulting with no shift, rising default rates as the
shift grows, and the controlled curve tracking max(learned, BB).
"""

import numpy as np
import pytest

from repro.abr.session import ABRSessionFactory
from repro.core.runner import MonitoredScheme
from repro.core.thresholding import ConsecutiveTrigger
from repro.experiments.robustness import capacity_loss_shift, graded_shift_curve
from repro.policies.buffer_based import BufferBasedPolicy
from repro.util.tables import render_table

MAGNITUDES = [0.0, 0.2, 0.4, 0.6, 0.8]


_CURVE_CACHE: dict = {}


def nd_scheme(artifacts, config):
    return MonitoredScheme(
        name="ND",
        learned=artifacts.agent,
        default=BufferBasedPolicy(artifacts.manifest.bitrates_kbps),
        signal=artifacts.signals["U_S"],
        trigger=ConsecutiveTrigger(l=config.safety.l),
        factory=ABRSessionFactory(artifacts.manifest),
    )


@pytest.fixture(scope="module")
def curve_factory(artifacts, config):
    def compute():
        if "curve" not in _CURVE_CACHE:
            _CURVE_CACHE["curve"] = graded_shift_curve(
                scheme=nd_scheme(artifacts, config),
                base_traces=artifacts.split.test,
                shift=capacity_loss_shift,
                magnitudes=MAGNITUDES,
            )
        return _CURVE_CACHE["curve"]

    return compute


def test_robustness_table(benchmark, curve_factory, emit):
    curve = benchmark.pedantic(curve_factory, rounds=1, iterations=1)
    rows = [
        [
            f"{point.magnitude:.0%}",
            round(point.learned_qoe, 1),
            round(point.controlled_qoe, 1),
            round(point.default_qoe, 1),
            f"{point.default_fraction:.0%}",
        ]
        for point in curve
    ]
    emit(
        "robustness_capacity_loss",
        render_table(
            ["capacity loss", "learned QoE", "controlled QoE", "BB QoE", "defaulted"],
            rows,
        ),
    )
    by_magnitude = {point.magnitude: point for point in curve}
    # No shift: the controller rarely defaults.
    assert by_magnitude[0.0].default_fraction < 0.5
    # Severe shift: the controller mostly defaults...
    assert by_magnitude[0.8].default_fraction > 0.5
    # ...and rescues most of the learned policy's loss against BB.
    worst = by_magnitude[0.8]
    gap = worst.default_qoe - worst.learned_qoe
    assert worst.controlled_qoe > worst.learned_qoe + 0.4 * max(gap, 0.0)


def test_default_rate_monotone_in_shift(benchmark, curve_factory):
    curve = benchmark.pedantic(curve_factory, rounds=1, iterations=1)
    rates = [point.default_fraction for point in curve]
    # Allow small non-monotonic wiggles but require an overall rise.
    assert rates[-1] > rates[0]
    assert max(rates) == pytest.approx(rates[-1], abs=0.25)


def test_curve_point_cost(benchmark, artifacts, config):
    benchmark(
        graded_shift_curve,
        nd_scheme(artifacts, config),
        artifacts.split.test[:1],
        capacity_loss_shift,
        [0.5],
    )
