"""Tests for repro.experiments.robustness: graded-shift curves."""

import numpy as np
import pytest

from repro.core.monitor import SafetyController
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.errors import ConfigError
from repro.experiments.robustness import (
    capacity_loss_shift,
    cross_traffic_shift,
    graded_shift_curve,
    outage_shift,
)
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.constant import ConstantPolicy
from repro.traces.trace import Trace
from repro.video.envivio import envivio_dash3_manifest


class _ThroughputDropSignal(UncertaintySignal):
    """Fires when observed throughput falls below a fixed floor."""

    binary = True

    def __init__(self, floor_mbps=3.0):
        self.floor = floor_mbps

    def measure(self, observation):
        from repro.abr.state import ObservationView

        view = ObservationView(
            observation, np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])
        )
        latest = view.throughput_history_mbps[-1]
        return 1.0 if 0 < latest < self.floor else 0.0


@pytest.fixture(scope="module")
def setup():
    manifest = envivio_dash3_manifest(repeats=1)
    learned = ConstantPolicy(manifest.bitrates_kbps, bitrate_index=5)
    default = BufferBasedPolicy(manifest.bitrates_kbps)
    traces = [Trace.from_bandwidths([6.0] * 300, name="base")]
    return manifest, learned, default, traces


class TestShiftFamilies:
    def test_capacity_loss(self):
        trace = Trace.from_bandwidths([10.0] * 10)
        shifted = capacity_loss_shift(trace, 0.4)
        assert np.allclose(shifted.bandwidths_mbps, 6.0)

    def test_capacity_loss_zero_is_identity(self):
        trace = Trace.from_bandwidths([10.0] * 10)
        assert capacity_loss_shift(trace, 0.0) is trace

    def test_cross_traffic(self):
        trace = Trace.from_bandwidths([10.0] * 50)
        shifted = cross_traffic_shift(trace, 4.0)
        assert shifted.mean_bandwidth < 10.0

    def test_outage(self):
        trace = Trace.from_bandwidths([10.0] * 200)
        shifted = outage_shift(trace, 0.3)
        assert shifted.bandwidths_mbps.min() < 1.0

    def test_validation(self):
        trace = Trace.from_bandwidths([10.0] * 10)
        with pytest.raises(ConfigError):
            capacity_loss_shift(trace, 1.0)
        with pytest.raises(ConfigError):
            cross_traffic_shift(trace, -1.0)
        with pytest.raises(ConfigError):
            outage_shift(trace, 1.0)


class TestGradedShiftCurve:
    def test_curve_structure_and_behaviour(self, setup):
        manifest, learned, default, traces = setup
        controller = SafetyController(
            learned=learned,
            default=default,
            signal=_ThroughputDropSignal(floor_mbps=3.0),
            trigger=ConsecutiveTrigger(l=3),
        )
        points = graded_shift_curve(
            learned,
            controller,
            default,
            manifest,
            traces,
            capacity_loss_shift,
            magnitudes=[0.0, 0.7],
        )
        assert [p.magnitude for p in points] == [0.0, 0.7]
        unshifted, shifted = points
        # No shift: throughput 6 > floor 3; the controller never defaults.
        assert unshifted.default_fraction == 0.0
        # 70% loss: always-max rebuffers badly; the signal fires, the
        # controller defaults, and the controlled QoE beats the learned.
        assert shifted.default_fraction > 0.5
        assert shifted.controlled_qoe > shifted.learned_qoe

    def test_validation(self, setup):
        manifest, learned, default, traces = setup
        controller = SafetyController(
            learned=learned,
            default=default,
            signal=_ThroughputDropSignal(),
            trigger=ConsecutiveTrigger(l=1),
        )
        with pytest.raises(ConfigError):
            graded_shift_curve(
                learned, controller, default, manifest, [], capacity_loss_shift, [0.5]
            )
        with pytest.raises(ConfigError):
            graded_shift_curve(
                learned, controller, default, manifest, traces, capacity_loss_shift, []
            )
