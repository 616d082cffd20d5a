"""Tests for repro.traces.transforms: controlled trace perturbations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.trace import Trace
from repro.traces.transforms import (
    add_cross_traffic,
    concatenate,
    inject_outages,
    scale,
)


@pytest.fixture()
def base_trace():
    return Trace.from_bandwidths([4.0] * 120, name="base")


class TestScale:
    def test_scales_bandwidth(self, base_trace):
        doubled = scale(base_trace, 2.0)
        assert np.allclose(doubled.bandwidths_mbps, 8.0)

    def test_preserves_times(self, base_trace):
        assert np.array_equal(scale(base_trace, 0.5).times, base_trace.times)


class TestInjectOutages:
    def test_creates_deep_dips(self, base_trace):
        outaged = inject_outages(
            base_trace, outage_duration_s=5.0, period_s=30.0, depth_factor=0.02
        )
        assert outaged.bandwidths_mbps.min() < 0.5
        assert outaged.bandwidths_mbps.max() == pytest.approx(4.0)

    def test_outage_fraction_roughly_matches(self, base_trace):
        outaged = inject_outages(
            base_trace, outage_duration_s=10.0, period_s=40.0, depth_factor=0.02
        )
        dip_fraction = float((outaged.bandwidths_mbps < 1.0).mean())
        assert 0.1 < dip_fraction < 0.45

    def test_deterministic_given_seed(self, base_trace):
        a = inject_outages(base_trace, 5.0, 30.0, seed=3)
        b = inject_outages(base_trace, 5.0, 30.0, seed=3)
        assert np.array_equal(a.bandwidths_mbps, b.bandwidths_mbps)

    def test_bad_parameters(self, base_trace):
        with pytest.raises(TraceError):
            inject_outages(base_trace, 0.0, 30.0)
        with pytest.raises(TraceError):
            inject_outages(base_trace, 30.0, 10.0)
        with pytest.raises(TraceError):
            inject_outages(base_trace, 5.0, 30.0, depth_factor=0.0)


class TestCrossTraffic:
    def test_reduces_mean_bandwidth(self, base_trace):
        loaded = add_cross_traffic(base_trace, mean_mbps=2.0, seed=0)
        assert loaded.mean_bandwidth < base_trace.mean_bandwidth

    def test_residual_positive(self, base_trace):
        loaded = add_cross_traffic(base_trace, mean_mbps=10.0, seed=0)
        assert np.all(loaded.bandwidths_mbps > 0)

    def test_bad_parameters(self, base_trace):
        with pytest.raises(TraceError):
            add_cross_traffic(base_trace, mean_mbps=0.0)
        with pytest.raises(TraceError):
            add_cross_traffic(base_trace, mean_mbps=1.0, burstiness=0.0)


class TestConcatenate:
    def test_length_and_order(self):
        first = Trace.from_bandwidths([1.0, 1.0, 1.0], name="a")
        second = Trace.from_bandwidths([9.0, 9.0], name="b")
        spliced = concatenate(first, second)
        assert len(spliced) == 5
        assert spliced.bandwidths_mbps[0] == 1.0
        assert spliced.bandwidths_mbps[-1] == 9.0

    def test_times_strictly_increasing(self):
        first = Trace.from_bandwidths([1.0] * 4)
        second = Trace.from_bandwidths([2.0] * 4)
        spliced = concatenate(first, second)
        assert np.all(np.diff(spliced.times) > 0)


class TestPropertyBased:
    @given(st.floats(0.1, 10.0))
    def test_scale_then_inverse_is_identity(self, factor):
        trace = Trace.from_bandwidths([2.0, 5.0, 3.0])
        round_trip = scale(scale(trace, factor), 1.0 / factor)
        assert np.allclose(round_trip.bandwidths_mbps, trace.bandwidths_mbps)
