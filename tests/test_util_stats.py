"""Tests for repro.util.stats: windows, normalization, CDFs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    empirical_cdf,
    mean_std_window,
    normalize_scores,
    summarize,
)


class TestMeanStdWindow:
    def test_full_window(self):
        mean, std = mean_std_window(np.array([1.0, 2.0, 3.0, 4.0]), window=2)
        assert mean == pytest.approx(3.5)
        assert std == pytest.approx(0.5)

    def test_short_input_uses_all(self):
        mean, std = mean_std_window(np.array([2.0, 4.0]), window=10)
        assert mean == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std_window(np.array([]), window=3)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            mean_std_window(np.array([1.0]), window=0)


class TestNormalizeScores:
    def test_anchors(self):
        normalized = normalize_scores([10.0, 30.0], random_score=10.0, bb_score=30.0)
        assert normalized[0] == pytest.approx(0.0)
        assert normalized[1] == pytest.approx(1.0)

    def test_below_random_is_negative(self):
        normalized = normalize_scores([-5.0], random_score=0.0, bb_score=10.0)
        assert normalized[0] < 0.0

    def test_above_bb_exceeds_one(self):
        normalized = normalize_scores([20.0], random_score=0.0, bb_score=10.0)
        assert normalized[0] == pytest.approx(2.0)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([1.0], random_score=5.0, bb_score=5.0)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    def test_property_affine_invariance(self, score, random_score, gap):
        # Normalization is invariant under shifting all three scores.
        if abs(gap) < 1e-6:
            return
        bb = random_score + gap
        base = normalize_scores([score], random_score, bb)[0]
        shifted = normalize_scores([score + 7.0], random_score + 7.0, bb + 7.0)[0]
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-6)


class TestEmpiricalCdf:
    def test_sorted_output(self):
        values, fractions = empirical_cdf([3.0, 1.0, 2.0])
        assert np.array_equal(values, [1.0, 2.0, 3.0])
        assert np.allclose(fractions, [1 / 3, 2 / 3, 1.0])

    def test_last_fraction_is_one(self):
        _, fractions = empirical_cdf(np.random.default_rng(0).random(17))
        assert fractions[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_property_monotone(self, values):
        sorted_values, fractions = empirical_cdf(values)
        assert np.all(np.diff(sorted_values) >= 0)
        assert np.all(np.diff(fractions) > 0)


class TestSummarize:
    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 10.0])
        assert summary["max"] == 10.0
        assert summary["min"] == 1.0
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["median"] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
