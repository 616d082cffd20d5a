"""Tests for repro.nn.losses: softmax, entropy, KL."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.losses import entropy, kl_divergence, softmax

RNG = np.random.default_rng(0)

finite_logits = st.lists(
    st.floats(-50, 50), min_size=2, max_size=8
).map(lambda xs: np.array([xs]))


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax(RNG.normal(size=(4, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = RNG.normal(size=(2, 5))
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    @given(finite_logits)
    def test_property_valid_distribution(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0)


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8))

    def test_deterministic_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)

    def test_batched(self):
        probs = softmax(RNG.normal(size=(4, 3)))
        assert entropy(probs).shape == (4,)


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = softmax(RNG.normal(size=(5,)))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_non_negative(self):
        for _ in range(20):
            p = softmax(RNG.normal(size=(6,)))
            q = softmax(RNG.normal(size=(6,)))
            assert kl_divergence(p, q) >= -1e-12

    def test_asymmetry(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(float(kl_divergence(q, p)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(2) / 2, np.ones(3) / 3)

    @given(
        st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
    )
    def test_property_gibbs_inequality(self, raw_p, raw_q):
        p = np.array(raw_p) / np.sum(raw_p)
        q = np.array(raw_q) / np.sum(raw_q)
        assert float(kl_divergence(p, q)) >= -1e-9
