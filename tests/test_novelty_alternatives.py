"""Tests for repro.novelty.kde and repro.novelty.mahalanobis."""

import numpy as np
import pytest

from repro.errors import NoveltyError
from repro.novelty.kde import KDEDetector
from repro.novelty.mahalanobis import MahalanobisDetector


def cloud(n=200, center=0.0, seed=0, dim=2):
    return np.random.default_rng(seed).normal(center, 1.0, size=(n, dim))


DETECTORS = [
    lambda: KDEDetector(quantile=0.05),
    lambda: MahalanobisDetector(quantile=0.95),
]


@pytest.mark.parametrize("factory", DETECTORS, ids=["kde", "mahalanobis"])
class TestSharedBehaviour:
    def test_detects_far_cluster(self, factory):
        detector = factory().fit(cloud(seed=1))
        outliers = cloud(n=100, center=7.0, seed=2)
        assert float((detector.predict(outliers) == -1).mean()) > 0.95

    def test_accepts_in_distribution(self, factory):
        detector = factory().fit(cloud(seed=1))
        fresh = cloud(n=100, seed=3)
        assert float((detector.predict(fresh) == 1).mean()) > 0.8

    def test_unfitted_rejected(self, factory):
        with pytest.raises(NoveltyError):
            factory().predict(np.zeros((1, 2)))

    def test_scores_sign_consistent(self, factory):
        detector = factory().fit(cloud(seed=1))
        samples = np.vstack([cloud(30, seed=4), cloud(30, center=6.0, seed=5)])
        assert np.all(
            (detector.scores(samples) >= 0) == (detector.predict(samples) == 1)
        )

    def test_one_dimensional_input_promoted(self, factory):
        detector = factory().fit(cloud(seed=1))
        assert detector.predict(np.zeros(2)).shape == (1,)


class TestKDEDetails:
    def test_quantile_validation(self):
        with pytest.raises(NoveltyError):
            KDEDetector(quantile=0.0)
        with pytest.raises(NoveltyError):
            KDEDetector(quantile=1.0)

    def test_bandwidth_validation(self):
        with pytest.raises(NoveltyError):
            KDEDetector(bandwidth=0.0)

    def test_explicit_bandwidth_used(self):
        detector = KDEDetector(bandwidth=0.5).fit(cloud(n=50))
        assert detector._h == 0.5

    def test_training_flag_rate_near_quantile(self):
        train = cloud(n=400, seed=6)
        detector = KDEDetector(quantile=0.1).fit(train)
        flagged = float((detector.predict(train) == -1).mean())
        assert flagged == pytest.approx(0.1, abs=0.05)


class TestMahalanobisDetails:
    def test_quantile_validation(self):
        with pytest.raises(NoveltyError):
            MahalanobisDetector(quantile=1.5)

    def test_regularization_validation(self):
        with pytest.raises(NoveltyError):
            MahalanobisDetector(regularization=0.0)

    def test_handles_degenerate_covariance(self):
        # One dimension is constant: regularization must keep this solvable.
        rng = np.random.default_rng(0)
        train = np.column_stack([rng.normal(size=100), np.ones(100)])
        detector = MahalanobisDetector().fit(train)
        assert detector.predict(train).shape == (100,)

    def test_respects_anisotropy(self):
        # A point far along the low-variance axis must be flagged even if a
        # point equally far along the high-variance axis is not.
        rng = np.random.default_rng(1)
        train = np.column_stack(
            [rng.normal(0, 10.0, size=500), rng.normal(0, 0.5, size=500)]
        )
        detector = MahalanobisDetector(quantile=0.99).fit(train)
        along_wide = np.array([[15.0, 0.0]])
        along_narrow = np.array([[0.0, 15.0]])
        assert detector.predict(along_narrow)[0] == -1
        assert detector.predict(along_wide)[0] == 1
