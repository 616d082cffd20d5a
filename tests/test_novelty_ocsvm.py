"""Tests for repro.novelty.ocsvm: the from-scratch ν-one-class SVM.

Verified against the defining properties of Schölkopf's formulation: the
dual constraints hold at the solution, ν bounds the training-outlier
fraction, and detection behaves correctly on controlled data.
"""

import numpy as np
import pytest

from repro.errors import NoveltyError
from repro.novelty.kernels import rbf_kernel
from repro.novelty.ocsvm import OneClassSVM

RNG = np.random.default_rng(42)


def gaussian_cloud(n=300, dim=3, center=0.0, seed=0):
    return np.random.default_rng(seed).normal(center, 1.0, size=(n, dim))


class TestDualFeasibility:
    def test_alpha_constraints_hold(self):
        train = gaussian_cloud()
        model = OneClassSVM(nu=0.1).fit(train)
        upper = 1.0 / (0.1 * train.shape[0])
        assert np.all(model.dual_coef_ >= -1e-10)
        assert np.all(model.dual_coef_ <= upper + 1e-10)
        assert model.dual_coef_.sum() == pytest.approx(1.0, abs=1e-8)

    def test_nu_bounds_training_outliers(self):
        train = gaussian_cloud(n=400)
        for nu in (0.05, 0.1, 0.3):
            model = OneClassSVM(nu=nu).fit(train)
            outlier_fraction = float((model.predict(train) == -1).mean())
            # Schölkopf: the outlier fraction is at most nu (up to
            # boundary effects of a few points).
            assert outlier_fraction <= nu + 0.03

    def test_support_vector_fraction_at_least_nu(self):
        train = gaussian_cloud(n=400)
        nu = 0.2
        model = OneClassSVM(nu=nu).fit(train)
        sv_fraction = model.support_vectors_.shape[0] / train.shape[0]
        assert sv_fraction >= nu - 0.03


class TestDetection:
    def test_detects_shifted_cluster(self):
        model = OneClassSVM(nu=0.1).fit(gaussian_cloud(seed=1))
        outliers = gaussian_cloud(n=100, center=6.0, seed=2)
        assert float((model.predict(outliers) == -1).mean()) > 0.95

    def test_accepts_fresh_in_distribution_data(self):
        model = OneClassSVM(nu=0.1).fit(gaussian_cloud(seed=1))
        fresh = gaussian_cloud(n=200, seed=3)
        assert float((model.predict(fresh) == 1).mean()) > 0.7

    def test_scores_sign_matches_predictions(self):
        model = OneClassSVM(nu=0.1).fit(gaussian_cloud(seed=1))
        samples = np.vstack(
            [gaussian_cloud(50, seed=4), gaussian_cloud(50, center=5.0, seed=5)]
        )
        scores = model.scores(samples)
        predictions = model.predict(samples)
        assert np.all((scores >= 0) == (predictions == 1))

    def test_is_outlier_single_sample(self):
        model = OneClassSVM(nu=0.1).fit(gaussian_cloud(seed=1))
        assert model.is_outlier(np.full(3, 8.0))
        assert not model.is_outlier(np.zeros(3))

    def test_custom_gamma(self):
        train = gaussian_cloud()
        model = OneClassSVM(nu=0.1, gamma=0.5).fit(train)
        assert model._gamma_value == 0.5


class TestValidation:
    def test_unfitted_usage_rejected(self):
        with pytest.raises(NoveltyError):
            OneClassSVM().scores(np.zeros((1, 2)))

    def test_bad_nu_rejected(self):
        with pytest.raises(NoveltyError):
            OneClassSVM(nu=0.0)
        with pytest.raises(NoveltyError):
            OneClassSVM(nu=1.5)

    def test_infeasible_nu_n_rejected(self):
        with pytest.raises(NoveltyError):
            OneClassSVM(nu=0.01).fit(np.zeros((5, 2)) + RNG.normal(size=(5, 2)))

    def test_dimension_mismatch_at_predict(self):
        model = OneClassSVM(nu=0.5).fit(gaussian_cloud(n=20, dim=3))
        with pytest.raises(NoveltyError):
            model.predict(np.zeros((1, 4)))

    def test_non_finite_samples_rejected(self):
        with pytest.raises(NoveltyError):
            OneClassSVM(nu=0.5).fit(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestDeterminism:
    def test_same_data_same_model(self):
        train = gaussian_cloud(n=100)
        a = OneClassSVM(nu=0.2).fit(train)
        b = OneClassSVM(nu=0.2).fit(train)
        probe = gaussian_cloud(n=30, seed=9)
        assert np.allclose(a.scores(probe), b.scores(probe))


class TestSupportVectorPruning:
    def test_pruned_and_unpruned_scores_agree(self):
        train = gaussian_cloud(n=300)
        probe = gaussian_cloud(n=100, seed=7)
        pruned = OneClassSVM(nu=0.1).fit(train)
        unpruned = OneClassSVM(nu=0.1, prune=False).fit(train)
        assert pruned.support_vectors_.shape[0] < train.shape[0]
        assert unpruned.support_vectors_.shape[0] == train.shape[0]
        # Dropped rows have dual coefficient exactly 0, so the only
        # difference is BLAS summation grouping over the extra zero terms
        # (at most 1 ULP).
        assert np.allclose(
            pruned._scores(probe), unpruned._scores(probe), rtol=0, atol=1e-12
        )
        assert np.array_equal(pruned.predict(probe), unpruned.predict(probe))
        assert (
            pruned.training_outlier_fraction == unpruned.training_outlier_fraction
        )

    def test_pruning_drops_only_zero_alpha_rows(self):
        train = gaussian_cloud(n=200)
        model = OneClassSVM(nu=0.2).fit(train)
        assert np.all(model.dual_coef_ > 0)

    def test_fast_scores_match_reference_path(self):
        train = gaussian_cloud(n=200)
        probe = gaussian_cloud(n=50, seed=3)
        model = OneClassSVM(nu=0.2).fit(train)
        kernel = rbf_kernel(probe, model.support_vectors_, model._gamma_value)
        reference = kernel @ model.dual_coef_ - model.rho_
        assert model._scores(probe).tobytes() == reference.tobytes()
