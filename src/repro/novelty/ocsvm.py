"""The ν-one-class SVM of Schölkopf et al. [44], solved with SMO.

The dual problem is::

    minimize    (1/2) * alpha^T K alpha
    subject to  0 <= alpha_i <= 1 / (nu * n),   sum_i alpha_i = 1

with decision function ``f(x) = sum_i alpha_i k(x_i, x) - rho``; ``f >= 0``
inside the learned region (+1), negative outside (-1).  ``nu`` upper-bounds
the fraction of training outliers and lower-bounds the fraction of support
vectors.

The solver is sequential minimal optimization with first-order working-set
selection (the LIBSVM heuristic): at each step pick the most violating
pair under the equality constraint, solve the two-variable subproblem in
closed form, and update the gradient incrementally.  ``rho`` is recovered
as the mean of ``(K alpha)_i`` over unbounded support vectors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NoveltyError
from repro.novelty.base import NoveltyDetector
from repro.novelty.kernels import median_heuristic_gamma, rbf_kernel

__all__ = ["OneClassSVM"]

_ALPHA_TOL = 1e-8


class OneClassSVM(NoveltyDetector):
    """RBF-kernel ν-OC-SVM trained by SMO."""

    def __init__(
        self,
        nu: float = 0.1,
        gamma: float | None = None,
        tolerance: float = 1e-5,
        max_iterations: int = 100_000,
        prune: bool = True,
    ) -> None:
        super().__init__()
        if not 0.0 < nu <= 1.0:
            raise NoveltyError(f"nu must be in (0, 1], got {nu}")
        if gamma is not None and gamma <= 0:
            raise NoveltyError(f"gamma must be positive, got {gamma}")
        if tolerance <= 0:
            raise NoveltyError(f"tolerance must be positive, got {tolerance}")
        if max_iterations < 1:
            raise NoveltyError(f"max_iterations must be >= 1, got {max_iterations}")
        self.nu = nu
        self.gamma = gamma
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.prune = prune
        self.support_vectors_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.rho_: float = 0.0
        self.iterations_: int = 0

    def _fit(self, samples: np.ndarray) -> None:
        n = samples.shape[0]
        gamma = (
            self.gamma if self.gamma is not None else median_heuristic_gamma(samples)
        )
        self._gamma_value = gamma
        upper = 1.0 / (self.nu * n)
        kernel = rbf_kernel(samples, samples, gamma)
        alpha = self._initial_alpha(n, upper)
        gradient = kernel @ alpha
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # First-order working-set selection under sum(alpha) = 1:
            # i can receive weight (alpha_i < C), j can give it (alpha_j > 0).
            can_up = alpha < upper - _ALPHA_TOL
            can_down = alpha > _ALPHA_TOL
            if not can_up.any() or not can_down.any():
                break
            i = int(np.flatnonzero(can_up)[np.argmin(gradient[can_up])])
            j = int(np.flatnonzero(can_down)[np.argmax(gradient[can_down])])
            if gradient[j] - gradient[i] < self.tolerance:
                break
            eta = kernel[i, i] - 2.0 * kernel[i, j] + kernel[j, j]
            if eta <= 1e-12:
                eta = 1e-12
            delta = (gradient[j] - gradient[i]) / eta
            delta = min(delta, upper - alpha[i], alpha[j])
            if delta <= 0:
                break
            alpha[i] += delta
            alpha[j] -= delta
            gradient += delta * (kernel[:, i] - kernel[:, j])
        self.iterations_ = iterations
        support = alpha > _ALPHA_TOL
        # Zero-alpha rows contribute exactly 0 to every score; dropping them
        # shrinks the kernel evaluation from O(n) to O(#SV) per query with
        # bitwise-identical scores.  ``prune=False`` keeps all training rows
        # (the regression tests compare the two).
        keep = support if self.prune else np.ones(n, dtype=bool)
        self.support_vectors_ = samples[keep].copy()
        self.dual_coef_ = alpha[keep].copy()
        # Cached for scoring: |sv|^2 never changes after fit.
        self._sv_sq_norms = (self.support_vectors_**2).sum(axis=1)
        self._bound_fraction = float(
            np.mean(alpha[support] >= upper - _ALPHA_TOL)
        )
        self.rho_ = self._compute_rho(alpha, gradient, upper)

    def _scores(self, samples: np.ndarray) -> np.ndarray:
        # rbf_kernel inlined with the support-vector norms precomputed at
        # fit time; term-for-term the same arithmetic, so scores are
        # bitwise identical to ``rbf_kernel(...) @ dual_coef_ - rho_``.
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        sq_dists = (
            (samples**2).sum(axis=1)[:, None]
            + self._sv_sq_norms[None, :]
            - 2.0 * samples @ self.support_vectors_.T
        )
        kernel = np.exp(-self._gamma_value * np.maximum(sq_dists, 0.0))
        return kernel @ self.dual_coef_ - self.rho_

    @staticmethod
    def _initial_alpha(n: int, upper: float) -> np.ndarray:
        """LIBSVM's feasible start: saturate the first floor(nu*n) entries."""
        alpha = np.zeros(n)
        remaining = 1.0
        for index in range(n):
            alpha[index] = min(upper, remaining)
            remaining -= alpha[index]
            if remaining <= 0:
                break
        if remaining > 1e-12:
            raise NoveltyError(
                "infeasible dual: nu * n < 1 "
                f"(nu={1.0 / (upper * n):.4f}, n={n}); use a larger nu or more data"
            )
        return alpha

    def _compute_rho(
        self, alpha: np.ndarray, gradient: np.ndarray, upper: float
    ) -> float:
        unbounded = (alpha > _ALPHA_TOL) & (alpha < upper - _ALPHA_TOL)
        if unbounded.any():
            return float(gradient[unbounded].mean())
        # All support vectors at the bound: rho lies between the active sets.
        lower_set = gradient[alpha > _ALPHA_TOL]
        upper_set = gradient[alpha < upper - _ALPHA_TOL]
        candidates = []
        if lower_set.size:
            candidates.append(lower_set.max())
        if upper_set.size:
            candidates.append(upper_set.min())
        if not candidates:
            raise NoveltyError("degenerate OC-SVM solution: no support vectors")
        return float(np.mean(candidates))

    @property
    def training_outlier_fraction(self) -> float:
        """Fraction of training points at the upper bound (proxy for the
        fraction treated as outliers; should be <= nu up to degeneracies)."""
        if self.dual_coef_ is None:
            raise NoveltyError("OneClassSVM used before fit()")
        return self._bound_fraction

    def _validate(self, samples: np.ndarray, fitting: bool) -> np.ndarray:
        samples = super()._validate(samples, fitting)
        if fitting:
            if samples.shape[0] * self.nu < 1.0:
                raise NoveltyError(
                    f"need nu * n >= 1 for a feasible dual "
                    f"(nu={self.nu}, n={samples.shape[0]})"
                )
            self._n_train = samples.shape[0]
        return samples
