"""First-order optimizers operating on (params, grads) array lists.

Pensieve's reference implementation trained the actor and critic with
RMSProp; Adam is provided as well.  Optimizers mutate parameter arrays in
place so that layers, ensembles, and save/load all observe the same storage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelError

__all__ = ["Optimizer", "RMSProp", "Adam", "StackedRMSProp"]


class Optimizer:
    """Base optimizer bound to a fixed list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], learning_rate: float) -> None:
        if not 0 < learning_rate < math.inf:  # NaN fails this comparison too
            raise ModelError(
                f"learning_rate must be positive and finite, got {learning_rate}"
            )
        self.params = list(params)
        self.learning_rate = learning_rate

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one update given gradients aligned with the parameters."""
        if len(grads) != len(self.params):
            raise ModelError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        for index, (param, grad) in enumerate(zip(self.params, grads)):
            if param.shape != grad.shape:
                raise ModelError(
                    f"parameter {index} shape {param.shape} != gradient {grad.shape}"
                )
            self._update(index, param, grad)

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError


class RMSProp(Optimizer):
    """RMSProp, the optimizer used by the original Pensieve training code."""

    def __init__(
        self,
        params: list[np.ndarray],
        learning_rate: float = 1e-3,
        decay: float = 0.99,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(params, learning_rate)
        if not 0.0 < decay < 1.0:
            raise ModelError(f"decay must be in (0, 1), got {decay}")
        self.decay = decay
        self.epsilon = epsilon
        self._mean_square = [np.zeros_like(p) for p in self.params]

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        mean_square = self._mean_square[index]
        mean_square *= self.decay
        mean_square += (1.0 - self.decay) * grad**2
        param -= self.learning_rate * grad / (np.sqrt(mean_square) + self.epsilon)


class StackedRMSProp(RMSProp):
    """:class:`RMSProp` over member-stacked ``(members, ...)`` parameters.

    The RMSProp update rule is purely elementwise, so stepping one stacked
    array is bitwise identical to stepping each member's slice with its
    own :class:`RMSProp` instance — member *m*'s mean-square accumulator
    occupies slice ``m`` of the stacked accumulator and never mixes with
    the others.  This subclass adds no arithmetic; it exists so the
    lockstep A2C trainer's optimizer states are explicitly documented
    as per-member-independent.
    """


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(
        self,
        params: list[np.ndarray],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(params, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ModelError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        self._step_count += 1
        super().step(grads)

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m[index]
        v = self._v[index]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**self._step_count)
        v_hat = v / (1.0 - self.beta2**self._step_count)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
