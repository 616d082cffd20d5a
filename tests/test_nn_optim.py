"""Tests for repro.nn.optim: SGD, RMSProp, Adam."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.optim import SGD, Adam, RMSProp, StackedRMSProp


def quadratic_descent(optimizer_factory, steps=200):
    """Minimize ||x||^2 from a fixed start; return the final point."""
    x = np.array([3.0, -2.0])
    optimizer = optimizer_factory([x])
    for _ in range(steps):
        optimizer.step([2.0 * x])
    return x


class TestConvergence:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda params: SGD(params, learning_rate=0.1),
            lambda params: SGD(params, learning_rate=0.05, momentum=0.9),
            lambda params: RMSProp(params, learning_rate=0.05),
            lambda params: Adam(params, learning_rate=0.2),
        ],
        ids=["sgd", "sgd-momentum", "rmsprop", "adam"],
    )
    def test_minimizes_quadratic(self, factory):
        final = quadratic_descent(factory)
        assert np.linalg.norm(final) < 1e-2


class TestInPlaceSemantics:
    def test_updates_happen_in_place(self):
        x = np.ones(3)
        alias = x
        SGD([x], learning_rate=0.5).step([np.ones(3)])
        assert np.allclose(alias, 0.5)

    def test_multiple_params(self):
        a = np.ones(2)
        b = np.full(2, 2.0)
        optimizer = Adam([a, b], learning_rate=0.1)
        optimizer.step([np.ones(2), np.ones(2)])
        assert not np.allclose(a, 1.0)
        assert not np.allclose(b, 2.0)


class TestValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ModelError):
            SGD([np.ones(1)], learning_rate=0.0)
        for optimizer in (RMSProp, StackedRMSProp):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ModelError):
                    optimizer([np.ones((2, 1))], learning_rate=bad)
        with pytest.raises(ModelError):
            SGD([np.ones(1)], learning_rate=float("inf"))

    def test_bad_momentum(self):
        with pytest.raises(ModelError):
            SGD([np.ones(1)], momentum=1.0)

    def test_bad_decay(self):
        with pytest.raises(ModelError):
            RMSProp([np.ones(1)], decay=1.0)

    def test_bad_betas(self):
        with pytest.raises(ModelError):
            Adam([np.ones(1)], beta1=1.0)

    def test_gradient_count_mismatch(self):
        optimizer = SGD([np.ones(1), np.ones(1)])
        with pytest.raises(ModelError):
            optimizer.step([np.ones(1)])

    def test_gradient_shape_mismatch(self):
        optimizer = SGD([np.ones(2)])
        with pytest.raises(ModelError):
            optimizer.step([np.ones(3)])


class TestAdamBiasCorrection:
    def test_first_step_magnitude(self):
        # With bias correction the first Adam step is ~learning_rate.
        x = np.array([10.0])
        Adam([x], learning_rate=0.1).step([np.array([1.0])])
        assert x[0] == pytest.approx(10.0 - 0.1, abs=1e-6)
