"""Tests for repro.nn.layers: every backward pass is gradient-checked."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.layers import Conv1D, Dense, Flatten, ReLU, Tanh

RNG = np.random.default_rng(0)


def check_layer_gradients(layer, x, tolerance=1e-6):
    """Gradient-check d(sum of outputs)/d(params) and d/d(input)."""
    weights = RNG.normal(size=layer.forward(x).shape)  # random projection

    def loss() -> float:
        return float((layer.forward(x) * weights).sum())

    layer.zero_grads()
    layer.forward(x)
    grad_x = layer.backward(weights)
    numeric_x = numerical_gradient(loss, x)
    assert relative_error(grad_x, numeric_x) < tolerance
    for param, grad in zip(layer.params, layer.grads):
        numeric = numerical_gradient(loss, param)
        assert relative_error(grad, numeric) < tolerance


class TestDense:
    def test_forward_shape_and_value(self):
        layer = Dense(3, 2, RNG)
        x = np.ones((4, 3))
        out = layer.forward(x)
        assert out.shape == (4, 2)
        expected = x @ layer.weight + layer.bias
        assert np.allclose(out, expected)

    def test_gradients(self):
        layer = Dense(4, 3, RNG)
        check_layer_gradients(layer, RNG.normal(size=(5, 4)))

    def test_gradient_accumulation(self):
        layer = Dense(2, 2, RNG)
        x = RNG.normal(size=(3, 2))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        first = layer.grad_weight.copy()
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        assert np.allclose(layer.grad_weight, 2 * first)

    def test_zero_grads(self):
        layer = Dense(2, 2, RNG)
        layer.forward(RNG.normal(size=(1, 2)))
        layer.backward(np.ones((1, 2)))
        layer.zero_grads()
        assert np.all(layer.grad_weight == 0)

    def test_wrong_input_shape_rejected(self):
        layer = Dense(3, 2, RNG)
        with pytest.raises(ModelError):
            layer.forward(np.ones((4, 5)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ModelError):
            Dense(2, 2, RNG).backward(np.ones((1, 2)))

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ModelError):
            Dense(0, 2, RNG)


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Tanh])
    def test_gradients(self, cls):
        layer = cls()
        # Keep inputs away from the ReLU kink where the numeric gradient
        # is ill-defined.
        x = RNG.normal(size=(4, 6))
        x[np.abs(x) < 1e-3] = 0.5
        check_layer_gradients(layer, x)

    def test_relu_clamps_negative(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_tanh_range(self):
        out = Tanh().forward(RNG.normal(size=(3, 3)) * 10)
        assert np.all(np.abs(out) <= 1.0)


class TestConv1D:
    def test_output_shape(self):
        layer = Conv1D(2, 5, 3, RNG)
        out = layer.forward(RNG.normal(size=(4, 2, 8)))
        assert out.shape == (4, 5, 6)

    def test_matches_direct_convolution(self):
        layer = Conv1D(1, 1, 2, RNG)
        x = np.arange(5.0).reshape(1, 1, 5)
        out = layer.forward(x)
        w = layer.weight[0, 0]
        expected = [
            x[0, 0, i] * w[0] + x[0, 0, i + 1] * w[1] + layer.bias[0]
            for i in range(4)
        ]
        assert np.allclose(out[0, 0], expected)

    def test_gradients(self):
        layer = Conv1D(2, 3, 3, RNG)
        check_layer_gradients(layer, RNG.normal(size=(2, 2, 7)))

    def test_too_short_input_rejected(self):
        layer = Conv1D(1, 1, 4, RNG)
        with pytest.raises(ModelError):
            layer.forward(np.ones((1, 1, 3)))

    def test_wrong_channels_rejected(self):
        layer = Conv1D(2, 1, 2, RNG)
        with pytest.raises(ModelError):
            layer.forward(np.ones((1, 3, 8)))


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = RNG.normal(size=(3, 2, 4))
        out = layer.forward(x)
        assert out.shape == (3, 8)
        back = layer.backward(out)
        assert back.shape == x.shape
        assert np.allclose(back, x)
