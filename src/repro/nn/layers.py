"""Layers with explicit forward/backward passes.

Each layer caches whatever its backward pass needs during ``forward`` and
accumulates parameter gradients into ``.grads`` during ``backward``.  Calling
``zero_grads`` between optimizer steps resets the accumulators; gradients from
multiple backward passes otherwise sum, which is exactly what the A2C trainer
wants when it combines policy and entropy losses.

Shapes are batch-first: :class:`Dense` takes ``(batch, features)``,
:class:`Conv1D` takes ``(batch, channels, length)``.

:class:`StackedDense` and :class:`StackedConv1D` are the member-stacked
variants behind the lockstep A2C trainer: they hold the parameters of
``M`` structurally identical layers as ``(members, ...)`` arrays and run
one batched pass over ``(members, batch, ...)`` inputs.  Every operation
is arranged so member *m*'s slice goes through exactly the arithmetic of
its own layer — stacked ``matmul`` dispatches one GEMM per member slice
and the convolution einsums keep their contraction order — so forwards,
backwards, and accumulated gradients are **bitwise identical** to looping
over the member layers (asserted by the regression tests).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, zeros

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Conv1D",
    "Flatten",
    "StackedDense",
    "StackedConv1D",
]


class Layer:
    """Base class: a differentiable function with (possibly zero) parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output, caching what backward needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given d(loss)/d(output), accumulate parameter gradients and
        return d(loss)/d(input)."""
        raise NotImplementedError

    @property
    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return []

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient accumulators aligned with :attr:`params`."""
        return []

    def zero_grads(self) -> None:
        """Reset gradient accumulators to zero."""
        for grad in self.grads:
            grad[...] = 0.0


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        initializer=glorot_uniform,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ModelError(
                "Dense dimensions must be positive, got "
                f"({in_features}, {out_features})"
            )
        self.weight = initializer((in_features, out_features), rng)
        self.bias = zeros((out_features,), rng)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ModelError(
                f"Dense expected (batch, {self.weight.shape[0]}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ModelError("backward called before forward")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ModelError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise ModelError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class Conv1D(Layer):
    """Valid 1-D convolution over ``(batch, channels, length)`` inputs.

    Pensieve applies 1-D convolutions over its throughput / download-time /
    next-chunk-size history vectors; this is the same operation with stride 1
    and no padding, so the output length is ``length - kernel_size + 1``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        initializer=glorot_uniform,
    ) -> None:
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ModelError("Conv1D dimensions must be positive")
        self.kernel_size = kernel_size
        self.weight = initializer((out_channels, in_channels, kernel_size), rng)
        self.bias = zeros((out_channels,), rng)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != self.weight.shape[1]:
            raise ModelError(
                f"Conv1D expected (batch, {self.weight.shape[1]}, length), "
                f"got {x.shape}"
            )
        if x.shape[2] < self.kernel_size:
            raise ModelError(
                f"input length {x.shape[2]} shorter than kernel {self.kernel_size}"
            )
        self._x = x
        out_length = x.shape[2] - self.kernel_size + 1
        # (batch, out_channels, out_length) via one einsum per kernel offset.
        out = np.zeros((x.shape[0], self.weight.shape[0], out_length))
        for offset in range(self.kernel_size):
            segment = x[:, :, offset : offset + out_length]
            out += np.einsum("bcl,oc->bol", segment, self.weight[:, :, offset])
        return out + self.bias[None, :, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ModelError("backward called before forward")
        x = self._x
        out_length = grad_out.shape[2]
        grad_x = np.zeros_like(x)
        for offset in range(self.kernel_size):
            segment = x[:, :, offset : offset + out_length]
            self.grad_weight[:, :, offset] += np.einsum(
                "bol,bcl->oc", grad_out, segment
            )
            grad_x[:, :, offset : offset + out_length] += np.einsum(
                "bol,oc->bcl", grad_out, self.weight[:, :, offset]
            )
        self.grad_bias += grad_out.sum(axis=(0, 2))
        return grad_x

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise ModelError("backward called before forward")
        return grad_out.reshape(self._shape)


class StackedDense(Layer):
    """``M`` member :class:`Dense` layers trained as one batched layer.

    Holds weights ``(members, in, out)`` and biases ``(members, out)``;
    ``forward`` maps ``(members, batch, in)`` to ``(members, batch, out)``
    with a single stacked matmul, and ``backward`` accumulates per-member
    gradients with two more.  Member *m*'s slice performs exactly the
    floats of its own :class:`Dense` layer, so training through this class
    reproduces the member-by-member loop bit for bit.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=float)
        bias = np.asarray(bias, dtype=float)
        if weight.ndim != 3:
            raise ModelError(
                f"stacked weight must be (members, in, out), got {weight.shape}"
            )
        if bias.shape != (weight.shape[0], weight.shape[2]):
            raise ModelError(
                f"stacked bias {bias.shape} does not match weight {weight.shape}"
            )
        self.weight = weight
        self.bias = bias
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @classmethod
    def from_layers(cls, layers: list[Dense]) -> "StackedDense":
        """Stack the (copied) parameters of identically shaped members."""
        if not layers:
            raise ModelError("need at least one Dense layer to stack")
        shapes = {layer.weight.shape for layer in layers}
        if len(shapes) != 1:
            raise ModelError(f"cannot stack Dense layers of shapes {sorted(shapes)}")
        return cls(
            np.stack([layer.weight for layer in layers]),
            np.stack([layer.bias for layer in layers]),
        )

    def write_back(self, layers: list[Dense]) -> None:
        """Copy the trained stacked parameters into the member layers."""
        if len(layers) != self.weight.shape[0]:
            raise ModelError(
                f"{len(layers)} layers for {self.weight.shape[0]} stacked members"
            )
        for index, layer in enumerate(layers):
            layer.weight[...] = self.weight[index]
            layer.bias[...] = self.bias[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 3
            or x.shape[0] != self.weight.shape[0]
            or x.shape[2] != self.weight.shape[1]
        ):
            raise ModelError(
                f"StackedDense expected ({self.weight.shape[0]}, batch, "
                f"{self.weight.shape[1]}), got {x.shape}"
            )
        self._x = x
        return np.matmul(x, self.weight) + self.bias[:, None, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ModelError("backward called before forward")
        self.grad_weight += np.matmul(self._x.transpose(0, 2, 1), grad_out)
        self.grad_bias += grad_out.sum(axis=1)
        return np.matmul(grad_out, self.weight.transpose(0, 2, 1))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class StackedConv1D(Layer):
    """``M`` member :class:`Conv1D` layers trained as one batched layer.

    Weights are ``(members, out_channels, in_channels, kernel)``; inputs
    ``(members, batch, channels, length)``.  Forward and backward run the
    same one-einsum-per-kernel-offset loops as :class:`Conv1D` with a
    leading member axis, preserving the per-member contraction order so
    the results are bitwise identical to the member loop.  Pass
    ``input_grad=False`` to ``backward`` to skip the input-gradient einsum
    when the layer input is data (parameter gradients are unaffected).
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=float)
        bias = np.asarray(bias, dtype=float)
        if weight.ndim != 4:
            raise ModelError(
                f"stacked weight must be (members, out, in, kernel), got {weight.shape}"
            )
        if bias.shape != weight.shape[:2]:
            raise ModelError(
                f"stacked bias {bias.shape} does not match weight {weight.shape}"
            )
        self.kernel_size = weight.shape[3]
        self.weight = weight
        self.bias = bias
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @classmethod
    def from_layers(cls, layers: list[Conv1D]) -> "StackedConv1D":
        """Stack the (copied) parameters of identically shaped members."""
        if not layers:
            raise ModelError("need at least one Conv1D layer to stack")
        shapes = {layer.weight.shape for layer in layers}
        if len(shapes) != 1:
            raise ModelError(f"cannot stack Conv1D layers of shapes {sorted(shapes)}")
        return cls(
            np.stack([layer.weight for layer in layers]),
            np.stack([layer.bias for layer in layers]),
        )

    def write_back(self, layers: list[Conv1D]) -> None:
        """Copy the trained stacked parameters into the member layers."""
        if len(layers) != self.weight.shape[0]:
            raise ModelError(
                f"{len(layers)} layers for {self.weight.shape[0]} stacked members"
            )
        for index, layer in enumerate(layers):
            layer.weight[...] = self.weight[index]
            layer.bias[...] = self.bias[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 4
            or x.shape[0] != self.weight.shape[0]
            or x.shape[2] != self.weight.shape[2]
        ):
            raise ModelError(
                f"StackedConv1D expected ({self.weight.shape[0]}, batch, "
                f"{self.weight.shape[2]}, length), got {x.shape}"
            )
        if x.shape[3] < self.kernel_size:
            raise ModelError(
                f"input length {x.shape[3]} shorter than kernel {self.kernel_size}"
            )
        self._x = x
        out_length = x.shape[3] - self.kernel_size + 1
        out = np.zeros((x.shape[0], x.shape[1], self.weight.shape[1], out_length))
        for offset in range(self.kernel_size):
            segment = x[:, :, :, offset : offset + out_length]
            out += np.einsum("mbcl,moc->mbol", segment, self.weight[:, :, :, offset])
        return out + self.bias[:, None, :, None]

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise ModelError("backward called before forward")
        x = self._x
        out_length = grad_out.shape[3]
        grad_x = np.zeros_like(x) if input_grad else None
        for offset in range(self.kernel_size):
            segment = x[:, :, :, offset : offset + out_length]
            self.grad_weight[:, :, :, offset] += np.einsum(
                "mbol,mbcl->moc", grad_out, segment
            )
            if grad_x is not None:
                grad_x[:, :, :, offset : offset + out_length] += np.einsum(
                    "mbol,moc->mbcl", grad_out, self.weight[:, :, :, offset]
                )
        self.grad_bias += grad_out.sum(axis=(1, 3))
        return grad_x

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]
