"""Pensieve's actor and critic networks.

Architecture (faithful to [27] at configurable width): the ``(6, 8)``
observation matrix is split into its semantic parts, each processed by its
own branch —

* scalars (last bitrate, buffer level, chunks remaining): one dense unit
  layer each,
* history vectors (throughput, download time): 1-D convolution over the 8
  past chunks,
* next-chunk sizes: 1-D convolution over the ladder,

— then concatenated and merged through a dense hidden layer.  The actor
puts a softmax over ladder rungs on top; the critic a single linear unit.

Gradients flow through every branch via the :mod:`repro.nn` layers; the
trunk exposes flat parameter/gradient lists so the optimizers can treat the
whole network uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.abr.state import S_INFO, S_LEN
from repro.errors import ModelError
from repro.nn.layers import Conv1D, Dense, Flatten, ReLU
from repro.nn.losses import softmax
from repro.nn.network import Sequential

__all__ = ["PensieveTrunk", "ActorNetwork", "CriticNetwork"]

_CONV_KERNEL = 4


class PensieveTrunk:
    """Shared feature extractor: branch-per-row, concatenate, merge."""

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int = 16,
        hidden: int = 64,
    ) -> None:
        if num_bitrates < 2:
            raise ModelError(f"need >= 2 bitrates, got {num_bitrates}")
        if filters < 1 or hidden < 1:
            raise ModelError(
                f"filters and hidden must be positive, got ({filters}, {hidden})"
            )
        if num_bitrates < _CONV_KERNEL:
            raise ModelError(
                f"ladder of {num_bitrates} rungs shorter than conv kernel "
                f"{_CONV_KERNEL}"
            )
        self.num_bitrates = num_bitrates
        self.filters = filters
        self.hidden = hidden
        self._scalar_bitrate = Sequential([Dense(1, filters, rng), ReLU()])
        self._scalar_buffer = Sequential([Dense(1, filters, rng), ReLU()])
        self._scalar_remaining = Sequential([Dense(1, filters, rng), ReLU()])
        self._conv_throughput = Sequential(
            [Conv1D(1, filters, _CONV_KERNEL, rng), ReLU(), Flatten()]
        )
        self._conv_delay = Sequential(
            [Conv1D(1, filters, _CONV_KERNEL, rng), ReLU(), Flatten()]
        )
        self._conv_sizes = Sequential(
            [Conv1D(1, filters, _CONV_KERNEL, rng), ReLU(), Flatten()]
        )
        history_features = filters * (S_LEN - _CONV_KERNEL + 1)
        size_features = filters * (num_bitrates - _CONV_KERNEL + 1)
        merged = 3 * filters + 2 * history_features + size_features
        self._merge = Sequential([Dense(merged, hidden, rng), ReLU()])
        self._branches = [
            self._scalar_bitrate,
            self._scalar_buffer,
            self._scalar_remaining,
            self._conv_throughput,
            self._conv_delay,
            self._conv_sizes,
        ]
        self._split_points: list[int] | None = None

    @property
    def params(self) -> list[np.ndarray]:
        """All trainable parameters, branches first, merge layer last."""
        params = [p for branch in self._branches for p in branch.params]
        return params + self._merge.params

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient accumulators aligned with :attr:`params`."""
        grads = [g for branch in self._branches for g in branch.grads]
        return grads + self._merge.grads

    def zero_grads(self) -> None:
        """Reset all gradient accumulators."""
        for branch in self._branches:
            branch.zero_grads()
        self._merge.zero_grads()

    def forward(self, observations: np.ndarray) -> np.ndarray:
        """Map a ``(batch, 6, 8)`` observation batch to ``(batch, hidden)``."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim == 2:
            obs = obs[None, :, :]
        if obs.ndim != 3 or obs.shape[1:] != (S_INFO, S_LEN):
            raise ModelError(
                f"expected (batch, {S_INFO}, {S_LEN}) observations, got {obs.shape}"
            )
        batch = obs.shape[0]
        outputs = [
            self._scalar_bitrate.forward(obs[:, 0, -1:].reshape(batch, 1)),
            self._scalar_buffer.forward(obs[:, 1, -1:].reshape(batch, 1)),
            self._scalar_remaining.forward(obs[:, 5, -1:].reshape(batch, 1)),
            self._conv_throughput.forward(obs[:, 2, :].reshape(batch, 1, S_LEN)),
            self._conv_delay.forward(obs[:, 3, :].reshape(batch, 1, S_LEN)),
            self._conv_sizes.forward(
                obs[:, 4, : self.num_bitrates].reshape(batch, 1, self.num_bitrates)
            ),
        ]
        widths = [out.shape[1] for out in outputs]
        self._split_points = list(np.cumsum(widths)[:-1])
        return self._merge.forward(np.concatenate(outputs, axis=1))

    def backward(self, grad_features: np.ndarray) -> None:
        """Backpropagate through the merge layer and every branch.

        Input gradients are not needed (observations are data), so nothing
        is returned; parameter gradients are accumulated in place.
        """
        if self._split_points is None:
            raise ModelError("backward called before forward")
        grad_concat = self._merge.backward(grad_features)
        pieces = np.split(grad_concat, self._split_points, axis=1)
        for branch, piece in zip(self._branches, pieces):
            branch.backward(piece)

    def features_inference(
        self, observations: np.ndarray, row_stable: bool = False
    ) -> np.ndarray:
        """Gradient-free forward pass, bitwise-identical to :meth:`forward`.

        Performs the same arithmetic as the layer objects but fused into
        one function: no per-layer dispatch, no backward caches, and the
        single-input-channel convolutions reduced to broadcast multiplies
        (a one-term sum, so the floats are exactly those of the einsum).
        Reads the live weights on every call, so it never goes stale under
        in-situ adaptation.

        ``row_stable=True`` makes each output row bitwise-equal to that
        observation's features computed alone: the merge matmul runs as
        stacked ``(batch, 1, n) @ (n, m)`` single-row products, where a 2-D
        matmul's accumulation order may depend on the batch size.
        """
        obs = np.asarray(observations, dtype=float)
        if obs.ndim == 2:
            obs = obs[None, :, :]
        if obs.ndim != 3 or obs.shape[1:] != (S_INFO, S_LEN):
            raise ModelError(
                f"expected (batch, {S_INFO}, {S_LEN}) observations, got {obs.shape}"
            )
        batch = obs.shape[0]
        # The three scalar branches are Dense(1, F): a one-term matmul, so
        # all three reduce to a single broadcast multiply-add.  Flattening
        # (batch, 3, F) row-major reproduces their concatenation order.
        # Weight gathers use preallocated buffers instead of np.stack: this
        # runs per decision step, and np.stack's shape bookkeeping costs
        # more than the arithmetic on arrays this small.
        scalars = obs[:, (0, 1, 5), -1]
        branches = self._branches
        filters = branches[0].layers[0].weight.shape[1]
        dense_w = np.empty((3, filters))
        dense_b = np.empty((3, filters))
        for i in range(3):
            dense_w[i] = branches[i].layers[0].weight[0]
            dense_b[i] = branches[i].layers[0].bias
        ys = scalars[:, :, None] * dense_w[None] + dense_b[None]
        ys = np.where(ys > 0, ys, 0.0).reshape(batch, -1)
        # The throughput and delay convolutions share their input shape, so
        # both history branches run as one broadcast offset loop; the
        # ladder-length sizes branch keeps its own.  Seeding the accumulator
        # with the first offset term instead of zeros can only flip the sign
        # of an exact zero, which the ReLU maps to +0.0 either way.
        throughput_conv = self._conv_throughput.layers[0]
        delay_conv = self._conv_delay.layers[0]
        kernel = throughput_conv.kernel_size
        out_length = S_LEN - kernel + 1
        histories = obs[:, (2, 3), None, :]
        out_channels = throughput_conv.weight.shape[0]
        conv_w = np.empty((2, out_channels, kernel))
        conv_w[0] = throughput_conv.weight[:, 0, :]
        conv_w[1] = delay_conv.weight[:, 0, :]
        conv_b = np.empty((2, out_channels))
        conv_b[0] = throughput_conv.bias
        conv_b[1] = delay_conv.bias
        # einsum("bcl,oc->bol") with c == 1 is a plain broadcast product.
        out = histories[..., 0:out_length] * conv_w[None, :, :, 0, None]
        for offset in range(1, kernel):
            out += (
                histories[..., offset : offset + out_length]
                * conv_w[None, :, :, offset, None]
            )
        out = out + conv_b[None, :, :, None]
        out = np.where(out > 0, out, 0.0).reshape(batch, -1)
        sizes = _conv_relu_flat(
            obs[:, 4, : self.num_bitrates].reshape(batch, 1, self.num_bitrates),
            self._conv_sizes,
        )
        return _dense_relu(
            np.concatenate([ys, out, sizes], axis=1), self._merge, row_stable
        )


def _export_params(params: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Index-keyed parameter copies, the on-disk ``.npz`` weight layout."""
    return {f"p{index}": param.copy() for index, param in enumerate(params)}


def _import_params(params: list[np.ndarray], arrays) -> None:
    """Shape-checked in-place load of an :func:`_export_params` mapping."""
    for index, param in enumerate(params):
        key = f"p{index}"
        if key not in arrays:
            raise ModelError(f"weight arrays missing parameter {key}")
        value = np.asarray(arrays[key], dtype=float)
        if value.shape != param.shape:
            raise ModelError(
                f"parameter {key} shape {value.shape} != expected {param.shape}"
            )
        param[...] = value


def _matmul(x: np.ndarray, weight: np.ndarray, row_stable: bool) -> np.ndarray:
    """``x @ weight``; with *row_stable*, one stacked single-row product
    per row, so each row's floats do not depend on the batch size."""
    if row_stable:
        return (x[:, None, :] @ weight)[:, 0, :]
    return x @ weight


def _dense_relu(x: np.ndarray, branch: Sequential, row_stable: bool) -> np.ndarray:
    """Fused Dense->ReLU with the exact arithmetic of the layer objects."""
    dense = branch.layers[0]
    y = _matmul(x, dense.weight, row_stable) + dense.bias
    return np.where(y > 0, y, 0.0)


def _conv_relu_flat(x: np.ndarray, branch: Sequential) -> np.ndarray:
    """Fused Conv1D->ReLU->Flatten for single-input-channel convolutions."""
    conv = branch.layers[0]
    out_length = x.shape[2] - conv.kernel_size + 1
    # einsum("bcl,oc->bol") with c == 1 is a plain broadcast product; the
    # first-term seed vs. a zeros accumulator only affects zero signs,
    # which the ReLU normalizes.
    out = x[:, :, 0:out_length] * conv.weight[None, :, 0, 0, None]
    for offset in range(1, conv.kernel_size):
        out += x[:, :, offset : offset + out_length] * conv.weight[None, :, 0, offset, None]
    out = out + conv.bias[None, :, None]
    out = np.where(out > 0, out, 0.0)
    return out.reshape(x.shape[0], -1)


class ActorNetwork:
    """Policy network: trunk features -> softmax over ladder rungs."""

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int = 16,
        hidden: int = 64,
    ) -> None:
        self.trunk = PensieveTrunk(num_bitrates, rng, filters=filters, hidden=hidden)
        self.head = Dense(hidden, num_bitrates, rng)

    @property
    def params(self) -> list[np.ndarray]:
        return self.trunk.params + self.head.params

    @property
    def grads(self) -> list[np.ndarray]:
        return self.trunk.grads + self.head.grads

    def zero_grads(self) -> None:
        """Reset the gradient accumulators of trunk and head."""
        self.trunk.zero_grads()
        self.head.zero_grads()

    def logits(self, observations: np.ndarray) -> np.ndarray:
        """Unnormalized action scores, shape ``(batch, num_bitrates)``."""
        return self.head.forward(self.trunk.forward(observations))

    def probabilities(self, observations: np.ndarray) -> np.ndarray:
        """Action distribution per observation."""
        return softmax(self.logits(observations))

    def probabilities_inference(
        self, observations: np.ndarray, row_stable: bool = False
    ) -> np.ndarray:
        """Gradient-free action distribution, bitwise-identical to
        :meth:`probabilities` but through the fused trunk forward.

        ``row_stable=True`` makes each row bitwise-equal to a
        single-observation call (see :meth:`PensieveTrunk.features_inference`).
        """
        features = self.trunk.features_inference(observations, row_stable)
        return softmax(
            _matmul(features, self.head.weight, row_stable) + self.head.bias
        )

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient on the logits through head and trunk."""
        self.trunk.backward(self.head.backward(grad_logits))

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Index-keyed copies of every parameter, for ``.npz`` persistence
        (see :meth:`repro.experiments.artifacts.ArtifactCache.store_arrays`)."""
        return _export_params(self.params)

    def load_state_arrays(self, arrays) -> None:
        """Shape-checked in-place load of a :meth:`state_arrays` mapping."""
        _import_params(self.params, arrays)


class CriticNetwork:
    """Value network: trunk features -> scalar state value."""

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int = 16,
        hidden: int = 64,
    ) -> None:
        self.trunk = PensieveTrunk(num_bitrates, rng, filters=filters, hidden=hidden)
        self.head = Dense(hidden, 1, rng)

    @property
    def params(self) -> list[np.ndarray]:
        return self.trunk.params + self.head.params

    @property
    def grads(self) -> list[np.ndarray]:
        return self.trunk.grads + self.head.grads

    def zero_grads(self) -> None:
        """Reset the gradient accumulators of trunk and head."""
        self.trunk.zero_grads()
        self.head.zero_grads()

    def values(self, observations: np.ndarray) -> np.ndarray:
        """State values, shape ``(batch,)``."""
        return self.head.forward(self.trunk.forward(observations))[:, 0]

    def values_inference(self, observations: np.ndarray) -> np.ndarray:
        """Gradient-free state values, bitwise-identical to :meth:`values`
        but through the fused trunk forward."""
        features = self.trunk.features_inference(observations)
        return (features @ self.head.weight + self.head.bias)[:, 0]

    def backward(self, grad_values: np.ndarray) -> None:
        """Backpropagate a gradient on the scalar values."""
        grad = np.asarray(grad_values, dtype=float).reshape(-1, 1)
        self.trunk.backward(self.head.backward(grad))

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Index-keyed copies of every parameter, for ``.npz`` persistence
        (see :meth:`repro.experiments.artifacts.ArtifactCache.store_arrays`)."""
        return _export_params(self.params)

    def load_state_arrays(self, arrays) -> None:
        """Shape-checked in-place load of a :meth:`state_arrays` mapping."""
        _import_params(self.params, arrays)
