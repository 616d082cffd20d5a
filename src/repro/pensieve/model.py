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

Inference skips the layer objects: :func:`stacked_forward` is the one
fused, gradient-free forward, over the member-stacked
:class:`StackedWeights` of ``M >= 1`` networks.  A single network reads
its live weights as ``M = 1`` (:meth:`ActorNetwork.probabilities_inference`),
:class:`repro.pensieve.stacked.StackedEnsemble` snapshots an ensemble, and
the A2C trainer snapshots its stacked training weights once per rollout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.abr.state import S_INFO, S_LEN
from repro.errors import ModelError, ReproError
from repro.nn.layers import Conv1D, Dense, Flatten, ReLU
from repro.nn.losses import softmax
from repro.nn.network import Sequential

__all__ = [
    "PensieveTrunk",
    "PensieveNetwork",
    "ActorNetwork",
    "CriticNetwork",
    "StackedWeights",
    "stacked_forward",
]

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


class StackedWeights(NamedTuple):
    """Member-stacked weights of ``M >= 1`` identically shaped networks.

    The layout is branch-fused, as :func:`stacked_forward` reads it.
    """

    num_bitrates: int
    #: The three scalar ``Dense(1, F)`` branches, ``(M, 3, F)`` each.
    scalar_w: np.ndarray
    scalar_b: np.ndarray
    #: The throughput and delay convolutions: ``(M, 2, O, K)`` / ``(M, 2, O)``.
    history_w: np.ndarray
    history_b: np.ndarray
    #: The next-chunk-sizes convolution: ``(M, O, K)`` / ``(M, O)``.
    sizes_w: np.ndarray
    sizes_b: np.ndarray
    #: The merge layer, ``(M, merged, H)`` / ``(M, H)``.
    merge_w: np.ndarray
    merge_b: np.ndarray
    #: The head, ``(M, H, out)`` / ``(M, out)``.
    head_w: np.ndarray
    head_b: np.ndarray


def stacked_forward(
    weights: StackedWeights, observations: np.ndarray, row_stable: bool = False
) -> np.ndarray:
    """Every stacked member's head outputs, ``(members, batch, out)``.

    The one gradient-free Pensieve forward.  *observations* are shared
    ``(batch, 6, 8)`` (a single ``(6, 8)`` is a batch of one) or
    per-member ``(members, batch, 6, 8)``.  Member *m*'s slice is
    bitwise-identical to its own layer-by-layer forward: the
    single-input-channel convolutions are one-term sums, so they run as
    broadcast multiplies (seeding the accumulator with the first offset
    term instead of zeros can only flip the sign of an exact zero, which
    the ReLU maps to +0.0 either way), the one-term scalar matmuls as a
    multiply-add, and stacked ``matmul`` runs one product per member.

    ``row_stable=True`` makes each output row bitwise-equal to that
    observation's outputs computed alone: the merge and head matmuls run
    as stacked single-row products, where a 2-D matmul's accumulation
    order may depend on the batch size.
    """
    obs = np.asarray(observations, dtype=float)
    members = weights.merge_w.shape[0]
    if obs.ndim == 2:
        obs = obs[None]
    if obs.ndim == 3:
        obs = obs[None]
    if (
        obs.ndim != 4
        or obs.shape[0] not in (1, members)
        or obs.shape[2:] != (S_INFO, S_LEN)
    ):
        raise ModelError(
            f"expected (batch, {S_INFO}, {S_LEN}) or ({members}, batch, "
            f"{S_INFO}, {S_LEN}) observations, got {np.shape(observations)}"
        )
    batch = obs.shape[1]
    parts = [
        obs[:, :, (0, 1, 5), -1, None] * weights.scalar_w[:, None]
        + weights.scalar_b[:, None]
    ]
    # Both history branches share their input length, so they run as one
    # offset loop; the ladder-length sizes branch keeps its own.
    for x, weight, bias in (
        (obs[:, :, 2:4, None, :], weights.history_w, weights.history_b),
        (
            obs[:, :, None, 4, : weights.num_bitrates],
            weights.sizes_w,
            weights.sizes_b,
        ),
    ):
        kernel = weight.shape[-1]
        length = x.shape[-1] - kernel + 1
        out = x[..., 0:length] * weight[:, None, ..., 0, None]
        for offset in range(1, kernel):
            out += x[..., offset : offset + length] * weight[:, None, ..., offset, None]
        parts.append(out + bias[:, None, ..., None])
    # Flattening each (members, batch, ...) part row-major reproduces the
    # layer-by-layer concatenation order.
    merged = np.concatenate(
        [part.reshape(members, batch, -1) for part in parts], axis=2
    )
    merged = np.where(merged > 0, merged, 0.0)
    features = _stacked_matmul(merged, weights.merge_w, row_stable)
    features = features + weights.merge_b[:, None]
    features = np.where(features > 0, features, 0.0)
    return (
        _stacked_matmul(features, weights.head_w, row_stable)
        + weights.head_b[:, None]
    )


def _stacked_matmul(x: np.ndarray, weight: np.ndarray, row_stable: bool) -> np.ndarray:
    """``x @ weight`` per member; with *row_stable*, one single-row product
    per row, so each row's floats do not depend on the batch size."""
    if row_stable:
        return (x[:, :, None] @ weight[:, None])[:, :, 0]
    return x @ weight


def _keyed(prefix: str, values: list[np.ndarray]) -> dict[str, np.ndarray]:
    """*values* keyed ``{prefix}{index}``: the ``.npz`` layout of network
    weights and training checkpoints."""
    return {f"{prefix}{index}": value for index, value in enumerate(values)}


def _export_arrays(targets: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copies of a :func:`_keyed` mapping, for persistence."""
    return {key: value.copy() for key, value in targets.items()}


def _load_arrays(
    targets: dict[str, np.ndarray], arrays, error: type[ReproError] = ModelError
) -> None:
    """In-place load of a :func:`_keyed` mapping of *targets* from *arrays*.

    Every array's key, shape and finiteness is checked before any target
    is written, so a refused load (raised as *error*) changes nothing.
    """
    values = []
    for key, target in targets.items():
        if key not in arrays:
            raise error(f"arrays missing {key}")
        value = np.asarray(arrays[key], dtype=float)
        if value.shape != target.shape:
            raise error(f"array {key} shape {value.shape} != expected {target.shape}")
        if not np.all(np.isfinite(value)):
            raise error(f"array {key} holds non-finite values")
        values.append(value)
    for target, value in zip(targets.values(), values):
        target[...] = value


class PensieveNetwork:
    """A :class:`PensieveTrunk` under a dense head.

    The shared body of :class:`ActorNetwork` and :class:`CriticNetwork`.
    """

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int,
        hidden: int,
        outputs: int,
    ) -> None:
        self.trunk = PensieveTrunk(num_bitrates, rng, filters=filters, hidden=hidden)
        self.head = Dense(hidden, outputs, rng)

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

    def inference_weights(self) -> StackedWeights:
        """This network's live weights as a one-member :class:`StackedWeights`.

        The sizes, merge and head weights are views of the layers; the
        fused scalar and history branch weights are fresh copies.
        """
        trunk = self.trunk
        filters = trunk.filters
        scalar_w = np.empty((1, 3, filters))
        scalar_b = np.empty((1, 3, filters))
        for index, branch in enumerate(trunk._branches[:3]):
            scalar_w[0, index] = branch.layers[0].weight[0]
            scalar_b[0, index] = branch.layers[0].bias
        throughput = trunk._conv_throughput.layers[0]
        delay = trunk._conv_delay.layers[0]
        sizes = trunk._conv_sizes.layers[0]
        history_w = np.empty((1, 2, filters, throughput.kernel_size))
        history_w[0, 0] = throughput.weight[:, 0]
        history_w[0, 1] = delay.weight[:, 0]
        history_b = np.empty((1, 2, filters))
        history_b[0, 0] = throughput.bias
        history_b[0, 1] = delay.bias
        merge = trunk._merge.layers[0]
        return StackedWeights(
            trunk.num_bitrates,
            scalar_w,
            scalar_b,
            history_w,
            history_b,
            sizes.weight[None, :, 0],
            sizes.bias[None],
            merge.weight[None],
            merge.bias[None],
            self.head.weight[None],
            self.head.bias[None],
        )

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Index-keyed copies of every parameter, for ``.npz`` persistence
        (see :meth:`repro.experiments.artifacts.ArtifactCache.store_arrays`)."""
        return _export_arrays(_keyed("p", self.params))

    def load_state_arrays(self, arrays) -> None:
        """Checked in-place load of a :meth:`state_arrays` mapping.

        Nothing is written unless every array has its key, its shape and
        only finite values.
        """
        _load_arrays(_keyed("p", self.params), arrays)


class ActorNetwork(PensieveNetwork):
    """Policy network: trunk features -> softmax over ladder rungs."""

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int = 16,
        hidden: int = 64,
    ) -> None:
        super().__init__(num_bitrates, rng, filters, hidden, num_bitrates)

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
        :meth:`probabilities` but through :func:`stacked_forward` on the
        live weights.

        ``row_stable=True`` makes each row bitwise-equal to a
        single-observation call.
        """
        return softmax(
            stacked_forward(self.inference_weights(), observations, row_stable)[0]
        )

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient on the logits through head and trunk."""
        self.trunk.backward(self.head.backward(grad_logits))


class CriticNetwork(PensieveNetwork):
    """Value network: trunk features -> scalar state value."""

    def __init__(
        self,
        num_bitrates: int,
        rng: np.random.Generator,
        filters: int = 16,
        hidden: int = 64,
    ) -> None:
        super().__init__(num_bitrates, rng, filters, hidden, 1)

    def values(self, observations: np.ndarray) -> np.ndarray:
        """State values, shape ``(batch,)``."""
        return self.head.forward(self.trunk.forward(observations))[:, 0]

    def values_inference(self, observations: np.ndarray) -> np.ndarray:
        """Gradient-free state values, bitwise-identical to :meth:`values`
        but through :func:`stacked_forward` on the live weights."""
        return stacked_forward(self.inference_weights(), observations)[0, :, 0]

    def backward(self, grad_values: np.ndarray) -> None:
        """Backpropagate a gradient on the scalar values."""
        grad = np.asarray(grad_values, dtype=float).reshape(-1, 1)
        self.trunk.backward(self.head.backward(grad))
