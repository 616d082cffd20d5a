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
:class:`StackedWeights` of ``M >= 1`` networks.  The trunk keeps each
group of like branch parameters (the three scalar layers, the three
convolutions) in one array the layers view, so a single network's
:meth:`PensieveNetwork.inference_weights` is a fixed ``M = 1`` layout of
views over its live parameters, built once and never stale.
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
#: Observation rows of the three scalar branches, in branch order.
_SCALAR_ROWS = np.array([0, 1, 5])


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
        self._fuse()

    def _fuse(self) -> None:
        """Move each branch group's parameters into one array the layers
        then view: ``scalar_w``/``scalar_b`` ``(3, F)`` for the scalar
        branches, ``conv_w`` ``(3, O, K)``/``conv_b`` ``(3, O)`` for the
        throughput, download-time and sizes convolutions.  Every parameter
        write is in place, so these arrays always hold the live weights."""
        fused = []
        for layers in (
            [branch.layers[0] for branch in self._branches[:3]],
            [branch.layers[0] for branch in self._branches[3:]],
        ):
            for name in ("weight", "bias"):
                stacked = np.stack([getattr(layer, name) for layer in layers])
                for layer, view in zip(layers, stacked):
                    setattr(layer, name, view)
                fused.append(stacked)
        scalar_w, self.scalar_b, conv_w, self.conv_b = fused
        self.scalar_w = scalar_w[:, 0]
        self.conv_w = conv_w[:, :, 0]

    def __setstate__(self, state: dict) -> None:
        # A copy or unpickle gives every array its own storage; share it
        # again so the fused arrays stay live.
        self.__dict__.update(state)
        self._fuse()

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
    """Member-stacked inference weights of ``M >= 1`` identical networks.

    The branch-fused layout :func:`stacked_forward` reads.  Every array
    carries a length-1 batch axis after the member axis, so it broadcasts
    against ``(M, batch, ...)`` activations as it is.  A single network's
    layout views its live parameters
    (:meth:`PensieveNetwork.inference_weights`); an ensemble's or the
    trainer's is a stacked copy.
    """

    num_bitrates: int
    #: The three scalar ``Dense(1, F)`` branches, ``(M, 1, 3, F)`` each.
    scalar_w: np.ndarray
    scalar_b: np.ndarray
    #: The throughput, download-time and next-chunk-sizes convolutions:
    #: ``(M, 1, 3, O, K)`` / ``(M, 1, 3, O)``.
    conv_w: np.ndarray
    conv_b: np.ndarray
    #: The merge layer, ``(M, 1, merged, H)`` / ``(M, 1, H)``.
    merge_w: np.ndarray
    merge_b: np.ndarray
    #: The head, ``(M, 1, H, out)`` / ``(M, 1, out)``.
    head_w: np.ndarray
    head_b: np.ndarray


def stacked_forward(
    weights: StackedWeights, observations: np.ndarray, row_stable: bool = False
) -> np.ndarray:
    """Every stacked member's head outputs, ``(members, batch, out)``.

    The one gradient-free Pensieve forward.  *observations* are shared
    ``(batch, 6, 8)`` (a single ``(6, 8)`` is a batch of one; an empty
    batch gives ``(members, 0, out)``) or per-member ``(members, batch,
    6, 8)``.  Member *m*'s slice is bitwise-identical to its own
    layer-by-layer forward:

    * the three convolutions run as one offset loop of broadcast
      multiplies over the fused ``(M, 1, 3, O, K)`` weight, then add
      their bias (a single-input-channel convolution is a one-term sum;
      seeding the accumulator with the first offset term instead of
      zeros can only flip the sign of an exact zero, which the ReLU maps
      to +0.0).  The sizes row runs over all 8 columns and keeps its
      first ``num_bitrates - K + 1`` outputs, the ones whose window lies
      on the ladder;
    * the one-term scalar matmuls run as a multiply-add;
    * every branch writes into one preallocated merge input in the
      layer-by-layer concatenation order, and bias and ReLU apply in
      place (``fmax(x, 0) + 0.0`` is ``x > 0 ? x : +0.0``, NaN included);
    * stacked ``matmul`` runs one product per member.

    ``row_stable=True`` makes each output row bitwise-equal to that
    observation's outputs computed alone: the merge and head matmuls run
    as stacked single-row products, where a 2-D matmul's accumulation
    order may depend on the batch size.
    """
    obs = np.asarray(observations, dtype=float)
    (
        num_bitrates,
        scalar_w,
        scalar_b,
        conv_w,
        conv_b,
        merge_w,
        merge_b,
        head_w,
        head_b,
    ) = weights
    members, _, width, _ = merge_w.shape
    if obs.ndim == 2:
        obs = obs[None, None]
    elif obs.ndim == 3:
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
    filters = scalar_w.shape[3]
    _, _, _, channels, kernel = conv_w.shape
    length = S_LEN - kernel + 1
    kept = num_bitrates - kernel + 1
    history_start = 3 * filters
    sizes_start = history_start + 2 * channels * length
    merged = np.empty((members, batch, width))
    scalars = merged[:, :, :history_start].reshape(members, batch, 3, filters)
    np.multiply(obs[:, :, _SCALAR_ROWS, -1, None], scalar_w, out=scalars)
    scalars += scalar_b
    rows = obs[:, :, 2:5, None, :]
    conv = rows[..., :length] * conv_w[..., 0, None]
    for offset in range(1, kernel):
        conv += rows[..., offset : offset + length] * conv_w[..., offset, None]
    conv += conv_b[..., None]
    merged[:, :, history_start:sizes_start] = conv[:, :, :2].reshape(
        members, batch, sizes_start - history_start
    )
    merged[:, :, sizes_start:].reshape(members, batch, channels, kept)[...] = conv[
        :, :, 2, :, :kept
    ]
    _relu(merged)
    features = _stacked_matmul(merged, merge_w, row_stable)
    features += merge_b
    _relu(features)
    outputs = _stacked_matmul(features, head_w, row_stable)
    outputs += head_b
    return outputs


def _relu(x: np.ndarray) -> None:
    """In-place ``np.where(x > 0, x, 0.0)``: ``fmax`` maps NaN to 0, and
    adding +0.0 turns the -0.0 it may keep into +0.0."""
    np.fmax(x, 0.0, out=x)
    x += 0.0


def _stacked_matmul(x: np.ndarray, weight: np.ndarray, row_stable: bool) -> np.ndarray:
    """``x @ weight`` per member for an ``(M, 1, in, out)`` *weight*; with
    *row_stable*, one single-row product per row, so each row's floats do
    not depend on the batch size."""
    if row_stable:
        return (x[:, :, None] @ weight)[:, :, 0]
    return x @ weight[:, 0]


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
        self._weights = self._view_weights()

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
        """This network's weights as a one-member :class:`StackedWeights`.

        Every array views a live parameter (the trunk's fused branch
        arrays, the merge and head layers), so the layout is built once
        and sees every in-place write: optimizer steps,
        :meth:`load_state_arrays` and a stacked trainer's ``write_back``.
        """
        return self._weights

    def _view_weights(self) -> StackedWeights:
        trunk = self.trunk
        merge = trunk._merge.layers[0]
        return StackedWeights(
            trunk.num_bitrates,
            *(
                array[None, None]
                for array in (
                    trunk.scalar_w,
                    trunk.scalar_b,
                    trunk.conv_w,
                    trunk.conv_b,
                    merge.weight,
                    merge.bias,
                    self.head.weight,
                    self.head.bias,
                )
            ),
        )

    def __setstate__(self, state: dict) -> None:
        # A copied layout would hold its own arrays; view the copy's.
        self.__dict__.update(state)
        self._weights = self._view_weights()

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
        return softmax(stacked_forward(self._weights, observations, row_stable)[0])

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
        return stacked_forward(self._weights, observations)[0, :, 0]

    def backward(self, grad_values: np.ndarray) -> None:
        """Backpropagate a gradient on the scalar values."""
        grad = np.asarray(grad_values, dtype=float).reshape(-1, 1)
        self.trunk.backward(self.head.backward(grad))
