"""Batched passes over an ensemble of identically shaped networks.

The paper's ``U_pi``/``U_V`` signals query all five ensemble members at
every decision step.  Looping over five :class:`Sequential` forwards pays
the full per-layer Python overhead five times for five tiny matmuls; here
the member weights are stacked once at construction into ``(members, ...)``
arrays so one fused pass answers for the whole ensemble.

Two families live here:

* :class:`StackedActorEnsemble` / :class:`StackedCriticEnsemble` —
  *evaluation-time* snapshots for the per-step uncertainty signals
  (forward only, weights copied at construction, :meth:`refresh` after
  in-place mutation).
* :class:`StackedTrainingNetwork` — the *training-time* stack behind the
  A2C trainer and the value regression: trainable
  :class:`repro.nn.layers.StackedDense` /
  :class:`repro.nn.layers.StackedConv1D` parameters with full batched
  backward passes, a fused per-step ``lockstep_outputs`` forward for
  synchronous rollouts, and :meth:`StackedTrainingNetwork.write_back` to
  copy the trained weights into the member networks.

Every operation is arranged so that member *m*'s slice goes through
exactly the arithmetic of its own network — stacked ``matmul`` dispatches
one GEMM per member slice, the convolution einsums keep their contraction
order, and the single-input-channel convolutions are one-term sums — so
both families are **bitwise identical** to the member-by-member loop
(asserted by the regression tests).
"""

from __future__ import annotations

import numpy as np

from repro.abr.state import S_INFO, S_LEN
from repro.errors import ModelError
from repro.nn.layers import ReLU, StackedConv1D, StackedDense
from repro.nn.losses import softmax
from repro.pensieve.model import ActorNetwork, CriticNetwork, PensieveTrunk

__all__ = [
    "StackedActorEnsemble",
    "StackedCriticEnsemble",
    "StackedTrainingNetwork",
]


class _StackedTrunk:
    """Member-stacked weights of structurally identical trunks."""

    def __init__(self, trunks: list[PensieveTrunk]) -> None:
        if not trunks:
            raise ModelError("need at least one trunk to stack")
        first = trunks[0]
        for trunk in trunks[1:]:
            if (
                trunk.num_bitrates != first.num_bitrates
                or trunk.filters != first.filters
                or trunk.hidden != first.hidden
            ):
                raise ModelError(
                    "cannot stack trunks with different architectures"
                )
        self.trunks = list(trunks)
        self.num_bitrates = first.num_bitrates
        self.refresh()

    def refresh(self) -> None:
        """Re-snapshot the member weights (after in-place mutation)."""
        trunks = self.trunks
        # Scalar branches: Dense(1, F) weights as (M, 3, F).
        self._dense_w = np.stack(
            [
                [branch.layers[0].weight[0] for branch in t._branches[:3]]
                for t in trunks
            ]
        )
        self._dense_b = np.stack(
            [[branch.layers[0].bias for branch in t._branches[:3]] for t in trunks]
        )
        # History convolutions (throughput, delay): (M, 2, O, K).
        self._hist_w = np.stack(
            [
                [
                    t._conv_throughput.layers[0].weight[:, 0, :],
                    t._conv_delay.layers[0].weight[:, 0, :],
                ]
                for t in trunks
            ]
        )
        self._hist_b = np.stack(
            [
                [t._conv_throughput.layers[0].bias, t._conv_delay.layers[0].bias]
                for t in trunks
            ]
        )
        self._hist_kernel = trunks[0]._conv_throughput.layers[0].kernel_size
        # Next-chunk-sizes convolution: (M, O, K).
        self._sizes_w = np.stack(
            [t._conv_sizes.layers[0].weight[:, 0, :] for t in trunks]
        )
        self._sizes_b = np.stack([t._conv_sizes.layers[0].bias for t in trunks])
        self._sizes_kernel = trunks[0]._conv_sizes.layers[0].kernel_size
        # Merge layer: (M, merged, H).
        self._merge_w = np.stack([t._merge.layers[0].weight for t in trunks])
        self._merge_b = np.stack([t._merge.layers[0].bias for t in trunks])
        # Broadcast-ready copies so features() does no per-call reshaping.
        self._dense_w_e = np.ascontiguousarray(self._dense_w[:, None])
        self._dense_b_e = np.ascontiguousarray(self._dense_b[:, None])
        self._hist_w_off = [
            np.ascontiguousarray(self._hist_w[:, None, :, :, offset, None])
            for offset in range(self._hist_kernel)
        ]
        self._hist_b_e = np.ascontiguousarray(self._hist_b[:, None, :, :, None])
        self._sizes_w_off = [
            np.ascontiguousarray(self._sizes_w[:, None, :, offset, None])
            for offset in range(self._sizes_kernel)
        ]
        self._sizes_b_e = np.ascontiguousarray(self._sizes_b[:, None, :, None])
        self._merge_b_e = np.ascontiguousarray(self._merge_b[:, None, :])

    def features(self, observations: np.ndarray) -> np.ndarray:
        """Map ``(batch, 6, 8)`` observations to ``(members, batch, hidden)``."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim == 2:
            obs = obs[None, :, :]
        if obs.ndim != 3 or obs.shape[1:] != (S_INFO, S_LEN):
            raise ModelError(
                f"expected (batch, {S_INFO}, {S_LEN}) observations, got {obs.shape}"
            )
        batch = obs.shape[0]
        members = self._dense_w.shape[0]
        # Scalars: one-term matmuls as a broadcast multiply-add.
        scalars = obs[:, (0, 1, 5), -1]
        ys = scalars[None, :, :, None] * self._dense_w_e + self._dense_b_e
        ys = np.where(ys > 0, ys, 0.0).reshape(members, batch, -1)
        # History convolutions, both branches and all members in one loop.
        # Accumulating from the first term instead of zeros only ever flips
        # the sign of an exact zero, which the ReLU below maps to +0.0
        # either way, so the post-ReLU floats match the member loop.
        out_length = S_LEN - self._hist_kernel + 1
        histories = obs[None, :, (2, 3), None, :]
        # einsum("bcl,oc->bol") with c == 1 is a plain broadcast product.
        hist = histories[..., 0:out_length] * self._hist_w_off[0]
        for offset in range(1, self._hist_kernel):
            hist += (
                histories[..., offset : offset + out_length]
                * self._hist_w_off[offset]
            )
        hist = hist + self._hist_b_e
        hist = np.where(hist > 0, hist, 0.0).reshape(members, batch, -1)
        # Sizes convolution.
        sizes_length = self.num_bitrates - self._sizes_kernel + 1
        sizes_x = obs[None, :, None, 4, : self.num_bitrates]
        sizes = sizes_x[..., 0:sizes_length] * self._sizes_w_off[0]
        for offset in range(1, self._sizes_kernel):
            sizes += (
                sizes_x[..., offset : offset + sizes_length]
                * self._sizes_w_off[offset]
            )
        sizes = sizes + self._sizes_b_e
        sizes = np.where(sizes > 0, sizes, 0.0).reshape(members, batch, -1)
        merged = np.concatenate([ys, hist, sizes], axis=2)
        features = np.matmul(merged, self._merge_w) + self._merge_b_e
        return np.where(features > 0, features, 0.0)


class StackedActorEnsemble:
    """All ensemble members' action distributions in one forward pass."""

    def __init__(self, actors: list[ActorNetwork]) -> None:
        if not actors:
            raise ModelError("need at least one actor to stack")
        self.actors = list(actors)
        self._trunk = _StackedTrunk([actor.trunk for actor in actors])
        self._stack_heads()

    def _stack_heads(self) -> None:
        self._head_w = np.stack([actor.head.weight for actor in self.actors])
        self._head_b = np.stack([actor.head.bias for actor in self.actors])

    def refresh(self) -> None:
        """Re-snapshot member weights after in-place mutation."""
        self._trunk.refresh()
        self._stack_heads()

    def probabilities(self, observation: np.ndarray) -> np.ndarray:
        """Every member's softmax distribution for one observation,
        shape ``(members, num_actions)``."""
        features = self._trunk.features(observation)
        logits = np.matmul(features, self._head_w) + self._head_b[:, None, :]
        return softmax(logits)[:, 0, :]

    def probabilities_batch(self, observations: np.ndarray) -> np.ndarray:
        """Every member's distribution for a ``(batch, 6, 8)`` stack,
        shape ``(members, batch, num_actions)``.

        The serve engine feeds one observation per concurrent session
        through here.  Row ``i`` equals :meth:`probabilities` of
        observation ``i`` up to the last ulp: BLAS accumulation order in
        the trunk's merge matmul depends on the batch shape, so exact
        bitwise equality holds only at matching batch sizes.
        """
        features = self._trunk.features(observations)
        logits = np.matmul(features, self._head_w) + self._head_b[:, None, :]
        return softmax(logits)


class StackedCriticEnsemble:
    """All ensemble members' value estimates in one forward pass."""

    def __init__(self, critics: list[CriticNetwork]) -> None:
        if not critics:
            raise ModelError("need at least one critic to stack")
        self.critics = list(critics)
        self._trunk = _StackedTrunk([critic.trunk for critic in critics])
        self._stack_heads()

    def _stack_heads(self) -> None:
        self._head_w = np.stack([critic.head.weight for critic in self.critics])
        self._head_b = np.stack([critic.head.bias for critic in self.critics])

    def refresh(self) -> None:
        """Re-snapshot member weights after in-place mutation."""
        self._trunk.refresh()
        self._stack_heads()

    def values(self, observation: np.ndarray) -> np.ndarray:
        """Every member's value estimate for one observation, shape
        ``(members,)``."""
        features = self._trunk.features(observation)
        values = np.matmul(features, self._head_w) + self._head_b[:, None, :]
        return values[:, 0, 0]

    def values_batch(self, observations: np.ndarray) -> np.ndarray:
        """Every member's estimate for a ``(batch, 6, 8)`` stack, shape
        ``(members, batch)``.

        Same contract as
        :meth:`StackedActorEnsemble.probabilities_batch`: equal to the
        per-observation forward up to BLAS batch-shape accumulation
        (last-ulp differences at mismatched batch sizes).
        """
        features = self._trunk.features(observations)
        values = np.matmul(features, self._head_w) + self._head_b[:, None, :]
        return values[:, :, 0]


class _StackedTrainingTrunk:
    """Trainable member-stacked :class:`PensieveTrunk`.

    Unlike :class:`_StackedTrunk` (an inference snapshot), this owns
    trainable :class:`StackedDense` / :class:`StackedConv1D` parameters
    initialized from the member trunks, runs full forward **and** backward
    passes over ``(members, batch, 6, 8)`` observation stacks, and writes
    the trained weights back into the member trunks on demand.  Layer
    order, branch order, and every einsum/matmul mirror
    :meth:`PensieveTrunk.forward` / :meth:`PensieveTrunk.backward`
    member-for-member, so training through this trunk is bitwise identical
    to training each member separately.
    """

    #: Observation rows feeding the three scalar branches, in branch order.
    _SCALAR_ROWS = (0, 1, 5)

    def __init__(self, trunks: list[PensieveTrunk]) -> None:
        if not trunks:
            raise ModelError("need at least one trunk to stack")
        first = trunks[0]
        for trunk in trunks[1:]:
            if (
                trunk.num_bitrates != first.num_bitrates
                or trunk.filters != first.filters
                or trunk.hidden != first.hidden
            ):
                raise ModelError("cannot stack trunks with different architectures")
        self.trunks = list(trunks)
        self.num_bitrates = first.num_bitrates
        self.members = len(trunks)
        self._scalar_layers = [
            StackedDense.from_layers([t._branches[i].layers[0] for t in trunks])
            for i in range(3)
        ]
        self._scalar_relus = [ReLU() for _ in range(3)]
        self._conv_layers = [
            StackedConv1D.from_layers([t._branches[i].layers[0] for t in trunks])
            for i in range(3, 6)
        ]
        self._conv_relus = [ReLU() for _ in range(3)]
        self._merge = StackedDense.from_layers([t._merge.layers[0] for t in trunks])
        self._merge_relu = ReLU()
        self._conv_shapes: list[tuple[int, ...]] = []
        self._split_points: list[int] | None = None

    @property
    def params(self) -> list[np.ndarray]:
        """Stacked parameters, branches first, merge layer last (the same
        order as :attr:`PensieveTrunk.params` per member)."""
        params = [p for layer in self._scalar_layers for p in layer.params]
        params += [p for layer in self._conv_layers for p in layer.params]
        return params + self._merge.params

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient accumulators aligned with :attr:`params`."""
        grads = [g for layer in self._scalar_layers for g in layer.grads]
        grads += [g for layer in self._conv_layers for g in layer.grads]
        return grads + self._merge.grads

    def zero_grads(self) -> None:
        """Reset all gradient accumulators."""
        for grad in self.grads:
            grad[...] = 0.0

    def forward(self, observations: np.ndarray) -> np.ndarray:
        """Map ``(members, batch, 6, 8)`` stacks to ``(members, batch, hidden)``."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 4 or obs.shape[0] != self.members or obs.shape[2:] != (
            S_INFO,
            S_LEN,
        ):
            raise ModelError(
                f"expected ({self.members}, batch, {S_INFO}, {S_LEN}) "
                f"observations, got {obs.shape}"
            )
        outputs = []
        for layer, relu, row in zip(
            self._scalar_layers, self._scalar_relus, self._SCALAR_ROWS
        ):
            outputs.append(relu.forward(layer.forward(obs[:, :, row, -1:])))
        conv_inputs = (
            obs[:, :, 2, None, :],
            obs[:, :, 3, None, :],
            obs[:, :, 4, None, : self.num_bitrates],
        )
        self._conv_shapes = []
        for layer, relu, x in zip(self._conv_layers, self._conv_relus, conv_inputs):
            out = relu.forward(layer.forward(x))
            self._conv_shapes.append(out.shape)
            outputs.append(out.reshape(out.shape[0], out.shape[1], -1))
        widths = [out.shape[2] for out in outputs]
        self._split_points = list(np.cumsum(widths)[:-1])
        return self._merge_relu.forward(
            self._merge.forward(np.concatenate(outputs, axis=2))
        )

    def backward(self, grad_features: np.ndarray) -> None:
        """Backpropagate through the merge layer and every branch.

        Input gradients are not needed (observations are data), so nothing
        is returned and the convolution branches skip their input-gradient
        einsums entirely; parameter gradients accumulate in place.
        """
        if self._split_points is None:
            raise ModelError("backward called before forward")
        grad_concat = self._merge.backward(self._merge_relu.backward(grad_features))
        pieces = np.split(grad_concat, self._split_points, axis=2)
        for layer, relu, piece in zip(self._scalar_layers, self._scalar_relus, pieces[:3]):
            layer.backward(relu.backward(piece))
        for layer, relu, piece, shape in zip(
            self._conv_layers, self._conv_relus, pieces[3:], self._conv_shapes
        ):
            layer.backward(relu.backward(piece.reshape(shape)), input_grad=False)

    def write_back(self) -> None:
        """Copy the trained stacked parameters into the member trunks."""
        for index, layer in enumerate(self._scalar_layers):
            layer.write_back([t._branches[index].layers[0] for t in self.trunks])
        for offset, layer in enumerate(self._conv_layers):
            layer.write_back([t._branches[3 + offset].layers[0] for t in self.trunks])
        self._merge.write_back([t._merge.layers[0] for t in self.trunks])


class StackedTrainingNetwork:
    """Trainable member-stacked actor (or critic) networks.

    The engine room of the A2C trainer: wraps ``M``
    structurally identical :class:`ActorNetwork`s or
    :class:`CriticNetwork`s, copies their parameters into member-stacked
    arrays, and exposes

    * :meth:`outputs` / :meth:`backward` — full batched forward/backward
      over ``(members, batch, 6, 8)`` observation stacks (one stacked
      matmul or einsum per layer instead of ``M`` separate passes),
    * :meth:`lockstep_outputs` — a fused, cache-free per-step forward for
      synchronous rollouts, reading the live stacked weights,
    * :meth:`write_back` — copy the trained weights into the member
      networks when training finishes.

    Member *m*'s slice goes through exactly the floats of its own network,
    so stacked training is bitwise identical to the member-by-member loop
    (asserted by the regression tests and ``tools/bench_training.py``).
    """

    def __init__(self, networks: list[ActorNetwork] | list[CriticNetwork]) -> None:
        if not networks:
            raise ModelError("need at least one network to stack")
        self.networks = list(networks)
        self._trunk = _StackedTrainingTrunk([n.trunk for n in self.networks])
        self._head = StackedDense.from_layers([n.head for n in self.networks])

    @property
    def members(self) -> int:
        """How many member networks are stacked."""
        return len(self.networks)

    @property
    def params(self) -> list[np.ndarray]:
        """Stacked trainable parameters (trunk first, head last)."""
        return self._trunk.params + self._head.params

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient accumulators aligned with :attr:`params`."""
        return self._trunk.grads + self._head.grads

    def zero_grads(self) -> None:
        """Reset all gradient accumulators."""
        self._trunk.zero_grads()
        for grad in self._head.grads:
            grad[...] = 0.0

    def outputs(self, observations: np.ndarray) -> np.ndarray:
        """Head outputs for ``(members, batch, 6, 8)`` observation stacks:
        ``(members, batch, num_actions)`` logits for actors, ``(members,
        batch, 1)`` values for critics."""
        return self._head.forward(self._trunk.forward(observations))

    def backward(self, grad_outputs: np.ndarray) -> None:
        """Backpropagate a gradient on the head outputs through head and
        trunk, accumulating stacked parameter gradients in place."""
        self._trunk.backward(self._head.backward(grad_outputs))

    def lockstep_outputs(self, observations: np.ndarray) -> np.ndarray:
        """Fused per-step forward: ``(members, 6, 8)`` — one current
        observation per member — to ``(members, head_out)`` outputs.

        Mirrors :meth:`PensieveTrunk.features_inference` per member (the
        single-input-channel convolutions as broadcast multiplies, the
        one-term scalar matmuls as multiply-adds, first-term accumulator
        seeding) against the live stacked training weights, so the floats
        equal each member's own inference forward — and therefore the
        reference rollout's — exactly.
        """
        obs = np.asarray(observations, dtype=float)
        trunk = self._trunk
        if obs.ndim != 3 or obs.shape[0] != trunk.members or obs.shape[1:] != (
            S_INFO,
            S_LEN,
        ):
            raise ModelError(
                f"expected ({trunk.members}, {S_INFO}, {S_LEN}) observations, "
                f"got {obs.shape}"
            )
        parts = []
        for layer, row in zip(trunk._scalar_layers, trunk._SCALAR_ROWS):
            y = obs[:, row, -1, None] * layer.weight[:, 0, :] + layer.bias
            parts.append(np.where(y > 0, y, 0.0))
        conv_inputs = (
            obs[:, 2, :],
            obs[:, 3, :],
            obs[:, 4, : trunk.num_bitrates],
        )
        for layer, x in zip(trunk._conv_layers, conv_inputs):
            weight = layer.weight
            out_length = x.shape[1] - layer.kernel_size + 1
            # einsum("bcl,oc->bol") with c == 1 is a plain broadcast
            # product; first-term seeding only affects zero signs, which
            # the ReLU normalizes (same argument as features_inference).
            out = x[:, None, 0:out_length] * weight[:, :, 0, 0, None]
            for offset in range(1, layer.kernel_size):
                out += (
                    x[:, None, offset : offset + out_length]
                    * weight[:, :, 0, offset, None]
                )
            out = out + layer.bias[:, :, None]
            parts.append(np.where(out > 0, out, 0.0).reshape(obs.shape[0], -1))
        merged = np.concatenate(parts, axis=1)
        features = (
            np.matmul(merged[:, None, :], trunk._merge.weight)[:, 0, :]
            + trunk._merge.bias
        )
        features = np.where(features > 0, features, 0.0)
        return (
            np.matmul(features[:, None, :], self._head.weight)[:, 0, :]
            + self._head.bias
        )

    def write_back(self) -> None:
        """Copy the trained stacked parameters into the member networks."""
        self._trunk.write_back()
        self._head.write_back([n.head for n in self.networks])