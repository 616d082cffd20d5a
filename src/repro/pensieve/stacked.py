"""Batched passes over an ensemble of identically shaped networks.

The paper's ``U_pi``/``U_V`` signals query all five ensemble members at
every decision step.  Looping over five :class:`Sequential` forwards pays
the full per-layer Python overhead five times for five tiny matmuls; here
the member weights are stacked into ``(members, ...)`` arrays so one
fused pass answers for the whole ensemble.

Two classes live here, both over the same member-stacked weights:

* :class:`StackedEnsemble` — an *evaluation-time* snapshot for the
  per-step uncertainty signals: the members' weights are copied into one
  :class:`~repro.pensieve.model.StackedWeights` at construction
  (:meth:`StackedEnsemble.refresh` after in-place mutation) and answered
  by :func:`~repro.pensieve.model.stacked_forward`, the one fused forward
  a single network also runs as ``M = 1``.
* :class:`StackedTrainingNetwork` — the *training-time* stack behind the
  A2C trainer and the value regression: trainable
  :class:`repro.nn.layers.StackedDense` /
  :class:`repro.nn.layers.StackedConv1D` parameters with full batched
  backward passes, a :meth:`StackedTrainingNetwork.snapshot` of them for
  the trainer's synchronous rollouts, and
  :meth:`StackedTrainingNetwork.write_back` to copy the trained weights
  into the member networks.

Every operation is arranged so that member *m*'s slice goes through
exactly the arithmetic of its own network — stacked ``matmul`` dispatches
one GEMM per member slice, the convolution einsums keep their contraction
order, and the single-input-channel convolutions are one-term sums — so
both classes are **bitwise identical** to the member-by-member loop
(asserted by the regression tests).
"""

from __future__ import annotations

import numpy as np

from repro.abr.state import S_INFO, S_LEN
from repro.errors import ModelError
from repro.nn.layers import ReLU, StackedConv1D, StackedDense
from repro.pensieve.model import (
    ActorNetwork,
    CriticNetwork,
    PensieveTrunk,
    StackedWeights,
    stacked_forward,
)

__all__ = ["StackedEnsemble", "StackedTrainingNetwork"]


class StackedEnsemble:
    """Every member's head outputs in one fused forward.

    Wraps ``M >= 1`` structurally identical :class:`ActorNetwork`s or
    :class:`CriticNetwork`s.  The weights are a snapshot taken at
    construction; call :meth:`refresh` after mutating a member in place.
    """

    def __init__(self, networks: list[ActorNetwork] | list[CriticNetwork]) -> None:
        if not networks:
            raise ModelError("need at least one network to stack")
        self.networks = list(networks)
        self.refresh()

    def refresh(self) -> None:
        """Re-snapshot the member weights (after in-place mutation).

        The members' one-member layouts are concatenated into one copy.
        """
        members = [network.inference_weights() for network in self.networks]
        if len({tuple(np.shape(part) for part in member) for member in members}) != 1:
            raise ModelError("cannot stack networks with different architectures")
        arrays = zip(*(member[1:] for member in members))
        self._weights = StackedWeights(
            members[0].num_bitrates, *map(np.concatenate, arrays)
        )

    def outputs(self, observations: np.ndarray) -> np.ndarray:
        """Every member's head outputs for a ``(batch, 6, 8)`` stack (or one
        ``(6, 8)`` observation): ``(members, batch, num_actions)`` logits
        for actors, ``(members, batch, 1)`` values for critics.

        Row ``i`` equals the outputs of observation ``i`` alone up to the
        last ulp: BLAS accumulation order in the merge and head matmuls
        depends on the batch shape, so exact bitwise equality holds only
        at matching batch sizes.
        """
        return stacked_forward(self._weights, observations)


class _StackedTrainingTrunk:
    """Trainable member-stacked :class:`PensieveTrunk`.

    Unlike :class:`StackedEnsemble` (an inference snapshot), this owns
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
        # StackedDense / StackedConv1D.from_layers reject members of
        # different shapes, which covers every architecture mismatch.
        self.trunks = list(trunks)
        self.num_bitrates = trunks[0].num_bitrates
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
        for layer, relu, piece in zip(
            self._scalar_layers, self._scalar_relus, pieces[:3]
        ):
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
    * :meth:`snapshot` — copies of the live stacked weights for
      :func:`~repro.pensieve.model.stacked_forward`, the fused per-step
      forward of synchronous rollouts,
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

    def snapshot(self) -> StackedWeights:
        """Copies of the live stacked weights in the layout of
        :func:`~repro.pensieve.model.stacked_forward`, whose member *m*
        outputs equal member *m*'s own inference forward exactly."""
        trunk = self._trunk
        scalars = trunk._scalar_layers
        convs = trunk._conv_layers
        return StackedWeights(
            trunk.num_bitrates,
            *(
                array[:, None]
                for array in (
                    np.stack([layer.weight[:, 0] for layer in scalars], axis=1),
                    np.stack([layer.bias for layer in scalars], axis=1),
                    np.stack([layer.weight[:, :, 0] for layer in convs], axis=1),
                    np.stack([layer.bias for layer in convs], axis=1),
                    trunk._merge.weight.copy(),
                    trunk._merge.bias.copy(),
                    self._head.weight.copy(),
                    self._head.bias.copy(),
                )
            ),
        )

    def write_back(self) -> None:
        """Copy the trained stacked parameters into the member networks."""
        self._trunk.write_back()
        self._head.write_back([n.head for n in self.networks])