"""A small, from-scratch neural-network library on numpy.

The original Pensieve system was written against TensorFlow; no deep-learning
framework is available in this environment, so this package implements the
pieces Pensieve's actor-critic networks need:

* layers with explicit forward/backward passes (:mod:`repro.nn.layers`),
* parameter initializers (:mod:`repro.nn.initializers`),
* losses and probability helpers (:mod:`repro.nn.losses`),
* first-order optimizers (:mod:`repro.nn.optim`),
* a :class:`~repro.nn.network.Sequential` container with save/load
  (:mod:`repro.nn.network`), and
* numerical gradient checking used by the test suite
  (:mod:`repro.nn.gradcheck`).

All arrays are ``float64`` and batch-first.
"""

from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.initializers import glorot_uniform, he_normal, normal, zeros
from repro.nn.layers import Conv1D, Dense, Flatten, Layer, ReLU, Tanh
from repro.nn.losses import entropy, kl_divergence, softmax
from repro.nn.network import Sequential, build_mlp
from repro.nn.optim import Adam, Optimizer, RMSProp

__all__ = [
    "Adam",
    "Conv1D",
    "Dense",
    "Flatten",
    "Layer",
    "Optimizer",
    "ReLU",
    "RMSProp",
    "Sequential",
    "Tanh",
    "build_mlp",
    "entropy",
    "glorot_uniform",
    "he_normal",
    "kl_divergence",
    "normal",
    "numerical_gradient",
    "relative_error",
    "softmax",
    "zeros",
]
