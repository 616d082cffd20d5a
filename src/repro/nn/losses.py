"""Losses and probability helpers.

Includes the numerically stable softmax used by the actor network,
the KL divergence that defines the paper's ``U_pi`` uncertainty measure, and
the entropy bonus used by the A2C trainer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "entropy",
    "kl_divergence",
]

_EPS = 1e-12


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along *axis*."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy (nats) of probability vectors along *axis*."""
    probs = np.asarray(probs, dtype=float)
    return -(probs * np.log(probs + _EPS)).sum(axis=axis)


def kl_divergence(p: np.ndarray, q: np.ndarray, axis: int = -1) -> np.ndarray:
    """Kullback-Leibler divergence ``KL(p || q)`` (nats) along *axis*.

    This is the similarity measure the paper uses between ensemble members'
    action distributions and their average.  Both arguments must be valid
    probability vectors; a small epsilon guards against zeros in *q*.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    ratio = np.log((p + _EPS) / (q + _EPS))
    return (p * ratio).sum(axis=axis)
