"""Per-sample classification losses on softmax outputs.

Labels are class indices; one-hot vectors are a view, never the canonical
representation (label-noise models permute indices).  Cross-entropy clamps
the picked probability at 1e-12 so saturated predictions cannot produce
-log(0); mean absolute error needs no clamping and is bounded in [0, 2].

MAE is a *symmetric* loss: summing it over all class labels at a fixed
prediction gives the constant 2K - 2 regardless of input or parameters.
Cross-entropy has no such constant, which is what makes the two behave
differently under label noise on the meta set.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .numkit import as_vec

PROB_FLOOR = 1e-12


class LossKind(Enum):
    CE = "ce"
    MAE = "mae"


def as_prob_vec(u, name: str = "probs") -> np.ndarray:
    v = as_vec(u, name)
    if v.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1 (got {v.sum():.12g})")
    return v


def symmetry_sum(kind: LossKind, u) -> float:
    """Sum of the loss over every possible class label at fixed prediction."""
    v = as_prob_vec(u)
    k = v.size
    return float(loss_values_batch(kind, np.arange(k), np.tile(v, (k, 1))).sum())


def loss_values_batch(kind: LossKind, labels, probs: np.ndarray) -> np.ndarray:
    """Per-sample losses from a (n, K) probability matrix and n class indices."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape
    if labels.shape != (n,):
        raise ValueError("labels must be one class index per sample")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    picked = probs[np.arange(n), labels]
    if kind is LossKind.CE:
        return -np.log(np.maximum(picked, PROB_FLOOR))
    return 2.0 * (1.0 - picked)


def grad_logits_batch(kind: LossKind, labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-sample logit gradients, one row per sample."""
    n = probs.shape[0]
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    if kind is LossKind.MAE:
        g *= 2.0 * probs[np.arange(n), labels][:, None]
    return g
