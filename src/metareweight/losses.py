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


def as_prob_rows(u, name: str = "probs") -> np.ndarray:
    """Probability vectors as an (N, K) array; a 1-D input is one row.
    Every row must be nonempty, lie in [0, 1] and sum to 1."""
    v = np.asarray(u, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {v.shape}")
    rows = np.atleast_2d(as_vec(v.ravel(), name).reshape(v.shape))
    if rows.shape[1] == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.any(rows < -1e-12) or np.any(rows > 1.0 + 1e-12):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"{name} must sum to 1 (got {sums[off][0]:.12g})")
    return rows


def symmetry_sum(kind: LossKind, u):
    """Sum of the loss over every possible class label at fixed prediction:
    a float for one probability vector, one sum per row of an (N, K) array."""
    rows = as_prob_rows(u)
    n, k = rows.shape
    losses = loss_values_batch(kind, np.tile(np.arange(k), n), np.repeat(rows, k, axis=0))
    sums = losses.reshape(n, k).sum(axis=1)
    return float(sums[0]) if np.ndim(u) == 1 else sums


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
