"""Per-sample classification losses on softmax outputs.

Labels are class indices; one-hot vectors are a view, never the canonical
representation (label-noise models permute indices).  Cross-entropy clamps
the picked probability at 1e-12 so saturated predictions cannot produce
-log(0); mean absolute error needs no clamping and is bounded in [0, 2].

MAE is a *symmetric* loss: summing it over all class labels at a fixed
prediction gives the constant 2K - 2 regardless of input or parameters.
Cross-entropy has no such constant, which is what makes the two behave
differently under label noise on the meta set.

Every call takes one path, for one kind or one per row of a stack, whether
those agree or are mixed.  A loss is computed both ways and an ``np.where``
picks each row's, which copies the bits of 2(1 - p_y) or -log max(p_y,
1e-12).  The logit gradient p - onehot is scaled by 2 p_y for MAE and by
1.0 for CE, and x * 1.0 is x.
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
    rows = np.atleast_2d(as_vec(u, name))
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


def _label_index(labels, probs: np.ndarray) -> tuple:
    """The fancy index of each sample's label in ``(n, K)`` probabilities
    or a ``(T, n, K)`` stack of them."""
    index = (np.arange(probs.shape[-2]), np.asarray(labels, dtype=np.int64))
    return index if probs.ndim == 2 else (np.arange(len(probs))[:, None], *index)


def _is_mae(kind, probs: np.ndarray):
    """Whether the loss is MAE, as the condition of an ``np.where`` over the
    labels' probabilities: a bool for one ``LossKind``; for a sequence of
    them, one per row of a ``(T, n, K)`` stack or one for all its rows, a
    ``(T, 1)`` or ``(1, 1)`` column, whether the kinds agree or not.  A
    sequence of another length, or with ``(n, K)`` probabilities, is a
    ``ValueError``."""
    if isinstance(kind, LossKind):
        return kind is LossKind.MAE
    if probs.ndim != 3 or len(kind) not in (1, len(probs)):
        raise ValueError(f"need one loss kind or one per row of a stack, got {len(kind)}")
    return np.array([k is LossKind.MAE for k in kind])[:, None]


def loss_values_batch(kind, labels, probs: np.ndarray) -> np.ndarray:
    """Per-sample losses from ``(n, K)`` probabilities, or a ``(T, n, K)``
    stack, and class indices ``(n,)``, shared by the rows of a stack, or
    ``(T, n)``.  ``kind`` is one ``LossKind`` or one per row of a stack."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape[-2:]
    if labels.shape[-1:] != (n,):
        raise ValueError("labels must be one class index per sample")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    picked = probs[_label_index(labels, probs)]
    return np.where(_is_mae(kind, probs), 2.0 * (1.0 - picked),
                    -np.log(np.maximum(picked, PROB_FLOOR)))


def grad_logits_batch(kind, labels, probs: np.ndarray) -> np.ndarray:
    """Per-sample logit gradients, one row per sample; arguments as for
    ``loss_values_batch``."""
    index = _label_index(labels, probs)
    g = probs.copy()
    g[index] -= 1.0
    g *= np.where(_is_mae(kind, probs), 2.0 * probs[index], 1.0)[..., None]  # x * 1.0 is x
    return g
