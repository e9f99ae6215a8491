"""Evaluation metrics: clean-test accuracy and corrupted-sample detection AUC.

The AUC treats *clean* samples as positives scored by their importance
weights: it is the probability that a uniformly random clean sample
outscores a uniformly random corrupted one, ties counting one half
(Mann-Whitney rank statistic).
"""

from __future__ import annotations

import numpy as np


def accuracy(predictions, labels) -> float:
    p = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"prediction/label shape mismatch: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValueError("accuracy of an empty batch is undefined")
    return float(np.mean(p == y))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank.

    Every member of a run of equal values gets the run's average rank, so
    the order within a run cannot change the ranks, and the default
    (unstable) argsort gives those of the stable one.  NaN equals nothing,
    so each NaN is a run of its own and the order of the NaNs does matter:
    with a NaN present the stable argsort is taken."""
    order = np.argsort(x, kind="stable" if np.isnan(x).any() else None)
    sorted_x = x[order]
    # Runs of equal values in sorted order.
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


def auc_noisy_detection(scores, is_corrupted) -> float:
    s = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_corrupted, dtype=bool)
    if s.shape != flags.shape or s.ndim != 1:
        raise ValueError("scores and corruption flags must be parallel 1-D arrays")
    n_clean = int(np.sum(~flags))
    n_corrupt = int(np.sum(flags))
    if n_clean == 0 or n_corrupt == 0:
        raise ValueError("AUC needs at least one clean and one corrupted sample")
    ranks = _average_ranks(s)
    u = ranks[~flags].sum() - n_clean * (n_clean + 1) / 2.0
    return float(u / (n_clean * n_corrupt))

