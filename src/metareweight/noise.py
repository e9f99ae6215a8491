"""Label-noise models as explicit row-stochastic transition matrices.

Three corruption models over K classes with rate ``eta``:

* uniform -- with probability eta the label is redrawn uniformly over all
  K classes, so the true class is kept with (1 - eta) + eta/K and every
  other class receives eta/K.
* flip    -- with probability eta the label moves to one fixed random
  other class (a per-class target drawn once from the model seed).
* flip2   -- with probability eta the label moves to one of two fixed
  random other classes, eta/2 each.

The flip/flip2 target assignment is part of the noise model: it is drawn
once per ``NoiseSpec`` and then deterministic, so train and meta splits
corrupted with the same spec share the same target map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import LabeledDataset, csv_text
from .numkit import FieldError, Rng, check_fields

_TARGET_STREAM = 0x7A17
_LABEL_CHUNK = 1 << 14  # labels per search chunk


class NoiseKind(Enum):
    UNIFORM = "uniform"
    FLIP = "flip"
    FLIP2 = "flip2"


def _check_rate(eta: float) -> None:
    if not 0.0 <= eta < 1.0:
        raise FieldError("rate", f"noise rate must lie in [0, 1), got {eta}")


@dataclass(frozen=True)
class NoiseSpec:
    """``kind`` noise at ``rate`` over ``num_classes`` classes, its flip
    targets drawn from ``seed``.  A value it rejects is a FieldError on its
    field: fewer than 2 classes on ``num_classes``, a rate outside [0, 1) on
    ``rate``, and flip2 over fewer than 3 classes on ``kind``."""

    kind: NoiseKind
    rate: float
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("num_classes",), lambda v: v >= 2, "be >= 2")
        _check_rate(self.rate)
        if self.kind is NoiseKind.FLIP2 and self.num_classes < 3:
            raise FieldError("kind", "flip2 needs at least 3 classes for two distinct "
                             f"targets, got {self.num_classes}")


@dataclass
class TransitionMatrix:
    """probs[y, c] = P(observed = c | true = y), K x K for K = num_classes; rows sum to 1."""

    probs: np.ndarray
    num_classes: int = field(init=False)
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {p.shape}")
        if not np.all(p >= 0):  # also false for a NaN
            raise ValueError("transition probabilities must be nonnegative")
        rowsums = p.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-12):
            raise ValueError(f"rows must sum to 1, got {rowsums}")
        self.probs = p
        # Guard cumsum roundoff: from each row's last nonzero class on the
        # sum is 1.0, so no uniform in [0, 1) reaches a class past it.
        k = self.num_classes = len(p)
        last = k - 1 - np.argmax(p[:, ::-1] > 0, axis=1)
        self._cum = np.where(np.arange(k) >= last[:, None], 1.0, np.cumsum(p, axis=1))

    def to_csv(self) -> str:
        """First row the class count, then the K x K probabilities."""
        return csv_text([[self.num_classes], *self.probs.tolist()])


def _draw_targets(spec: NoiseSpec) -> np.ndarray:
    """Per-class corruption targets as a (K, m) array, m = 1 for flip and 2
    for flip2, from one draw of K*m integers from the spec seed: row y's
    j-th integer, taken modulo K-1-j, picks among the other classes not yet
    picked, in increasing order."""
    k, m = spec.num_classes, 1 if spec.kind is NoiseKind.FLIP else 2
    rng = Rng(spec.seed).spawn(_TARGET_STREAM)
    picks = rng.next_u64s(k * m).reshape(k, m) % (np.uint64(k - 1) - np.arange(m, dtype=np.uint64))
    pool = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)
    targets = np.empty((k, m), dtype=np.int64)
    for j in range(m):
        targets[:, j] = pool[np.arange(k), picks[:, j]]
        pool = pool[pool != targets[:, j, None]].reshape(k, -1)
    return targets


def uniform_transition(num_classes: int, eta: float) -> np.ndarray:
    """T = (1 - eta) I + eta/K: the observed label keeps the clean value with
    probability (1 - eta) plus an eta/K share for every class."""
    _check_rate(eta)
    k = num_classes
    return np.full((k, k), eta / k) + (1.0 - eta) * np.eye(k)


def flip_transition(targets: np.ndarray, eta: float) -> np.ndarray:
    """T = (1 - eta) I + eta P, with P sending class y to ``targets[y]``;
    a (K, m) map sends it to each of the m classes in row y with an equal
    share."""
    _check_rate(eta)
    targets = np.asarray(targets, dtype=np.int64).reshape(len(targets), -1)
    k = len(targets)
    if np.any(targets == np.arange(k)[:, None]):
        raise ValueError("flip target map must move every class")
    transition = (1.0 - eta) * np.eye(k)
    np.add.at(transition, (np.arange(k)[:, None], targets), eta / targets.shape[1])
    return transition


def build_transition(spec: NoiseSpec) -> TransitionMatrix:
    if spec.kind is NoiseKind.UNIFORM:
        return TransitionMatrix(uniform_transition(spec.num_classes, spec.rate))
    return TransitionMatrix(flip_transition(_draw_targets(spec), spec.rate))


def _search_labels(cum: np.ndarray, labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each sample, how many entries of ``cum[labels[i]]`` are <= ``u[i]``
    (``searchsorted(side="right")`` in its own row): the class drawn, when
    every row rises to a last entry of 1.0 and ``u`` < 1.

    A branchless binary search, floor(log2 K) + 1 gather-and-compare steps
    for any K, over ``_LABEL_CHUNK`` labels at a time.  The first probe, at
    entry m - 1 with m the largest power of two <= K, leaves m candidate
    counts (from 0 or from K - m); halving steps narrow them to one."""
    k = cum.shape[1]
    flat = cum.ravel()
    m = 1 << (k.bit_length() - 1)
    out = np.empty(labels.size, dtype=np.int64)
    for lo in range(0, labels.size, _LABEL_CHUNK):
        before = labels[lo:lo + _LABEL_CHUNK] * k - 1  # flat index just before the row
        uc = u[lo:lo + _LABEL_CHUNK]
        at = before + (flat[before + m] <= uc) * (k - m)  # before + count so far
        step = m >> 1
        while step:
            at += (flat[at + step] <= uc) * step
            step >>= 1
        np.subtract(at, before, out=out[lo:lo + _LABEL_CHUNK])
    return out


def corrupt(dataset: LabeledDataset, t: TransitionMatrix, rng: Rng) -> LabeledDataset:
    """A split whose labels are drawn, one per sample, from the transition
    row of ``dataset``'s label, which becomes its ``true_labels``.

    Consumes exactly one uniform per sample, in dataset order.  The
    observed label is the first class whose cumulative row sum exceeds the
    uniform, found for all samples by one binary search (``_search_labels``);
    a class of probability 0 is never drawn.  The result shares
    ``dataset``'s feature array; its ``is_corrupted`` marks the *effective*
    mislabels, so a uniform-noise redraw that lands back on the true class
    is indistinguishable from clean and is not flagged.
    """
    if t.num_classes != dataset.num_classes:
        raise ValueError(f"transition matrix has {t.num_classes} classes, "
                         f"dataset has {dataset.num_classes}")
    labels = dataset.labels
    observed = _search_labels(t._cum, labels, rng.uniforms(labels.size))
    return LabeledDataset(dataset.features, observed, dataset.num_classes,
                          true_labels=labels.copy())


def corrupted_majority(spec: NoiseSpec) -> bool:
    """Whether, for some true class, one corrupted class is observed at
    least as often as the true class itself: in some row of the transition
    matrix the largest off-diagonal entry reaches the diagonal (ties within
    rounding count).

    Heavy-noise settings must still run, so this never raises; it only
    flags rates at which learning the true structure becomes infeasible
    (flip >= 1/2, flip2 >= 2/3; uniform never, since rate < 1).
    """
    p = build_transition(spec).probs
    corrupted = np.where(np.eye(spec.num_classes, dtype=bool), 0.0, p)
    return bool(np.any(corrupted.max(axis=1) >= np.diag(p) - 1e-12))
