"""Synthetic Gaussian-blob classification data and disjoint splits.

``make_blobs`` draws K class means from a standard Gaussian, rescales the
configuration so the *minimum* pairwise distance equals ``separation``,
and then samples balanced, disjoint train/meta/test splits around them.
Scaling the same seeded configuration keeps difficulty monotone in
``separation``.  The meta split is drawn from the same distribution as
train; the test split stays clean throughout the package.  Every split is
a ``LabeledDataset``, clean or corrupted alike: training reads its
``labels``, and only a split that ``noise.corrupt`` made has the
``true_labels`` that evaluation reads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .numkit import Rng, check_fields, check_fits

_MEANS_STREAM = 1
_SPLIT_STREAMS = {"train": 2, "meta": 3, "test": 4}

STD_FLOOR = 1e-8


@dataclass
class LabeledDataset:
    features: np.ndarray                   # (n, d) float64
    labels: np.ndarray                     # (n,) int64, the labels training sees
    num_classes: int
    true_labels: np.ndarray | None = None  # (n,) int64, set by ``noise.corrupt``

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        for labels in (self.labels, self.true_labels):
            if labels is None:
                continue
            if self.features.ndim != 2 or labels.shape != (self.features.shape[0],):
                raise ValueError("features must be (n, d) with one label per row")
            if labels.size and not 0 <= labels.min() <= labels.max() < self.num_classes:
                raise ValueError(f"labels must lie in [0, {self.num_classes}), got values in "
                                 f"[{labels.min()}, {labels.max()}]")

    def __len__(self) -> int:
        return self.labels.size

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_corrupted(self) -> np.ndarray:
        """``labels != true_labels``; all False without true labels."""
        if self.true_labels is None:
            return np.zeros(len(self), dtype=bool)
        return self.labels != self.true_labels


@dataclass(frozen=True)
class BlobSpec:
    """What ``make_blobs`` draws.  A draw that would hold more than the
    machine's physical memory is a FieldError.  The bound is the larger of
    two phases: the means' (K, K, d) differences and their squares, named by
    K^2 or d, whichever is larger, then the splits' float64 features and
    int64 labels, named by their largest size."""

    num_classes: int = 5
    dim: int = 20
    n_train: int = 2000
    n_meta: int = 200
    n_test: int = 2000
    separation: float = 3.0
    cluster_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("num_classes",), lambda v: v >= 2, "be >= 2")
        check_fields(self, ("dim", "n_train", "n_meta", "n_test"), lambda v: v >= 1,
                     "be >= 1")
        check_fields(self, ("separation", "cluster_std"), lambda v: 0 < v < math.inf,
                     "be finite and positive")
        k2 = self.num_classes ** 2
        means = (16 * k2 * self.dim, "num_classes" if k2 >= self.dim else "dim")
        splits = (8 * (self.n_train + self.n_meta + self.n_test) * (self.dim + 1),
                  max(("dim", "n_train", "n_meta", "n_test"), key=lambda n: getattr(self, n)))
        check_fits(*max(means, splits, key=lambda phase: phase[0]), "drawing the data")


@dataclass
class SplitBundle:
    train: LabeledDataset
    meta: LabeledDataset
    test: LabeledDataset


def _draw_means(spec: BlobSpec, rng: Rng) -> np.ndarray:
    """Class means with minimum pairwise distance exactly ``separation``."""
    k, d = spec.num_classes, spec.dim
    while True:
        m = rng.gaussians(k * d).reshape(k, d)
        diff = m[:, None, :] - m[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        min_dist = dist[np.triu_indices(k, 1)].min()
        if min_dist > 1e-9:  # coincident means: redraw (measure-zero event)
            return m * (spec.separation / min_dist)


def _draw_split(spec: BlobSpec, means: np.ndarray, rng: Rng, count: int) -> LabeledDataset:
    """``means[labels] + cluster_std * noise``, built in the draw's array:
    row i has label ``i % K``, so class c owns the strided rows ``c::K``."""
    k = spec.num_classes
    labels = np.arange(count, dtype=np.int64) % k  # balanced +-1
    features = rng.gaussians(count * spec.dim).reshape(count, spec.dim)
    features *= spec.cluster_std
    for c in range(min(k, count)):
        features[c::k] += means[c]
    return LabeledDataset(features, labels, k)


def make_blobs(spec: BlobSpec) -> SplitBundle:
    root = Rng(spec.seed)
    means = _draw_means(spec, root.spawn(_MEANS_STREAM))
    splits = {
        name: _draw_split(spec, means, root.spawn(stream), count)
        for (name, stream), count in zip(
            _SPLIT_STREAMS.items(), (spec.n_train, spec.n_meta, spec.n_test)
        )
    }
    return SplitBundle(splits["train"], splits["meta"], splits["test"])


def standardize(bundle: SplitBundle) -> SplitBundle:
    """Center/scale all splits with statistics fitted on train only.
    Features too large for float64 statistics, or whose standardized
    values overflow, are an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = bundle.train.features.mean(axis=0)
        sigma = np.maximum(bundle.train.features.std(axis=0), STD_FLOOR)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("train features overflow float64 in their mean or standard "
                         "deviation; reduce separation or cluster_std")

    def apply(ds: LabeledDataset) -> LabeledDataset:
        with np.errstate(over="ignore"):
            features = ds.features - mu
            features /= sigma
        if not np.isfinite(features).all():
            raise ValueError("features overflow float64 when standardized; reduce "
                             "separation or cluster_std")
        return replace(ds, features=features)

    return SplitBundle(apply(bundle.train), apply(bundle.meta), apply(bundle.test))


# -- CSV export -------------------------------------------------------------


def format_value(value) -> str:
    """A scalar as CSV and config files write it (floats round-trip exactly)."""
    if isinstance(value, Enum):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(rows) -> str:
    """Rows of scalars as CSV text, every cell written by ``format_value``."""
    buf = io.StringIO()
    csv.writer(buf).writerows([format_value(v) for v in row] for row in rows)
    return buf.getvalue()


def dataclass_csv(cls, rows) -> str:
    """A header of ``cls``'s field names in order, then one row per instance."""
    names = [f.name for f in fields(cls)]
    return csv_text([names] + [[getattr(row, name) for name in names] for row in rows])


def save_dataset(ds: LabeledDataset, path) -> None:
    """Header row "K,d", then one row per sample.

    A dataset without true labels writes d features + its label; one that
    ``noise.corrupt`` made writes d features + true label + the label
    training sees + a 0/1 corruption flag.
    """
    if ds.true_labels is not None:
        columns = (ds.true_labels, ds.labels, ds.is_corrupted)
    else:
        columns = (ds.labels,)
    labels = np.column_stack(columns).astype(np.int64).tolist()
    rows = map(list.__add__, ds.features.tolist(), labels)
    with open(path, "w", newline="") as fh:
        fh.write(csv_text([[ds.num_classes, ds.dim], *rows]))
