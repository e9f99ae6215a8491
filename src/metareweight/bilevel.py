"""Online bilevel training of the classifier and the weighting network.

Each step alternates three moves on a (train minibatch, meta minibatch)
pair:

1. *virtual step* -- a hypothetical plain-SGD classifier update whose
   sample weights come from the current weighting parameters.  Written as
   a function of those parameters it makes the meta loss differentiable
   through the update.
2. *weighting update* -- the exact gradient of the mean meta loss at the
   virtually updated classifier with respect to the weighting parameters
   collapses to a weighted sum of per-sample weighting-net gradients,
   each scaled by the inner product between that sample's training
   gradient and the average meta-gradient.  One SGD step on it.
3. *classifier update* -- the real SGD-with-momentum step using the
   freshly updated sample weights.

``bilevel_step`` runs one call per phase, the first five in ``hypergradient``:

* ``train_forward_backward`` -- losses and per-sample gradients of the
  train batch at the current classifier, as the nets return every
  backward pass: a ``nets.SampleGrads``, never an ``(n, num_params)``
  matrix;
* ``WeightNet.forward_and_grads_batch`` -- the sample weights and their
  gradients in the weighting parameters, one weighting-net backward pass;
* ``virtual_step`` -- the weighted sum of the per-sample gradients;
* ``meta_gradient_at`` -- the mean meta-loss gradient at the virtual point,
  one backward pass;
* ``theta_gradient`` -- the weighting gradient, a contraction of the three
  results above;
* ``theta_update`` and ``classifier_update``.

The pieces read per-sample gradients only through ``weights @ grads`` and
``grads @ g``, so they run unchanged on ``SampleGrads.matrix()``, the form
the verification oracles and the tests compare them against.

The virtual step is deliberately plain SGD (no momentum, no decay): the
closed-form weighting gradient is derived from that exact map, and the
finite-difference oracle in ``verify`` checks ``hypergradient`` to 1e-4 relative.

The per-epoch metrics run the nets in row blocks, never on a whole split.

Run axis: ``BilevelState`` may hold ``(R, num_params)`` stacks in place of
vectors, R runs that share their features and minibatch draws but differ
in labels and meta loss.  A batch's labels are then ``(R, n)``, the meta
loss one ``LossKind`` per run, and every phase above runs on the stack
unchanged, each row getting the bits of the same step taken alone.
``train`` steps every group of runs that way, a single run as a group of
one; the per-epoch metrics run per run, on its row.

Training variants differ only in what the meta set is and which meta
loss drives step 2: clean meta with cross-entropy, noisy meta with
cross-entropy, or noisy meta with mean absolute error (the robust one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import BlobSpec, LabeledDataset, dataclass_csv
from .losses import LossKind
from .metrics import accuracy, auc_noisy_detection
from .nets import ClassifierNet, SampleGrads, WeightNet
from .numkit import FieldError, Rng, as_vec, check_fields, check_fits

_INIT_CLASSIFIER_STREAM = 11
_INIT_WEIGHTNET_STREAM = 12
_LOOP_STREAM = 13

HIDDEN_SIZES = (32, 32)  # the classifier's hidden layer widths
_METRIC_BLOCK = 2048  # rows; a (2048, 100) float64 block is 1.6 MB, inside L2

# Per-sample gradients of a train batch: the step passes ``SampleGrads``,
# the oracles its ``matrix()``.
Grads = SampleGrads | np.ndarray


class Variant(Enum):
    """Training regimes: what the meta set is and which meta loss is used."""

    CLEAN_CE = "clean-ce"    # clean meta samples, cross-entropy meta loss
    NOISY_CE = "noisy-ce"    # corrupted meta samples, cross-entropy meta loss
    NOISY_MAE = "noisy-mae"  # corrupted meta samples, MAE meta loss (robust)

    @property
    def meta_is_noisy(self) -> bool:
        return self is not Variant.CLEAN_CE

    @property
    def meta_loss(self) -> LossKind:
        return LossKind.MAE if self is Variant.NOISY_MAE else LossKind.CE


@dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` keys of the config file; the meta loss comes from
    the ``Variant`` and the seed is an argument of ``train``."""

    train_batch: int = 100
    meta_batch: int = 100
    classifier_lr: float = 0.05
    meta_lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 60
    lr_milestones: tuple[int, ...] = (36, 48)

    def __post_init__(self):
        check_fields(self, ("train_batch", "meta_batch", "epochs"), lambda v: v >= 1,
                     "be >= 1")
        check_fields(self, ("classifier_lr", "meta_lr"), lambda v: 0 < v < math.inf,
                     "be finite and positive")
        check_fields(self, ("weight_decay",), lambda v: 0 <= v < math.inf,
                     "be finite and >= 0")
        check_fields(self, ("momentum",), lambda v: 0 <= v < 1, "lie in [0, 1)")
        if list(self.lr_milestones) != sorted(set(self.lr_milestones)):
            raise FieldError("lr_milestones", "lr milestones must be strictly increasing")
        check_fields(self, ("lr_milestones",), lambda v: min(v, default=0) >= 0,
                     "have entries >= 0")


@dataclass
class Batch:
    features: np.ndarray  # (n, d), shared by every run
    labels: np.ndarray    # (n,), or (R, n) with one row per run

    def __len__(self) -> int:
        return self.labels.shape[-1]


@dataclass
class BilevelState:
    """The two nets and the vectors training moves: classifier parameters,
    weighting parameters and the classifier's momentum buffer, each a
    vector or an ``(R, size)`` stack with one row per run."""

    classifier: ClassifierNet
    weightnet: WeightNet
    params: np.ndarray
    theta: np.ndarray
    momentum_buffer: np.ndarray = field(init=False)

    def __post_init__(self):
        self.momentum_buffer = np.zeros(np.shape(self.params))


def _require_nonempty(batch: Batch, what: str) -> None:
    if len(batch) == 0:
        raise ValueError(f"{what} batch is empty")


def train_forward_backward(state: BilevelState, train_batch: Batch):
    """Per-sample CE losses and gradients (``nets.SampleGrads``) of the
    train batch at the current classifier: the one forward/backward pass a
    step makes on it.  The pieces below take this pair instead of
    recomputing it.  A classifier whose finite parameters overflow its
    forward pass is reported here, by its non-finite losses."""
    _require_nonempty(train_batch, "train")
    losses, grads = state.classifier.losses_and_grads_batch(
        state.params, train_batch.features, train_batch.labels, LossKind.CE)
    return as_vec(losses, "classifier train-loss vector"), grads


def virtual_step(state: BilevelState, weights: np.ndarray, grads: Grads,
                 alpha: float) -> np.ndarray:
    """One-step-lookahead classifier parameters as plain weighted SGD.

    w_hat = w - (alpha/n) * sum_i weight_i * grad_i, with the per-sample
    gradients taken at the current parameters w.
    """
    return state.params - (alpha / weights.shape[-1]) * (weights @ grads)


def meta_gradient_at(classifier: ClassifierNet, params: np.ndarray,
                     meta_batch: Batch, kind) -> np.ndarray:
    """Average meta-loss gradient w.r.t. classifier params, at ``params``:
    one backward pass with every sample's delta scaled by 1/m."""
    _require_nonempty(meta_batch, "meta")
    _, grads = classifier.losses_and_grads_batch(
        params, meta_batch.features, meta_batch.labels, kind)
    m = len(meta_batch)
    return as_vec(np.full(m, 1.0 / m) @ grads, "meta-gradient at the virtual point")


def theta_gradient(grads: Grads, g_meta: np.ndarray, theta_grads: Grads,
                   alpha: float) -> np.ndarray:
    """Exact gradient of the mean meta loss after one virtual step,
    with respect to the weighting-network parameters.

    Equals -(alpha/n) * sum_i (g_meta . grad_i) * d weight_i / d theta,
    where grad_i are the per-sample training gradients at the current
    classifier, g_meta the mean meta-gradient at the virtual point and
    ``theta_grads`` the weight gradients d weight_i / d theta.  The
    weighting-net input loss_i depends only on the classifier, so it is a
    constant here; samples whose training gradient aligns with the
    meta-gradient get their weights pushed up.  The result is linear in
    ``g_meta``.
    """
    return (-(alpha / len(grads)) * (grads @ g_meta)) @ theta_grads


def theta_update(state: BilevelState, theta_grad: np.ndarray, beta: float,
                 weight_decay: float) -> None:
    """Plain SGD with weight decay on the weighting parameters (no momentum)."""
    theta = state.theta
    if theta_grad.shape != theta.shape:
        raise ValueError("theta gradient is not aligned with the weighting params")
    state.theta = state.weightnet.set_flat(theta - beta * (theta_grad + weight_decay * theta),
                                           "weighting-net parameter vector")


def classifier_update(state: BilevelState, losses: np.ndarray, grads: Grads,
                      alpha: float, momentum: float, weight_decay: float) -> None:
    """Real classifier step with the current (updated) weighting parameters.

    v <- momentum*v + (mean_i weight_i*grad_i + weight_decay*w);
    w <- w - alpha*v.
    """
    weights = state.weightnet.forward_batch(state.theta, losses)
    w = state.params
    state.momentum_buffer = (momentum * state.momentum_buffer
                             + ((weights @ grads) / losses.shape[-1] + weight_decay * w))
    state.params = state.classifier.set_flat(w - alpha * state.momentum_buffer,
                                             "classifier parameter vector")


def hypergradient(state: BilevelState, train_batch: Batch, meta_batch: Batch,
                  alpha: float, meta_loss):
    """The train batch's losses and per-sample gradients, the virtual point
    at learning rate ``alpha`` and the weighting gradient of the mean
    ``meta_loss`` there; the chain's other temporaries are freed on return."""
    losses, grads = train_forward_backward(state, train_batch)
    weights, theta_grads = state.weightnet.forward_and_grads_batch(state.theta, losses)
    w_hat = virtual_step(state, weights, grads, alpha)
    g_meta = meta_gradient_at(state.classifier, w_hat, meta_batch, meta_loss)
    return losses, grads, w_hat, theta_gradient(grads, g_meta, theta_grads, alpha)


# Parameter-sized arrays a stacked step holds per run while
# ``theta_gradient`` runs: the parameters, the momentum buffer, the virtual
# point and the meta-gradient.
_STEP_VECTORS = 4


def check_group_memory(blob: BlobSpec, cfg: TrainConfig, runs: int) -> None:
    """FieldError when a step of a group of ``runs`` runs on ``blob``'s
    splits would hold more than the machine's physical memory.  The
    estimate is a lower bound: the float64 features of the three splits and
    of one train and one meta batch, and the parameter-sized arrays of one
    stacked step.  The error names the largest size.  What drawing the
    splits holds is ``BlobSpec``'s rule."""
    rows = (blob.n_train + blob.n_meta + blob.n_test
            + min(cfg.train_batch, blob.n_train) + cfg.meta_batch)
    num_params = ClassifierNet([blob.dim, *HIDDEN_SIZES, blob.num_classes]).num_params
    sizes = {"num_classes": blob.num_classes, "dim": blob.dim, "n_train": blob.n_train,
             "n_meta": blob.n_meta, "n_test": blob.n_test, "meta_batch": cfg.meta_batch}
    check_fits(8 * (rows * blob.dim + _STEP_VECTORS * runs * num_params),
               max(sizes, key=sizes.get), "one seed group")


def bilevel_step(state: BilevelState, train_batch: Batch, meta_batch: Batch,
                 cfg: TrainConfig, alpha: float, meta_loss) -> None:
    """One alternation step: weighting gradient through the virtual step,
    weighting update, then the real classifier update, all from a single
    forward/backward pass over the train batch."""
    losses, grads, w_hat, t_grad = hypergradient(state, train_batch, meta_batch, alpha, meta_loss)
    del w_hat  # freed, with the chain's temporaries, before the updates allocate: peak RSS
    theta_update(state, t_grad, cfg.meta_lr, cfg.weight_decay)
    classifier_update(state, losses, grads, alpha, cfg.momentum, cfg.weight_decay)


# -- full training loop ------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    test_accuracy: float
    train_auc: float            # nan when the train split has no mislabels
    mean_weight_clean: float
    mean_weight_corrupt: float  # nan when there are no mislabels


@dataclass
class RunReport:
    epochs: list[EpochMetrics] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy

    @property
    def final_auc(self) -> float:
        return self.epochs[-1].train_auc

    @property
    def best_auc(self) -> float:
        aucs = np.array([e.train_auc for e in self.epochs])
        return float(np.nan) if np.all(np.isnan(aucs)) else float(np.nanmax(aucs))

    def to_csv(self) -> str:
        return dataclass_csv(EpochMetrics, self.epochs)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _scheduled_lr(cfg: TrainConfig, epoch: int) -> float:
    drops = sum(1 for m in cfg.lr_milestones if epoch >= m)
    return cfg.classifier_lr / (10.0 ** drops)


def _row_blocks(n: int) -> list[slice]:
    """Row slices of ``range(n)`` starting at multiples of ``_METRIC_BLOCK``, a
    tail under half a block joined to the one before: BLAS rounds a few or
    misaligned rows differently, so each row gets the bits of one call."""
    bounds = [b for b in range(_METRIC_BLOCK, n, _METRIC_BLOCK) if n - b >= _METRIC_BLOCK // 2]
    return [slice(lo, hi) for lo, hi in zip([0, *bounds], [*bounds, n])]


def _epoch_metrics(classifier: ClassifierNet, weightnet: WeightNet, params: np.ndarray,
                   theta: np.ndarray, epoch: int, train: LabeledDataset,
                   test: LabeledDataset) -> EpochMetrics:
    """One run's metrics at its classifier vector ``params`` and weighting
    vector ``theta``."""
    test_acc = accuracy(np.concatenate([classifier.predict_batch(params, test.features[rows])
                                        for rows in _row_blocks(len(test))]), test.labels)
    weights = np.concatenate([
        weightnet.forward_batch(theta, classifier.losses_batch(
            params, train.features[rows], train.labels[rows], LossKind.CE))
        for rows in _row_blocks(len(train))])
    corrupted = train.is_corrupted
    auc = (auc_noisy_detection(weights, corrupted)
           if corrupted.any() and not corrupted.all() else float("nan"))
    mean_clean = float(weights[~corrupted].mean()) if (~corrupted).any() else float("nan")
    mean_corrupt = float(weights[corrupted].mean()) if corrupted.any() else float("nan")
    return EpochMetrics(epoch, test_acc, auc, mean_clean, mean_corrupt)


def train(variants, train_splits, meta_splits, test_data: LabeledDataset,
          cfg: TrainConfig, seed: int) -> list[RunReport]:
    """Run the full alternating loop for a group of runs, one entry per run
    in ``variants``, ``train_splits`` and ``meta_splits``, and return one
    ``RunReport`` of per-epoch metrics per run.

    The splits of the runs share their features.  A meta split may be clean
    or corrupted: training reads only the ``features`` and ``labels`` of a
    split, and the metrics read a train split's ``is_corrupted``.  The
    caller decides from ``variant.meta_is_noisy`` whether to corrupt the
    meta split; the meta loss is ``variant.meta_loss``.  ``seed``
    fixes the network initialization and the minibatch order.  The runs
    train in lockstep as one stack, each with the bits of its run alone (a
    group of one).  A step that fails, e.g. because an update made a
    parameter vector non-finite, raises a ``ValueError`` naming the epoch
    and the step within it, and a failure in the per-epoch metrics names
    the epoch; either stops every run and names none.
    """
    for split in (*train_splits, *meta_splits):
        if split.dim != test_data.dim:
            raise ValueError("feature dimensions differ across splits")
        if split.num_classes != test_data.num_classes:
            raise ValueError("class counts differ across splits")
    for splits in (train_splits, meta_splits):
        if not all(np.array_equal(s.features, splits[0].features) for s in splits[1:]):
            raise ValueError("the runs of a group must share their features")

    root = Rng(seed)
    classifier = ClassifierNet([test_data.dim, *HIDDEN_SIZES, test_data.num_classes])
    weightnet = WeightNet()
    state = BilevelState(
        classifier, weightnet,
        np.stack([classifier.init_params(root.spawn(_INIT_CLASSIFIER_STREAM))] * len(variants)),
        np.stack([weightnet.init_params(root.spawn(_INIT_WEIGHTNET_STREAM))] * len(variants)))
    loop_rng = root.spawn(_LOOP_STREAM)

    x_train, x_meta = train_splits[0].features, meta_splits[0].features
    y_train = np.stack([d.labels for d in train_splits])
    y_meta = np.stack([d.labels for d in meta_splits])
    meta_loss = tuple(v.meta_loss for v in variants)

    reports = [RunReport() for _ in variants]
    # A diverging run overflows before anything is non-finite; numpy's
    # warnings about that are silenced so that the first check to fail
    # (``set_flat`` on an update, ``as_vec`` on losses or meta-gradient) is the one report.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            alpha = _scheduled_lr(cfg, epoch)
            order = loop_rng.permutation(len(x_train))
            for step, start in enumerate(range(0, len(x_train), cfg.train_batch)):
                idx = order[start:start + cfg.train_batch]
                meta_idx = loop_rng.randints(cfg.meta_batch, len(x_meta))
                try:
                    bilevel_step(
                        state,
                        Batch(x_train[idx], y_train[..., idx]),
                        Batch(x_meta[meta_idx], y_meta[..., meta_idx]),
                        cfg, alpha, meta_loss)
                except ValueError as exc:
                    raise ValueError(f"epoch {epoch}, step {step}: {exc}") from exc
            try:
                for report, split, params, theta in zip(reports, train_splits,
                                                        state.params, state.theta):
                    report.epochs.append(_epoch_metrics(classifier, weightnet, params, theta,
                                                        epoch, split, test_data))
            except ValueError as exc:
                raise ValueError(f"epoch {epoch}, metrics: {exc}") from exc
    return reports
