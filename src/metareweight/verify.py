"""Independent oracles for the theory behind noisy-meta reweighting.

The oracles are this module's own: the (sample, label) enumeration behind
every exact expectation (``expected_gradient`` of a transition matrix T),
``composed_meta_objective``'s virtual step and ``clean_mean_gradient``'s
separate clean pass (a gather from the per-label pass would let a
mis-tiled label column cancel out of a residual).  What they check is
what training runs: T comes from ``noise``, the weighting gradient from
``bilevel.hypergradient``.

* Under uniform label noise at rate eta, the expected meta-gradient on
  corrupted labels equals (1 - eta) times the clean meta-gradient exactly
  when the meta loss is symmetric (MAE).  Cross-entropy breaks this.
* Under flip noise with a fixed per-class target map the equality fails,
  but averaging the expectation over every admissible target map restores
  proportionality to the clean gradient.  Under a fixed two-target map,
  whose T is not symmetric, the expectation equals the per-sample sum over
  the map.
* The variance of corrupted meta minibatch gradients is bounded by the
  clean minibatch variance plus 2*eta*rho^2/m, with rho a bound on
  per-sample gradient norms.
* ``bilevel.hypergradient`` matches central finite differences of the
  meta loss after one virtual step, away from rectifier kinks.

The oracles run as batched numpy passes, not Python loops: every label of
every sample goes through one backward pass, a finite-difference sweep
evaluates all its perturbed parameter vectors as one stack (the nets'
leading parameter axis), the uniform-expectation property checks each
(K, eta) cell's random instances as one stack (the classifier takes one
feature batch per parameter vector), and the variance bound enumerates
every (sample, observed label) cell with its probability.  A stack's
per-instance arithmetic after the backward passes runs row by row, so
each residual has the bits of its instance checked alone.

Two properties sample, both through ``noise.corrupt`` with T from
``build_transition``, as training corrupts its splits: the observed label
frequencies, and the MAE gradient averaged over corrupted copies of one
batch (a draw-count vector times the per-(sample, label) gradients),
whose gap from the exact expectation is measured in its exact standard
error.  Both pass under a Bonferroni limit at ``CORRUPTION_FAMILY_ALPHA``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bilevel import Batch, BilevelState, hypergradient
from .losses import LossKind, symmetry_sum
from .nets import ClassifierNet, WeightNet
from .noise import (NoiseKind, NoiseSpec, build_transition, corrupt, flip_transition,
                    uniform_transition)
from .numkit import Rng
from .data import LabeledDataset

DEFAULT_VERIFY_SEED = 20240117
FD_STEP = 1e-6
KINK_MARGIN = 10 * FD_STEP
# Chance that correct label sampling fails the corruption-frequency check.
CORRUPTION_FAMILY_ALPHA = 1e-4


# -- exact expectations ------------------------------------------------------


def per_label_gradients(classifier: ClassifierNet, params: np.ndarray,
                        features: np.ndarray, kind: LossKind) -> np.ndarray:
    """Gradients for every (sample, label) pair at ``params``: (n, K, P),
    from one backward pass over each sample repeated once per label; a
    (T, P) stack with (T, n, d) features gives (T, n, K, P)."""
    n = features.shape[-2]
    k = classifier.num_classes
    _, grads = classifier.losses_and_grads_batch(
        params, np.repeat(features, k, axis=-2), np.tile(np.arange(k), n), kind)
    g = grads.matrix()
    return g.reshape(*g.shape[:-2], n, k, classifier.num_params)


def clean_mean_gradient(classifier: ClassifierNet, params: np.ndarray,
                        features: np.ndarray, labels: np.ndarray,
                        kind: LossKind) -> np.ndarray:
    """Mean gradient over the batch: (P,), or (T, P) for a stack."""
    _, grads = classifier.losses_and_grads_batch(params, features, labels, kind)
    return grads.matrix().mean(axis=-2)


def expected_gradient(g_all: np.ndarray, labels: np.ndarray,
                      transition: np.ndarray) -> np.ndarray:
    """Exact expected mean gradient when clean label y turns into c with
    probability T[y, c]: mean_i sum_c T[y_i, c] g_all[i, c], no sampling.
    ``g_all`` is ``per_label_gradients``' (n, K, P) array."""
    n, k, _ = g_all.shape
    p_cells = (transition[np.asarray(labels, dtype=np.int64)] / n).ravel()
    return p_cells @ g_all.reshape(n * k, -1)


def sampled_mean_gradient(g_all: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Mean gradient over N sampled copies of a batch, where ``observed``
    (N, n) holds the labels each copy drew: the count of every (sample,
    label) cell times ``per_label_gradients``' (n, K, P) array, over N*n."""
    n, k, _ = g_all.shape
    cells = (np.arange(n) * k + observed).ravel()
    return np.bincount(cells, minlength=n * k) @ g_all.reshape(n * k, -1) / cells.size


def all_flip_maps(num_classes: int):
    """Every target map sending each class to some other class: (K-1)^K maps."""
    choices = [[c for c in range(num_classes) if c != y] for y in range(num_classes)]
    for combo in itertools.product(*choices):
        yield np.array(combo, dtype=np.int64)


def equivalence_report(classifier: ClassifierNet, params: np.ndarray,
                       features: np.ndarray, clean_labels: np.ndarray,
                       eta: float, kind: LossKind):
    """|| E[noisy grad] - (1-eta) * clean grad || relative to || clean grad ||
    under uniform noise at rate ``eta``.  A float for a (P,) vector; a (T,)
    array for a (T, P) stack of instances with (T, n, d) features and
    (T, n) labels, from one clean and one per-label pass, each instance's
    residual computed as its own call computes it."""
    labels = np.asarray(clean_labels, dtype=np.int64)
    clean = clean_mean_gradient(classifier, params, features, labels, kind)
    g_all = per_label_gradients(classifier, params, features, kind)
    transition = uniform_transition(classifier.num_classes, eta)
    n, k, p = g_all.shape[-3:]
    labels = np.broadcast_to(labels, clean.shape[:-1] + (n,))
    residuals = []
    for g, c, y in zip(g_all.reshape(-1, n, k, p), clean.reshape(-1, p), labels.reshape(-1, n)):
        residual = float(np.linalg.norm(expected_gradient(g, y, transition) - (1.0 - eta) * c))
        residuals.append(residual / max(float(np.linalg.norm(c)), 1e-12))
    return residuals[0] if clean.ndim == 1 else np.array(residuals)


def proportionality_residual(g: np.ndarray, reference: np.ndarray) -> float:
    """Relative distance of g from the line spanned by the reference."""
    denom = float(np.dot(reference, reference))
    if denom <= 0.0:
        raise ValueError("reference gradient is zero; proportionality undefined")
    scale = float(np.dot(g, reference)) / denom
    return float(np.linalg.norm(g - scale * reference) / np.sqrt(denom))


# -- variance bound ----------------------------------------------------------


@dataclass
class VarianceCheckReport:
    noisy_variance: float      # corrupted minibatch deviation from (1-eta)*mean
    bound: float               # sigma_sq + 2*eta*rho^2/m
    sigma_sq: float            # clean minibatch-gradient variance
    holds: bool


def variance_bound_check(classifier: ClassifierNet, params: np.ndarray,
                         pool: LabeledDataset, eta: float,
                         m: int) -> VarianceCheckReport:
    """Exact check that corrupting meta minibatches inflates the MAE
    gradient variance by at most 2*eta*rho^2/m.

    A minibatch is m draws with replacement.  A clean draw is a sample, so
    the clean variance is the per-sample variance over m.  A corrupted draw
    is a (sample, observed label) cell with probability T[y_i, c]/n under
    uniform noise, T = (1 - eta) I + eta/K; its mean-squared deviation from
    (1 - eta) * mu is the squared bias of the cell mean plus the cell
    variance over m.  The loss is the symmetric one (MAE): only then is the
    (1 - eta)-scaled mean the expectation.  The bound holds with equality
    at eta = 0, so the comparison allows 1e-12 relative for rounding.
    """
    if m < 1:
        raise ValueError(f"minibatch size must be >= 1, got {m}")
    transition = uniform_transition(classifier.num_classes, eta)

    n, k = len(pool), classifier.num_classes
    g_all = per_label_gradients(classifier, params, pool.features, LossKind.MAE)
    g_clean = g_all[np.arange(n), pool.labels]
    mu = g_clean.mean(axis=0)
    rho = float(np.linalg.norm(g_all, axis=2).max())
    sigma_sq = float(((g_clean - mu) ** 2).sum(axis=1).mean()) / m

    g_bar = expected_gradient(g_all, pool.labels, transition)
    p_cells = (transition[pool.labels] / n).ravel()
    cells = g_all.reshape(n * k, -1)
    spread = p_cells @ ((cells - g_bar) ** 2).sum(axis=1)
    noisy = float(((g_bar - (1.0 - eta) * mu) ** 2).sum() + spread / m)

    bound = sigma_sq + 2.0 * eta * rho ** 2 / m
    return VarianceCheckReport(noisy, bound, sigma_sq, noisy <= bound * (1.0 + 1e-12))


# -- finite-difference oracle for the weighting-parameter gradient -----------


def composed_meta_objective(state: BilevelState, train_batch: Batch,
                            meta_batch: Batch, alpha: float, kind: LossKind,
                            theta: np.ndarray):
    """Mean meta loss after one virtual step taken with weighting
    parameters ``theta``: a float for a ``(P,)`` vector, a ``(T,)`` array
    for a ``(T, P)`` stack.

    The training-batch losses and per-sample gradients do not depend on
    theta, so a stack costs one backward pass, one weighting-net forward
    pass, one product for all virtual steps and one meta forward pass.
    """
    classifier, w0 = state.classifier, state.params
    losses, grads = classifier.losses_and_grads_batch(
        w0, train_batch.features, train_batch.labels, LossKind.CE)
    weights = state.weightnet.forward_batch(theta, losses)
    w_hat = w0 - (alpha / len(train_batch)) * (weights @ grads.matrix())
    objective = classifier.losses_batch(
        w_hat, meta_batch.features, meta_batch.labels, kind).mean(axis=-1)
    return float(objective) if objective.ndim == 0 else objective


def finite_diff_theta_grad(state: BilevelState, train_batch: Batch,
                           meta_batch: Batch, alpha: float, kind: LossKind,
                           step: float = FD_STEP) -> np.ndarray:
    """Central differences of ``composed_meta_objective`` in theta, with
    all 2P perturbed vectors (each coordinate + step, then each - step)
    evaluated as one stack."""
    if step <= 0:
        raise ValueError("step must be positive")
    theta = state.weightnet.get_flat(state.theta)
    p = theta.size
    coords = np.arange(p)
    stack = np.tile(theta, (2 * p, 1))
    stack[coords, coords] = theta + step
    stack[p + coords, coords] = theta - step
    objective = composed_meta_objective(state, train_batch, meta_batch, alpha, kind, stack)
    return (objective[:p] - objective[p:]) / (2.0 * step)


# -- random instance builders -------------------------------------------------


def random_classifier_instance(rng: Rng, num_classes: int, dim: int = 4,
                               hidden=(8,), batch: int = 6):
    """Small random net, a random point ``params`` of it, and a
    feature/label batch."""
    classifier = ClassifierNet([dim, *hidden, num_classes])
    params = classifier.init_params(rng)
    features = rng.gaussians(batch * dim).reshape(batch, dim)
    labels = rng.randints(batch, num_classes)
    return classifier, params, features, labels


def random_hypergrad_instance(rng: Rng, dim: int = 3, num_classes: int = 3,
                              n_train: int = 4, n_meta: int = 4,
                              hidden=(5,), alpha: float = 0.1,
                              kind: LossKind = LossKind.MAE,
                              kink_margin: float = KINK_MARGIN):
    """Random tiny bilevel instance, resampled until the finite-difference
    oracle is trustworthy there.

    Rejected when any rectifier pre-activation (weighting net on the
    training losses, classifier at the virtual point on the meta batch)
    sits within ``kink_margin`` of zero, or when the analytic gradient is
    so small that relative comparison is meaningless.
    """
    classifier = ClassifierNet([dim, *hidden, num_classes])
    weightnet = WeightNet()
    while True:
        state = BilevelState(classifier, weightnet, classifier.init_params(rng),
                             weightnet.init_params(rng))
        train_batch = Batch(rng.gaussians(n_train * dim).reshape(n_train, dim),
                            rng.randints(n_train, num_classes))
        meta_batch = Batch(rng.gaussians(n_meta * dim).reshape(n_meta, dim),
                           rng.randints(n_meta, num_classes))

        losses, _, w_hat, analytic = hypergradient(state, train_batch, meta_batch, alpha, kind)
        pre = (weightnet.hidden_preactivations(state.theta, losses),
               classifier.hidden_preactivations(w_hat, meta_batch.features))
        margin = min(np.abs(p).min(initial=np.inf) for p in pre)
        if margin > kink_margin and np.linalg.norm(analytic) >= 1e-6:
            return state, train_batch, meta_batch, analytic


# -- Monte-Carlo convergence of sampled noisy meta-gradients ------------------


def mc_convergence_slope(rng: Rng, eta: float = 0.4, num_classes: int = 5,
                         batch: int = 6,
                         trial_counts=(100, 400, 1600, 6400),
                         repeats: int = 40) -> float:
    """Log-log slope of |sampled mean - exact expectation| against the
    number of sampled corrupted minibatches (should be about -1/2).

    No property calls it: ``sampled-corruption-mean-gradient`` replaced it.
    It stays while the benchmark's ``verify.mc_slope`` tracer names it."""
    classifier, params, features, labels = random_classifier_instance(
        rng, num_classes, batch=batch)
    g_all = per_label_gradients(classifier, params, features, LossKind.MAE)
    expected = expected_gradient(g_all, labels, uniform_transition(num_classes, eta))
    log_errors = []
    for trials in trial_counts:
        errs = np.empty(repeats)
        for r in range(repeats):
            flip = rng.uniforms(trials * batch).reshape(trials, batch) < eta
            drawn = rng.randints(trials * batch, num_classes).reshape(trials, batch)
            obs = np.where(flip, drawn, labels[None, :])
            errs[r] = np.linalg.norm(sampled_mean_gradient(g_all, obs) - expected)
        log_errors.append(np.mean(np.log10(errs)))
    slope, _ = np.polyfit(np.log10(np.asarray(trial_counts, dtype=float)),
                          np.array(log_errors), 1)
    return float(slope)


# -- property suite -----------------------------------------------------------


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _prop_uniform_expectation(seed: int) -> list[PropertyResult]:
    rng = Rng(seed).spawn(101)
    rates = (0.2, 0.4, 0.6, 0.8)
    classes = (3, 5, 10)
    per_cell = 17  # 3 * 4 * 17 = 204 instances
    mae, ce = [], []
    for k in classes:
        for eta in rates:
            # The cell's instances, drawn one after another, checked as one stack.
            drawn = [random_classifier_instance(rng, k) for _ in range(per_cell)]
            classifier = drawn[0][0]
            params, x, y = (np.stack(part) for part in list(zip(*drawn))[1:])
            mae.append(equivalence_report(classifier, params, x, y, eta, LossKind.MAE))
            ce.append(equivalence_report(classifier, params, x, y, eta, LossKind.CE))
    mae, ce = np.concatenate(mae), np.concatenate(ce)
    worst_mae, ce_hits, total = float(mae.max()), int(np.sum(ce > 1e-3)), mae.size
    return [
        PropertyResult(
            "uniform-mae-expectation",
            worst_mae <= 1e-10,
            f"max relative residual {worst_mae:.3e} over {total} instances (limit 1e-10)"),
        PropertyResult(
            "uniform-ce-control",
            ce_hits >= 0.9 * total,
            f"CE residual > 1e-3 on {ce_hits}/{total} instances (need >= 90%)"),
    ]


def _prop_symmetry(seed: int) -> list[PropertyResult]:
    rng = Rng(seed).spawn(102)
    worst = 0.0
    for k in (2, 3, 5, 10):
        raw = -np.log(rng.uniforms(1000 * k)).reshape(1000, k)
        sums = symmetry_sum(LossKind.MAE, raw / raw.sum(axis=1, keepdims=True))
        worst = max(worst, float(np.abs(sums - (2 * k - 2)).max()))
    raw = -np.log(rng.uniforms(10 * 5)).reshape(10, 5)
    sums = symmetry_sum(LossKind.CE, raw / raw.sum(axis=1, keepdims=True))
    spread = float(sums.max() - sums.min())
    return [
        PropertyResult("mae-symmetry-sum", worst <= 1e-12,
                       f"max |sum - (2K-2)| = {worst:.3e} (limit 1e-12)"),
        PropertyResult("ce-symmetry-varies", spread > 0.1,
                       f"CE symmetry-sum spread {spread:.3f} over 10 draws (need > 0.1)"),
    ]


def _bonferroni_limit(count: int) -> float:
    """The |z| limit that holds the chance of any false alarm among
    ``count`` two-sided normal tests to ``CORRUPTION_FAMILY_ALPHA``."""
    return NormalDist().inv_cdf(1 - CORRUPTION_FAMILY_ALPHA / (2 * count))


def corruption_frequency_check(rng: Rng, sample_rate: float = 0.4) -> PropertyResult:
    """Label frequencies ``corrupt`` draws at ``sample_rate`` against the
    rate-0.4 uniform and flip2 transition probabilities p.  Cells with p in
    {0, 1} must match exactly; every other cell's |z| statistic must stay
    under the Bonferroni limit that holds the chance of any false alarm to
    ``CORRUPTION_FAMILY_ALPHA``."""
    n, k = 100_000, 5
    labels = np.arange(n, dtype=np.int64) % k
    ds = LabeledDataset(np.zeros((n, 1)), labels, k)
    zs = []
    exact_ok = True
    for stream, kind in enumerate((NoiseKind.UNIFORM, NoiseKind.FLIP2)):
        p = build_transition(NoiseSpec(kind, 0.4, k, seed=7)).probs
        out = corrupt(ds, build_transition(NoiseSpec(kind, sample_rate, k, seed=7)),
                      rng.spawn(stream))
        counts = np.bincount(labels * k + out.labels, minlength=k * k).reshape(k, k)
        n_y = counts.sum(axis=1, keepdims=True)
        freq = counts / n_y
        inner = (p > 0) & (p < 1)
        exact_ok &= bool(np.array_equal(freq[~inner], p[~inner]))
        zs.extend(np.abs(freq - p)[inner] / np.sqrt(p * (1 - p) / n_y)[inner])
    limit = _bonferroni_limit(len(zs))
    return PropertyResult(
        "noise-corruption-frequencies", exact_ok and max(zs) <= limit,
        f"max |freq - p| = {max(zs):.2f} standard errors over {len(zs)} cells at "
        f"n={n} (limit {limit:.2f}, family-wise false-alarm rate {CORRUPTION_FAMILY_ALPHA:g})")


def corrupted_gradient_check(rng: Rng) -> PropertyResult:
    """The MAE gradient averaged over N = 10,000 corrupted copies of one
    random 6-sample batch against ``expected_gradient``, for uniform, flip
    and flip2 noise at rate 0.4 over K = 5 classes.  Each kind's labels come
    from one ``corrupt`` call on the tiled batch, with T from
    ``build_transition``, as training corrupts its splits.

    A coordinate's gap is measured in its exact standard error,
    SE^2 = 1/(n^2 N) sum_i [sum_c T[y_i,c] g[i,c]^2 - (sum_c T[y_i,c] g[i,c])^2];
    every |z| must stay under the Bonferroni limit that holds the chance of
    any false alarm to ``CORRUPTION_FAMILY_ALPHA``.  A coordinate whose
    gradient is the same for every label has zero SE and must match to
    rounding."""
    k, eta, copies = 5, 0.4, 10_000
    classifier, params, x, y = random_classifier_instance(rng, k)
    g_all = per_label_gradients(classifier, params, x, LossKind.MAE)
    n = len(y)
    constant = np.all(g_all == g_all[:, :1], axis=(0, 1))
    tiled = LabeledDataset(np.empty((copies * n, 0)), np.tile(y, copies), k)
    zs, worst_exact = [], 0.0
    for stream, kind in enumerate(NoiseKind):
        t = build_transition(NoiseSpec(kind, eta, k, seed=7))
        observed = corrupt(tiled, t, rng.spawn(stream)).labels.reshape(copies, n)
        gap = np.abs(sampled_mean_gradient(g_all, observed) - expected_gradient(g_all, y, t.probs))
        rows = t.probs[y][:, :, None]
        variance = ((rows * g_all ** 2).sum(axis=1) - (rows * g_all).sum(axis=1) ** 2).sum(axis=0)
        zs.extend(gap[~constant] / np.sqrt(variance[~constant] / (n * n * copies)))
        worst_exact = max(worst_exact, float(gap[constant].max(initial=0.0)))
    limit = _bonferroni_limit(len(zs))
    exact_ok = worst_exact <= 1e-12 * float(np.abs(g_all).max())
    return PropertyResult(
        "sampled-corruption-mean-gradient", bool(exact_ok and max(zs) <= limit),
        f"max |sampled - expected| = {max(zs):.2f} standard errors over {len(zs)} "
        f"coordinates, {copies} corrupted copies of a {n}-sample batch per noise kind "
        f"(limit {limit:.2f}, family-wise false-alarm rate {CORRUPTION_FAMILY_ALPHA:g}); "
        f"largest gap on the {len(NoiseKind) * int(constant.sum())} zero-variance coordinates "
        f"{worst_exact:.1e} (limit 1e-12 of the largest gradient entry)")


def _prop_noise_model(seed: int) -> list[PropertyResult]:
    results = []
    t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.4, 5, seed=1))
    ok = (np.allclose(np.diag(t.probs), 0.68, atol=1e-12)
          and np.allclose(t.probs[~np.eye(5, dtype=bool)], 0.08, atol=1e-12))
    tf = build_transition(NoiseSpec(NoiseKind.FLIP, 0.4, 5, seed=1))
    ok &= bool(np.allclose(np.diag(tf.probs), 0.6)
               and all(np.sum(np.abs(row - 0.4) < 1e-12) == 1 for row in tf.probs))
    t2 = build_transition(NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=1))
    ok &= bool(np.allclose(np.diag(t2.probs), 0.6)
               and all(np.sum(np.abs(row - 0.2) < 1e-12) == 2 for row in t2.probs))
    t0 = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.0, 4, seed=1))
    ok &= bool(np.array_equal(t0.probs, np.eye(4)))
    results.append(PropertyResult(
        "noise-closed-forms", ok,
        "uniform 0.68/0.08, flip 0.6/0.4, flip2 0.6/0.2+0.2, identity at rate 0"))

    results.append(corruption_frequency_check(Rng(seed).spawn(103)))
    return results


def _prop_flip(seed: int) -> list[PropertyResult]:
    rng = Rng(seed).spawn(104)
    k = 3
    witness = 0.0
    for _ in range(10):
        classifier, params, x, y = random_classifier_instance(rng, k)
        targets = (np.arange(k) + 1 + rng.randint(k - 1)) % k
        clean = clean_mean_gradient(classifier, params, x, y, LossKind.MAE)
        g_all = per_label_gradients(classifier, params, x, LossKind.MAE)
        g = expected_gradient(g_all, y, flip_transition(targets, 0.4))
        witness = max(witness, proportionality_residual(g, clean))
        if witness > 1e-3:
            break
    classifier, params, x, y = random_classifier_instance(rng, k)
    clean = clean_mean_gradient(classifier, params, x, y, LossKind.MAE)
    g_all = per_label_gradients(classifier, params, x, LossKind.MAE)
    maps = list(all_flip_maps(k))
    avg = np.mean([expected_gradient(g_all, y, flip_transition(t, 0.4)) for t in maps], axis=0)
    resid = proportionality_residual(avg, clean)
    return [
        PropertyResult("flip-fixed-map-not-proportional", witness > 1e-3,
                       f"witness residual {witness:.3e} (need > 1e-3 within 10 instances)"),
        PropertyResult("flip-enumerated-maps-proportional", resid <= 1e-10,
                       f"residual {resid:.3e} averaging all {len(maps)} maps (limit 1e-10)"),
    ]


def _prop_flip2_enumeration(seed: int) -> list[PropertyResult]:
    """The expectation under a two-target flip map, whose T is not
    symmetric, against the per-sample sum over the map:
    mean_i (1 - eta) g[i, y_i] + eta/2 (g[i, c_1] + g[i, c_2]), where y_i
    flips to c_1 or c_2.  Reading T transposed moves the expectation."""
    rng = Rng(seed).spawn(108)
    k, eta = 5, 0.4
    targets = (np.arange(k)[:, None] + np.array([1, 2])) % k  # y -> y + 1, y + 2
    classifier, params, x, y = random_classifier_instance(rng, k)
    g_all = per_label_gradients(classifier, params, x, LossKind.MAE)
    got = expected_gradient(g_all, y, flip_transition(targets, eta))
    rows = np.arange(len(y))
    want = ((1.0 - eta) * g_all[rows, y]
            + eta / 2 * g_all[rows[:, None], targets[y]].sum(axis=1)).mean(axis=0)
    rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return [PropertyResult(
        "flip2-fixed-map-enumeration", rel <= 1e-12,
        f"relative difference {rel:.3e} from the per-sample sum over the map "
        f"y -> y+1, y+2 (limit 1e-12)")]


def _prop_hypergradient(seed: int) -> list[PropertyResult]:
    rng = Rng(seed).spawn(105)
    worst = 0.0
    for i in range(20):
        kind = LossKind.MAE if i % 2 == 0 else LossKind.CE
        state, tb, mb, analytic = random_hypergrad_instance(rng, kind=kind)
        fd = finite_diff_theta_grad(state, tb, mb, 0.1, kind)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
    descent_ok = True
    detail_drop = np.inf
    for i in range(5):
        kind = LossKind.MAE if i % 2 == 0 else LossKind.CE
        state, tb, mb, analytic = random_hypergrad_instance(rng, kind=kind)
        before = composed_meta_objective(state, tb, mb, 0.1, kind, state.theta)
        after = composed_meta_objective(state, tb, mb, 0.1, kind,
                                        state.theta - 1e-6 * analytic)
        descent_ok &= after <= before + 1e-12 * max(1.0, abs(before))
        detail_drop = min(detail_drop, before - after)
    return [
        PropertyResult("hypergradient-finite-difference", worst <= 1e-4,
                       f"max relative error {worst:.3e} over 20 instances (limit 1e-4)"),
        PropertyResult("hypergradient-descent-step", bool(descent_ok),
                       f"objective drop >= {detail_drop:.3e} after a 1e-6 step"),
    ]


def _prop_variance_bound(seed: int) -> list[PropertyResult]:
    rng = Rng(seed).spawn(106)
    holds = 0
    configs, k = 100, 5
    for _ in range(configs):
        classifier, params, x, y = random_classifier_instance(rng, k, batch=40)
        pool = LabeledDataset(x, y, k)
        holds += variance_bound_check(classifier, params, pool, eta=0.4, m=20).holds
    return [PropertyResult(
        "variance-bound", holds == configs,
        f"bound held in {holds}/{configs} random configurations (need all)")]


def run_all(seed: int = DEFAULT_VERIFY_SEED) -> list[PropertyResult]:
    """Every verification property at fixed internal seeds."""
    results: list[PropertyResult] = []
    results += _prop_symmetry(seed)
    results += _prop_uniform_expectation(seed)
    results += _prop_flip(seed)
    results += _prop_flip2_enumeration(seed)
    results += _prop_noise_model(seed)
    results += _prop_hypergradient(seed)
    results += _prop_variance_bound(seed)
    results.append(corrupted_gradient_check(Rng(seed).spawn(107)))
    return results
