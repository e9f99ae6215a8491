import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareweight.bilevel import (_METRIC_BLOCK, Batch, BilevelState, EpochMetrics,
                                  TrainConfig, Variant, _epoch_metrics, _row_blocks,
                                  bilevel_step, classifier_update,
                                  meta_gradient_at, theta_gradient, theta_update, train,
                                  train_forward_backward, virtual_step)
from metareweight.data import BlobSpec, LabeledDataset, make_blobs, standardize
from metareweight.losses import LossKind
from metareweight.metrics import accuracy, auc_noisy_detection
from metareweight.nets import ClassifierNet, SampleGrads, WeightNet
from metareweight.noise import NoiseKind, NoiseSpec, build_transition, corrupt
from metareweight.numkit import Rng
from metareweight.verify import (composed_meta_objective, finite_diff_theta_grad,
                                 random_hypergrad_instance)


def tiny_state(seed=0, dim=3, k=3, hidden=(5,), wn_hidden=8, randomize_wn=True):
    rng = Rng(seed)
    classifier = ClassifierNet([dim, *hidden, k])
    weightnet = WeightNet(hidden=wn_hidden)
    params = classifier.init_params(rng)
    theta = weightnet.init_params(rng)
    if randomize_wn:
        theta = 0.4 * rng.gaussians(weightnet.num_params)
    return BilevelState(classifier, weightnet, params, theta), rng


def tiny_batch(rng, n, dim, k):
    return Batch(rng.gaussians(n * dim).reshape(n, dim), rng.randints(n, k))


def weights_of(state, losses):
    return state.weightnet.forward_batch(state.theta, losses)


def train_losses_and_matrix(state, batch):
    """The step's train losses and its per-sample gradients as a matrix."""
    losses, grads = train_forward_backward(state, batch)
    return losses, grads.matrix()


def lookahead(state, batch, alpha):
    """Virtual step of ``batch`` at the state's current weighting params,
    with the per-sample gradient matrix and the weight gradients of the
    step: ``(w_hat, grads, theta_grads)``."""
    losses, grads = train_losses_and_matrix(state, batch)
    weights, theta_grads = state.weightnet.forward_and_grads_batch(state.theta, losses)
    return virtual_step(state, weights, grads, alpha), grads, theta_grads


def hypergradient(state, batch, meta, alpha, kind):
    """The weighting gradient of one step, phase by phase as ``bilevel_step``
    takes it, on the per-sample gradient matrix."""
    w_hat, grads, theta_grads = lookahead(state, batch, alpha)
    g_meta = meta_gradient_at(state.classifier, w_hat, meta, kind)
    return theta_gradient(grads, g_meta, theta_grads, alpha)


def sample_grad(state, params, batch, i, kind):
    """Loss and gradient of sample ``i`` of ``batch`` alone, at ``params``."""
    losses, grads = state.classifier.losses_and_grads_batch(
        params, batch.features[i:i + 1], batch.labels[i:i + 1], kind)
    return losses[0], grads.matrix()[0]


def rel_diff(got, want) -> float:
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def agree(got, want, bound) -> bool:
    """``got`` equals ``want`` to within 1e-12 of the norm of ``bound``."""
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(bound)


def doubled(batch):
    return Batch(np.concatenate([batch.features] * 2), np.concatenate([batch.labels] * 2))


class TestVirtualStep:
    def test_zero_lr_is_identity(self):
        state, rng = tiny_state()
        w_hat, _, _ = lookahead(state, tiny_batch(rng, 4, 3, 3), 0.0)
        assert np.array_equal(w_hat, state.params)

    def test_single_sample_hand_formula(self):
        state, rng = tiny_state(1)
        batch = tiny_batch(rng, 1, 3, 3)
        w = state.params
        loss, g = sample_grad(state, w, batch, 0, LossKind.CE)
        weight = weights_of(state, [loss])[0]
        expect = w - 0.1 * weight * g
        assert np.allclose(lookahead(state, batch, 0.1)[0], expect, atol=1e-15)

    def test_empty_batch_rejected(self):
        state, _ = tiny_state()
        empty = Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="train batch is empty"):
            train_forward_backward(state, empty)
        with pytest.raises(ValueError, match="meta batch is empty"):
            meta_gradient_at(state.classifier, state.params, empty,
                             LossKind.MAE)

    def test_duplicating_batch_is_invariant(self):
        state, rng = tiny_state(2)
        batch = tiny_batch(rng, 4, 3, 3)
        a = lookahead(state, batch, 0.1)[0]
        b = lookahead(state, doubled(batch), 0.1)[0]
        assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))


class TestMetaGradient:
    def test_single_sample_equals_per_sample_grad(self):
        state, rng = tiny_state(3)
        batch = tiny_batch(rng, 1, 3, 3)
        w_hat = state.params + 0.01
        g = meta_gradient_at(state.classifier, w_hat, batch, LossKind.MAE)
        _, expect = sample_grad(state, w_hat, batch, 0, LossKind.MAE)
        assert np.array_equal(g, expect)

    def test_duplicated_batch_same_average(self):
        state, rng = tiny_state(4)
        batch = tiny_batch(rng, 3, 3, 3)
        w_hat = state.params
        a = meta_gradient_at(state.classifier, w_hat, batch, LossKind.CE)
        b = meta_gradient_at(state.classifier, w_hat, doubled(batch), LossKind.CE)
        assert np.allclose(a, b, atol=1e-14)

    def test_equals_mean_of_per_sample_grads(self):
        state, rng = tiny_state(5)
        batch = tiny_batch(rng, 6, 3, 3)
        w_hat = state.params - 0.02
        g = meta_gradient_at(state.classifier, w_hat, batch, LossKind.MAE)
        rows = [sample_grad(state, w_hat, batch, i, LossKind.MAE)[1]
                for i in range(len(batch))]
        assert np.linalg.norm(g - np.mean(rows, axis=0)) <= 1e-12


class TestThetaGradient:
    def test_matches_finite_differences(self):
        from metareweight.verify import finite_diff_theta_grad
        rng = Rng(7)
        for i in range(6):
            kind = LossKind.MAE if i % 2 == 0 else LossKind.CE
            state, tb, mb, analytic = random_hypergrad_instance(rng, kind=kind)
            fd = finite_diff_theta_grad(state, tb, mb, 0.1, kind)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert rel <= 1e-4

    def test_vanishing_meta_gradient_gives_zero(self):
        # a meta batch holding every label of one sample has a zero MAE
        # meta-gradient (symmetric loss), so every alignment inner product
        # vanishes and the weighting-parameter gradient is identically zero
        state, rng = tiny_state(8)
        batch = tiny_batch(rng, 4, 3, 3)
        x = rng.gaussians(3)
        meta = Batch(np.tile(x, (3, 1)), np.arange(3, dtype=np.int64))
        w_hat, grads, theta_grads = lookahead(state, batch, 0.1)
        g_meta = meta_gradient_at(state.classifier, w_hat, meta, LossKind.MAE)
        assert np.linalg.norm(g_meta) <= 1e-14
        g = theta_gradient(grads, g_meta, theta_grads, 0.1)
        assert np.linalg.norm(g) <= 1e-14

    def test_sign_property_single_sample(self):
        # when the training gradient aligns with the meta gradient, a descent
        # step on the weighting parameters must raise that sample's weight
        rng = Rng(9)
        for _ in range(20):
            state, rng2 = tiny_state(rng.randint(10_000), hidden=(6,))
            batch = tiny_batch(rng2, 1, 3, 3)
            meta = Batch(batch.features.copy(), batch.labels.copy())  # aligned
            losses, _ = train_forward_backward(state, batch)
            w_hat, grads, theta_grads = lookahead(state, batch, 0.1)
            g_meta = meta_gradient_at(state.classifier, w_hat, meta, LossKind.CE)
            align = float(grads[0] @ g_meta)
            if abs(align) < 1e-8:
                continue
            t_grad = theta_gradient(grads, g_meta, theta_grads, 0.1)
            before = weights_of(state, losses)[0]
            theta_update(state, t_grad, 1e-3, 0.0)
            after = weights_of(state, losses)[0]
            if align > 0:
                assert after >= before
            else:
                assert after <= before

    def test_scale_invariance_under_duplication(self):
        state, rng = tiny_state(10)
        batch = tiny_batch(rng, 4, 3, 3)
        meta = tiny_batch(rng, 4, 3, 3)
        a = hypergradient(state, batch, meta, 0.1, LossKind.MAE)
        b = hypergradient(state, doubled(batch), meta, 0.1, LossKind.MAE)
        assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("eta", [0.2, 0.4, 0.8])
    def test_linear_in_the_meta_gradient(self, eta):
        # a noisy MAE meta set scales the expected meta-gradient by 1 - eta;
        # the weighting gradient must scale with it, to 1e-15 of the same
        # sums over absolute values (its terms may cancel)
        rng = Rng(24)
        for kind in (*LossKind, *LossKind):
            state, rng2 = tiny_state(rng.randint(10_000), hidden=(5, 4))
            batch, meta = tiny_batch(rng2, 6, 3, 3), tiny_batch(rng2, 5, 3, 3)
            losses, grads = train_forward_backward(state, batch)
            weights, theta_grads = state.weightnet.forward_and_grads_batch(state.theta, losses)
            g_meta = meta_gradient_at(state.classifier,
                                      virtual_step(state, weights, grads, 0.1), meta, kind)
            want = (1.0 - eta) * theta_gradient(grads, g_meta, theta_grads, 0.1)
            got = theta_gradient(grads, (1.0 - eta) * g_meta, theta_grads, 0.1)
            bound = (0.1 / 6) * ((np.abs(grads.matrix()) @ np.abs(g_meta))
                                 @ np.abs(theta_grads.matrix()))
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(bound)

    def test_descent_does_not_increase_objective(self):
        rng = Rng(11)
        for i in range(5):
            kind = LossKind.MAE if i % 2 == 0 else LossKind.CE
            state, tb, mb, analytic = random_hypergrad_instance(rng, kind=kind)
            before = composed_meta_objective(state, tb, mb, 0.1, kind, state.theta)
            theta_update(state, analytic, 1e-6, 0.0)
            after = composed_meta_objective(state, tb, mb, 0.1, kind, state.theta)
            assert after <= before + 1e-12 * max(1.0, abs(before))


class TestThetaUpdate:
    def test_zero_gradient_zero_decay_unchanged(self):
        state, _ = tiny_state(12)
        theta = state.theta
        theta_update(state, np.zeros_like(theta), 0.5, 0.0)
        assert np.array_equal(state.theta, theta)

    def test_zero_lr_unchanged(self):
        state, rng = tiny_state(13)
        theta = state.theta
        theta_update(state, rng.gaussians(theta.size), 0.0, 0.0)
        assert np.array_equal(state.theta, theta)

    def test_hand_arithmetic(self):
        state, _ = tiny_state(14, wn_hidden=2)
        state.theta = np.ones(state.weightnet.num_params)
        theta_update(state, np.full(state.weightnet.num_params, 2.0), 0.1, 0.0)
        assert np.allclose(state.theta, 0.8, atol=1e-15)

    def test_misaligned_gradient_rejected(self):
        state, _ = tiny_state(15)
        with pytest.raises(ValueError):
            theta_update(state, np.zeros(3), 0.1, 0.0)

    def test_nonfinite_result_rejected_and_named(self):
        state, _ = tiny_state(15)
        theta = state.theta
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="weighting-net parameter vector contains non-finite"):
            theta_update(state, np.full(theta.size, 1e300), 1e300, 0.0)
        assert state.theta is theta


class TestClassifierUpdate:
    def test_plain_step_at_zero_momentum_decay(self):
        state, rng = tiny_state(16)
        losses, grads = train_losses_and_matrix(state, tiny_batch(rng, 4, 3, 3))
        expect = state.params - 0.1 * (weights_of(state, losses) @ grads) / 4
        classifier_update(state, losses, grads, 0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(state.params, expect, atol=1e-15)

    def test_fresh_weightnet_is_half_unweighted_step(self):
        state, rng = tiny_state(17, randomize_wn=False)  # fresh net: weight 0.5
        losses, grads = train_losses_and_matrix(state, tiny_batch(rng, 4, 3, 3))
        before = state.params
        classifier_update(state, losses, grads, 0.1, momentum=0.0, weight_decay=0.0)
        step = before - state.params
        assert np.allclose(step, 0.5 * 0.1 * grads.mean(axis=0), atol=1e-15)

    def test_momentum_recurrence_with_zero_gradient(self):
        # alpha = 0 freezes the classifier, so the same (losses, grads) feed
        # two updates and the buffer arithmetic can be tracked directly
        state, rng = tiny_state(18)
        losses, grads = train_losses_and_matrix(state, tiny_batch(rng, 3, 3, 3))
        state.momentum_buffer = np.ones(state.classifier.num_params)
        w0 = state.params
        classifier_update(state, losses, grads, 0.0, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(state.params, w0)  # alpha 0: frozen
        mean = (weights_of(state, losses) @ grads) / 3
        expect_v = 0.9 * (0.9 * np.ones_like(w0) + mean) + mean
        classifier_update(state, losses, grads, 0.0, momentum=0.9, weight_decay=0.0)
        assert np.allclose(state.momentum_buffer, expect_v, atol=1e-14)

    def test_nonfinite_result_rejected_and_named(self):
        state, rng = tiny_state(18)
        losses, grads = train_losses_and_matrix(state, tiny_batch(rng, 3, 3, 3))
        params = state.params
        state.momentum_buffer = np.full(state.classifier.num_params, 1e300)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="classifier parameter vector contains non-finite"):
            classifier_update(state, losses, grads, 1e300, momentum=0.9,
                              weight_decay=0.0)
        assert state.params is params


class TestFusedStep:
    def test_equals_composed_ops(self):
        # The step is checked against the same update written out in one
        # place on the materialized per-sample gradient matrices.  The step
        # contracts factored gradients instead, which sums in another
        # order, so the two agree to rounding (1e-12 relative), not bitwise.
        cfg = TrainConfig(train_batch=4, meta_batch=4, classifier_lr=0.1,
                          meta_lr=1e-3, momentum=0.9, weight_decay=5e-4,
                          epochs=1, lr_milestones=())
        state, rng = tiny_state(19)
        state.momentum_buffer = rng.gaussians(state.classifier.num_params)
        batch = tiny_batch(rng, 4, 3, 3)
        meta = tiny_batch(rng, 4, 3, 3)
        clf, wn = state.classifier, state.weightnet
        w, theta, v, alpha = state.params, state.theta, state.momentum_buffer, 0.1

        losses, grads = clf.losses_and_grads_batch(w, batch.features, batch.labels,
                                                   LossKind.CE)
        grads = grads.matrix()
        weights, theta_grads = wn.forward_and_grads_batch(theta, losses)
        theta_grads = theta_grads.matrix()
        w_hat = w - (alpha / 4) * (weights @ grads)
        _, meta_grads = clf.losses_and_grads_batch(w_hat, meta.features, meta.labels,
                                                   LossKind.MAE)
        meta_grads = meta_grads.matrix()
        t_grad = -(alpha / 4) * ((grads @ meta_grads.mean(axis=0)) @ theta_grads)
        theta_new = theta - cfg.meta_lr * (t_grad + cfg.weight_decay * theta)
        v_new = cfg.momentum * v + ((wn.forward_batch(theta_new, losses) @ grads) / 4
                                    + cfg.weight_decay * w)

        bilevel_step(state, batch, meta, cfg, alpha, LossKind.MAE)
        assert rel_diff(state.theta, theta_new) <= 1e-12
        assert rel_diff(state.momentum_buffer, v_new) <= 1e-12
        assert rel_diff(state.params, w - alpha * v_new) <= 1e-12


@st.composite
def step_instances(draw):
    """A random bilevel step: depth, widths, batch sizes and meta loss."""
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(2, 5))
    hidden = draw(st.lists(st.integers(1, 8), min_size=0, max_size=3))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(list(LossKind)))
    rng = Rng(draw(st.integers(0, 2**32)))
    classifier = ClassifierNet([dim, *hidden, k])
    weightnet = WeightNet(hidden=draw(st.integers(1, 10)))
    state = BilevelState(classifier, weightnet, classifier.init_params(rng),
                         0.5 * rng.gaussians(weightnet.num_params))
    state.momentum_buffer = rng.gaussians(classifier.num_params)
    return state, tiny_batch(rng, n, dim, k), tiny_batch(rng, m, dim, k), kind, rng


class TestFactoredStep:
    """The step contracts factored per-sample gradients; every piece must
    agree with the same contraction of the materialized matrices."""

    @settings(max_examples=300, deadline=None)
    @given(step_instances())
    def test_pieces_and_step_match_the_materialized_path(self, instance):
        # Each result must match to 1e-12 relative to its bound: the same
        # sums taken over absolute values, so that a sum that cancels to
        # about zero is judged by the size of its terms.
        state, batch, meta, kind, rng = instance
        clf, wn = state.classifier, state.weightnet
        w, theta, v, alpha = state.params, state.theta, state.momentum_buffer, 0.1
        n = len(batch)
        A = np.abs

        losses, grads = train_forward_backward(state, batch)
        ref_grads = grads.matrix()
        c, g = rng.gaussians(n), rng.gaussians(clf.num_params)
        assert agree(c @ grads, c @ ref_grads, A(c) @ A(ref_grads))
        assert agree(grads @ g, ref_grads @ g, A(ref_grads) @ A(g))

        weights, theta_grads = wn.forward_and_grads_batch(theta, losses)
        ref_theta_grads = theta_grads.matrix()
        assert agree(c @ theta_grads, c @ ref_theta_grads, A(c) @ A(ref_theta_grads))

        step_bound = (alpha / n) * (weights @ A(ref_grads))
        w_hat = w - (alpha / n) * (weights @ ref_grads)
        assert agree(virtual_step(state, weights, grads, alpha), w_hat, A(w) + step_bound)
        _, meta_grads = clf.losses_and_grads_batch(w_hat, meta.features, meta.labels, kind)
        meta_grads = meta_grads.matrix()
        g_meta, g_meta_bound = meta_grads.mean(axis=0), A(meta_grads).mean(axis=0)
        factored_g_meta = meta_gradient_at(clf, virtual_step(state, weights, grads, alpha),
                                           meta, kind)
        assert agree(factored_g_meta, g_meta, g_meta_bound)
        t_grad = -(alpha / n) * ((ref_grads @ g_meta) @ ref_theta_grads)
        t_bound = (alpha / n) * ((A(ref_grads) @ g_meta_bound) @ A(ref_theta_grads))
        assert agree(theta_gradient(grads, factored_g_meta, theta_grads, alpha), t_grad,
                     t_bound)

        cfg = TrainConfig(meta_lr=1e-3, momentum=0.9, weight_decay=5e-4)
        theta_new = theta - cfg.meta_lr * (t_grad + cfg.weight_decay * theta)
        new_weights = wn.forward_batch(theta_new, losses)
        v_new = cfg.momentum * v + ((new_weights @ ref_grads) / n + cfg.weight_decay * w)
        v_bound = (cfg.momentum * A(v) + (new_weights @ A(ref_grads)) / n
                   + cfg.weight_decay * A(w))
        bilevel_step(state, batch, meta, cfg, alpha, kind)
        assert agree(state.theta, theta_new,
                     A(theta) + cfg.meta_lr * (t_bound + cfg.weight_decay * A(theta)))
        assert agree(state.momentum_buffer, v_new, v_bound)
        assert agree(state.params, w - alpha * v_new, A(w) + alpha * v_bound)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_two_hidden_layers_match_finite_differences(self, kind):
        rng = Rng(23)
        for _ in range(4):
            state, tb, mb, analytic = random_hypergrad_instance(rng, hidden=(5, 4), kind=kind)
            fd = finite_diff_theta_grad(state, tb, mb, 0.1, kind)
            assert rel_diff(analytic, fd) <= 1e-4


def quick_splits(rate=0.0, seed=0, spec=None):
    spec = spec or BlobSpec(num_classes=3, dim=4, n_train=240, n_meta=60, n_test=240,
                            separation=6.0, seed=seed)
    bundle = standardize(make_blobs(spec))
    t = build_transition(NoiseSpec(NoiseKind.UNIFORM, rate, spec.num_classes, seed=seed))
    train_split = corrupt(bundle.train, t, Rng(seed).spawn(51))
    meta_split = corrupt(bundle.meta, t, Rng(seed).spawn(52))
    return train_split, meta_split, bundle.test


class TestTrainLoop:
    def test_separable_data_reaches_high_accuracy(self):
        train_split, meta_split, test = quick_splits(rate=0.0)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=12, lr_milestones=(8, 10))
        [report] = train([Variant.NOISY_MAE], [train_split], [meta_split], test, cfg, seed=3)
        assert report.final_accuracy >= 0.98

    def test_identical_seeds_identical_reports(self):
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=3, lr_milestones=())
        [a] = train([Variant.NOISY_CE], [train_split], [meta_split], test, cfg, seed=5)
        [b] = train([Variant.NOISY_CE], [train_split], [meta_split], test, cfg, seed=5)
        assert a.to_csv() == b.to_csv()

    def test_meta_loss_comes_from_variant(self, monkeypatch):
        # train() takes the meta loss from the variant alone; the config
        # has no field that could disagree with it
        import metareweight.bilevel as b
        seen = []
        original = b.bilevel_step

        def spy(*args):
            seen.append(args[-1])
            return original(*args)

        monkeypatch.setattr(b, "bilevel_step", spy)
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=1, lr_milestones=())
        for variant in Variant:
            seen.clear()
            train([variant], [train_split], [meta_split], test, cfg, seed=2)
            assert set(seen) == {(variant.meta_loss,)}

    def test_clean_meta_path_equals_noisy_path_at_rate_zero(self):
        # corrupting with rate 0 is a no-op, so the clean-meta variant and a
        # rate-0 "noisy" CE run must produce identical trajectories
        train_split, meta_split, test = quick_splits(rate=0.0)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=4, lr_milestones=())
        [a] = train([Variant.CLEAN_CE], [train_split], [meta_split], test, cfg, seed=7)
        [b] = train([Variant.NOISY_CE], [train_split], [meta_split], test, cfg, seed=7)
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("lrs", [dict(classifier_lr=1e100), dict(meta_lr=1e200)])
    def test_divergence_names_epoch_and_step(self, lrs):
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=2, lr_milestones=(), **lrs)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^epoch 0, step \d+: .*non-finite entries"):
            train([Variant.NOISY_MAE], [train_split], [meta_split], test, cfg, seed=1)

    def test_three_backward_passes_per_step_and_no_gradient_matrix(self, monkeypatch):
        # A step makes a classifier backward pass on the train batch, one
        # weighting-net pass and a classifier pass on the meta batch.  Each
        # returns a SampleGrads that holds only the layer inputs and deltas,
        # and training never builds the per-sample gradient matrix.
        calls = []

        def spy(method):
            def wrapped(net, params, inputs, *rest):
                out, grads = method(net, params, inputs, *rest)
                sizes, n = net.layer_sizes, out.size
                assert grads.nbytes == sum(a.nbytes for a in grads.inputs + grads.deltas)
                assert grads.nbytes == 8 * n * (sum(sizes[:-1]) + sum(sizes[1:]))
                calls.append((type(net), inputs, rest[1:]))
                return out, grads
            return wrapped

        for cls, name in ((ClassifierNet, "losses_and_grads_batch"),
                          (WeightNet, "forward_and_grads_batch")):
            monkeypatch.setattr(cls, name, spy(getattr(cls, name)))
        state, rng = tiny_state(20, hidden=(5, 4))
        batch, meta = tiny_batch(rng, 4, 3, 3), tiny_batch(rng, 6, 3, 3)
        cfg = TrainConfig(train_batch=4, meta_batch=6, epochs=1, lr_milestones=())
        bilevel_step(state, batch, meta, cfg, 0.1, LossKind.MAE)
        assert [net for net, _, _ in calls] == [ClassifierNet, WeightNet, ClassifierNet]
        assert calls[0][1] is batch.features and calls[0][2] == (LossKind.CE,)
        assert calls[2][1] is meta.features and calls[2][2] == (LossKind.MAE,)

        def no_matrix(grads):
            raise AssertionError("training built a per-sample gradient matrix")

        monkeypatch.setattr(SampleGrads, "matrix", no_matrix)
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=2, lr_milestones=())
        for variant in Variant:
            calls.clear()
            [report] = train([variant], [train_split], [meta_split], test, cfg, seed=1)
            assert len(report.epochs) == 2
            assert len(calls) == 3 * 2 * (len(train_split) // 40)

    def test_index_streams_visit_every_train_row_and_span_the_meta_rows(self, monkeypatch):
        # Row-coded features: a batch's feature column is its row indices.
        import metareweight.bilevel as b
        batches = []
        monkeypatch.setattr(b, "bilevel_step", lambda state, tb, mb, *rest: batches.append(
            (tb.features[:, 0].astype(int), mb.features[:, 0].astype(int))))

        def rows(n):
            return LabeledDataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 3, 3)

        n_train, n_meta = 410, 150
        cfg = TrainConfig(train_batch=40, meta_batch=100, epochs=2, lr_milestones=())
        train([Variant.NOISY_MAE], [rows(n_train)], [rows(n_meta)], rows(6), cfg, seed=1)
        steps = -(-n_train // cfg.train_batch)
        assert len(batches) == cfg.epochs * steps
        for epoch in range(cfg.epochs):
            visited = np.concatenate([t for t, _ in batches[epoch * steps:(epoch + 1) * steps]])
            assert np.array_equal(np.sort(visited), np.arange(n_train))
        assert all(len(m) == cfg.meta_batch for _, m in batches)
        assert np.array_equal(np.unique(np.concatenate([m for _, m in batches])),
                              np.arange(n_meta))

    def test_metrics_failure_names_the_epoch(self, monkeypatch):
        import metareweight.bilevel as b

        def failing(*args):
            raise ValueError("loss values contains non-finite entries")

        monkeypatch.setattr(b, "_epoch_metrics", failing)
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=2, lr_milestones=())
        with pytest.raises(ValueError, match=r"^epoch 0, metrics: loss values contains"):
            train([Variant.NOISY_MAE], [train_split], [meta_split], test, cfg, seed=1)

    def test_lr_schedule_divides_by_ten(self):
        from metareweight.bilevel import _scheduled_lr
        cfg = TrainConfig(classifier_lr=0.05, lr_milestones=(2, 4), epochs=6)
        assert _scheduled_lr(cfg, 0) == 0.05
        assert _scheduled_lr(cfg, 2) == pytest.approx(0.005)
        assert _scheduled_lr(cfg, 4) == pytest.approx(0.0005)

    def test_report_csv_columns(self):
        train_split, meta_split, test = quick_splits(rate=0.3)
        cfg = TrainConfig(train_batch=40, meta_batch=30, epochs=2, lr_milestones=())
        [report] = train([Variant.NOISY_MAE], [train_split], [meta_split], test, cfg, seed=1)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "epoch,test_accuracy,train_auc,mean_weight_clean,mean_weight_corrupt"
        assert len(lines) == 3


def unblocked_metrics(state, epoch, train_split, test):
    """The per-epoch metrics with each split evaluated in one call, and the
    weights of every train sample."""
    test_acc = accuracy(state.classifier.predict_batch(state.params, test.features),
                        test.labels)
    losses = state.classifier.losses_batch(state.params, train_split.features,
                                           train_split.labels, LossKind.CE)
    weights = state.weightnet.forward_batch(state.theta, losses)
    flags = train_split.is_corrupted
    return EpochMetrics(epoch, test_acc, auc_noisy_detection(weights, flags),
                        float(weights[~flags].mean()), float(weights[flags].mean())), weights


def run_of(state):
    """The nets and vectors of one run, as ``_epoch_metrics`` takes them."""
    return state.classifier, state.weightnet, state.params, state.theta


def metric_splits(rng, n, dim=20, k=5):
    """A train split of ``n`` rows with about a third mislabelled and a test
    split of ``n`` rows, features off the training distribution."""
    labels = rng.randints(n, k)
    observed = np.where(rng.uniforms(n) < 0.3, (labels + 1) % k, labels)
    train_split = LabeledDataset(3.0 * rng.gaussians(n * dim).reshape(n, dim),
                                 observed, k, true_labels=labels)
    test = LabeledDataset(3.0 * rng.gaussians(n * dim).reshape(n, dim),
                          rng.randints(n, k), k)
    return train_split, test


class TestBlockedMetrics:
    """The per-epoch metrics run the nets in row blocks; every field and
    every weight equals one unblocked pass over each split."""

    @pytest.mark.parametrize("n", [_METRIC_BLOCK - 1, _METRIC_BLOCK, _METRIC_BLOCK + 1,
                                   2 * _METRIC_BLOCK + 1, 2 * _METRIC_BLOCK + 1500])
    def test_equals_one_pass_over_each_split(self, n, monkeypatch):
        import metareweight.bilevel as b

        state, rng = tiny_state(seed=n, dim=20, k=5, hidden=(32, 32), wn_hidden=100)
        state.theta = 0.5 * rng.gaussians(state.weightnet.num_params)
        train_split, test = metric_splits(rng, n)
        want, want_weights = unblocked_metrics(state, 7, train_split, test)
        scores = []
        monkeypatch.setattr(b, "auc_noisy_detection",
                            lambda s, flags: scores.append(s) or auc_noisy_detection(s, flags))
        got = _epoch_metrics(*run_of(state), 7, train_split, test)
        assert got == want
        assert np.array_equal(scores[0], want_weights)
        assert len(set(want_weights.tolist())) > n // 2  # the weights do vary

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 2047, 2048, 2049, 3071, 3072,
                                   4097, 20000])
    def test_row_blocks(self, n):
        blocks = _row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(s.start % _METRIC_BLOCK == 0 for s in blocks)
        assert all(s.stop - s.start < 1.5 * _METRIC_BLOCK for s in blocks)
        assert n < _METRIC_BLOCK or min(s.stop - s.start for s in blocks) >= _METRIC_BLOCK // 2

    def test_peak_memory_of_a_wide_split(self):
        state, rng = tiny_state(seed=2, dim=20, k=5, hidden=(32, 32), wn_hidden=100)
        train_split, test = metric_splits(rng, 20000)
        _epoch_metrics(*run_of(state), 0, train_split, test)  # warm caches outside the trace
        tracemalloc.start()
        try:
            _epoch_metrics(*run_of(state), 0, train_split, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2048, 100) float64 block is 1.6 MB; the whole split's is 16 MB
        assert peak < 6e6
