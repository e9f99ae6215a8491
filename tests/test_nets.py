import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareweight.losses import LossKind, grad_logits_batch, loss_values_batch
from metareweight.nets import ClassifierNet, SampleGrads, WeightNet, _matmul, _softmax_rows
from metareweight.numkit import Rng


def fd_grad(fn, params, step=1e-6):
    out = np.empty(params.size)
    for i in range(params.size):
        p = params.copy()
        p[i] = params[i] + step
        f_plus = fn(p)
        p[i] = params[i] - step
        f_minus = fn(p)
        out[i] = (f_plus - f_minus) / (2 * step)
    return out


def probs_one(net, params, x):
    return net.forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]


def loss_and_grad_one(net, params, x, label, kind):
    losses, grads = net.losses_and_grads_batch(
        params, np.asarray(x, dtype=np.float64)[None, :], [label], kind)
    return losses[0], grads.matrix()[0]


def weight_one(net, theta, loss_value):
    return float(net.forward_batch(theta, [loss_value])[0])


def weight_grad_one(net, theta, loss_value):
    return net.forward_and_grads_batch(theta, [loss_value])[1].matrix()[0]


class TestClassifierForward:
    def test_zero_params_give_uniform(self):
        net = ClassifierNet([3, 4, 5])
        u = probs_one(net, np.zeros(net.num_params), [1.0, -2.0, 0.5])
        assert np.allclose(u, 0.2, atol=1e-15)

    def test_probabilities_normalized(self):
        rng = Rng(2)
        for _ in range(100):
            net = ClassifierNet([4, 6, 3])
            u = probs_one(net, net.init_params(rng), rng.gaussians(4))
            assert abs(u.sum() - 1.0) <= 1e-9
            assert np.all(u >= 0.0)

    def test_hand_softmax_single_layer(self):
        net = ClassifierNet([2, 2])
        u = probs_one(net, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),  # W=I, b=0
                      [3.0, 0.0])
        expect = np.exp([3.0, 0.0]) / np.exp([3.0, 0.0]).sum()
        assert np.allclose(u, expect, atol=1e-12)
        assert u[0] == pytest.approx(0.95257, abs=1e-5)

    def test_dimension_mismatch(self):
        net = ClassifierNet([3, 2])
        with pytest.raises(ValueError):
            probs_one(net, net.init_params(Rng(1)), [1.0, 2.0])
        with pytest.raises(ValueError, match="params"):
            probs_one(net, np.zeros(net.num_params - 1), [1.0, 2.0, 3.0])

    def test_evaluation_leaves_stored_params_untouched(self):
        # the passes read the caller's vector through views; none writes it
        net, wn = ClassifierNet([3, 4, 2]), WeightNet(hidden=5)
        rng = Rng(4)
        params, theta = net.init_params(rng), rng.gaussians(wn.num_params)
        stored = params.copy(), theta.copy()
        x = rng.gaussians(6).reshape(2, 3)
        net.losses_and_grads_batch(params, x, [0, 1], LossKind.CE)
        net.predict_batch(params, x)
        net.hidden_preactivations(params, x)
        wn.forward_and_grads_batch(theta, [0.5, 2.0])
        wn.forward_batch(theta, [0.5, 2.0])
        wn.hidden_preactivations(theta, [0.5, 2.0])
        assert np.array_equal(params, stored[0]) and np.array_equal(theta, stored[1])


def reduce_max_softmax(z):
    """The softmax with the row max as numpy's reduce, the form
    ``_softmax_rows`` replaces with a fold over the columns."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmaxRows:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           lead=st.sampled_from([(), (5,), (3, 4)]), share=st.sampled_from([0.0, 0.3, 1.0]))
    def test_row_max_fold_equals_the_reduce(self, seed, k, lead, share):
        # Ties, signed zeros, infinities and NaN of both signs.  A row with
        # NaNs of both signs may give its NaNs either sign: no output reads
        # it, since a NaN probability fails the loss check.
        rng = Rng(seed)
        special = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, -np.nan])
        z = rng.gaussians(int(np.prod(lead, dtype=int)) * k, 100.0).reshape(*lead, k)
        picked = rng.uniforms(z.size).reshape(z.shape) < share
        z[picked] = special[rng.randints(int(picked.sum()), len(special))]
        with np.errstate(all="ignore"):
            got, want = _softmax_rows(z), reduce_max_softmax(z)
        assert np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got)[numbers], np.signbit(want)[numbers])


class TestClassifierGradients:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_matches_finite_differences(self, kind):
        rng = Rng(5)
        for _ in range(10):
            net = ClassifierNet([3, 5, 4])
            params = net.init_params(rng)
            x = rng.gaussians(3)
            label = rng.randint(4)
            loss, g = loss_and_grad_one(net, params, x, label, kind)

            def objective(p, net=net, x=x, label=label):
                return float(net.losses_batch(p, x[None, :], [label], kind)[0])

            fd = fd_grad(objective, params)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))
            assert loss == pytest.approx(objective(params), abs=1e-12)

    def test_deterministic_repeat(self):
        net = ClassifierNet([3, 4, 2])
        params = net.init_params(Rng(9))
        x = Rng(10).gaussians(3)
        l1, g1 = loss_and_grad_one(net, params, x, 1, LossKind.CE)
        l2, g2 = loss_and_grad_one(net, params, x, 1, LossKind.CE)
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_zero_logit_output_bias_grad(self):
        net = ClassifierNet([3, 4, 5])
        _, g = loss_and_grad_one(net, np.zeros(net.num_params), [0.3, -0.1, 2.0], 2,
                                 LossKind.CE)
        bias_grad = g[-5:]  # final layer bias is the tail of the flat layout
        expect = np.full(5, 0.2)
        expect[2] -= 1.0
        assert np.allclose(bias_grad, expect, atol=1e-12)

    def test_batch_rows_equal_per_sample(self):
        rng = Rng(12)
        net = ClassifierNet([4, 6, 3])
        params = net.init_params(rng)
        x = rng.gaussians(5 * 4).reshape(5, 4)
        labels = rng.randints(5, 3)
        losses, grads = net.losses_and_grads_batch(params, x, labels, LossKind.MAE)
        for i in range(5):
            li, gi = loss_and_grad_one(net, params, x[i], labels[i], LossKind.MAE)
            assert losses[i] == pytest.approx(li, abs=1e-15)
            assert np.allclose(grads.matrix()[i], gi, atol=1e-15)


class TestSampleGrads:
    def test_coefficients_need_one_entry_per_sample(self):
        # a length-1 vector must not be broadcast over the batch: the
        # matrix the gradients stand for rejects it too
        rng = Rng(40)
        net = ClassifierNet([3, 4, 2])
        x = rng.gaussians(15).reshape(5, 3)
        _, grads = net.losses_and_grads_batch(net.init_params(rng), x, rng.randints(5, 2),
                                              LossKind.CE)
        for c in (np.ones(1), np.ones(6)):
            with pytest.raises(ValueError, match=rf"\({c.size},\).* 5 per-sample"):
                c @ grads
            with pytest.raises(ValueError):
                c @ grads.matrix()
        assert np.allclose(np.ones(5) @ grads, np.ones(5) @ grads.matrix(), atol=1e-14)


class TestFlatParams:
    def test_wrong_size_rejected(self):
        net = ClassifierNet([2, 2])
        x = np.zeros((1, 2))
        p = net.num_params
        # every method also takes a (T, P) stack, never a deeper one
        for params in (np.zeros(p + 1), np.zeros((1, p + 1)), np.zeros((1, 1, p))):
            with pytest.raises(ValueError, match="params"):
                net.forward_batch(params, x)
            with pytest.raises(ValueError, match="params"):
                net.losses_and_grads_batch(params, x, [0], LossKind.CE)

    def test_round_trip_identity(self):
        net = ClassifierNet([5, 7, 3])
        params = net.init_params(Rng(3))
        assert np.array_equal(net.set_flat(net.get_flat(params)), params)

    def test_set_flat_rejects_wrong_size_and_nonfinite_and_names_the_vector(self):
        net = ClassifierNet([2, 2])
        with pytest.raises(ValueError, match="^theta must have 6 entries, got 7$"):
            net.set_flat(np.zeros(net.num_params + 1), "theta")
        with pytest.raises(ValueError, match="must be 1-D or 2-D"):
            net.set_flat(np.zeros((1, 1, net.num_params)))
        with pytest.raises(ValueError, match="^theta contains non-finite"):
            net.set_flat(np.full(net.num_params, np.nan), "theta")
        stack = np.zeros((3, net.num_params))
        stack[1, 2] = np.inf
        with pytest.raises(ValueError, match="^theta contains non-finite"):
            net.set_flat(stack, "theta")
        with pytest.raises(ValueError, match="non-finite"):
            net.get_flat(np.full(net.num_params, np.inf))

    def test_get_flat_is_a_snapshot(self):
        net = ClassifierNet([2, 3, 2])
        params = net.init_params(Rng(3))
        flat = net.get_flat(params)
        assert np.array_equal(flat, params) and not np.shares_memory(flat, params)
        flat += 1.0
        assert np.array_equal(params, net.init_params(Rng(3)))

    def test_init_draws_a_fresh_vector(self):
        net = ClassifierNet([2, 3, 2])
        rng = Rng(3)
        a, b = net.init_params(rng), net.init_params(rng)
        assert a.shape == b.shape == (net.num_params,)
        assert not np.shares_memory(a, b) and not np.array_equal(a, b)
        assert np.array_equal(a, net.init_params(Rng(3)))

    def test_layout_is_weights_then_bias_per_layer(self):
        # [2, 3, 1]: W1 (3x2) row-major, b1 (3,), W2 (1x3), b2 (1,)
        net = ClassifierNet([2, 3, 1])
        params = np.zeros(net.num_params)
        params[6:9] = 1.0     # b1: every hidden unit outputs 1 at x = 0
        params[9:12] = 2.0    # W2
        params[12] = 0.5      # b2
        acts = net.hidden_preactivations(params, np.zeros((1, 2)))
        assert np.array_equal(acts, np.ones(3))
        params[0:2] = [1.0, -1.0]  # first row of W1 reads x0 - x1
        acts = net.hidden_preactivations(params, np.array([[3.0, 1.0]]))
        assert np.array_equal(acts, [3.0, 1.0, 1.0])

    def test_same_draws_as_per_layer_init(self):
        # He-normal draws layer by layer in input-to-output order, zero biases
        rng = Rng(21)
        expect = []
        for fan_in, fan_out in ((4, 6), (6, 3)):
            expect.append(rng.gaussians(fan_out * fan_in, np.sqrt(2.0 / fan_in)))
            expect.append(np.zeros(fan_out))
        net = ClassifierNet([4, 6, 3])
        assert np.array_equal(net.init_params(Rng(21)), np.concatenate(expect))


class TestWeightNet:
    def test_zero_params_give_half(self):
        net = WeightNet(hidden=10)
        theta = np.zeros(net.num_params)
        for v in (0.0, 0.5, 3.0, 100.0):
            assert weight_one(net, theta, v) == 0.5

    def test_fresh_net_outputs_half(self):
        # zeroed output layer: neutral start regardless of the hidden init
        net = WeightNet()
        theta = net.init_params(Rng(123))
        assert weight_one(net, theta, 1.7) == 0.5
        assert np.all(theta[-101:-1] == 0.0)  # output weights
        assert np.all(theta[:100] != 0.0)     # hidden weights drawn

    def test_init_draws_the_output_layer_before_zeroing_it(self):
        # the zeroed output weights still consume their He-normal draws, so
        # the stream continues exactly as after a full [1, H, 1] init
        rng_a, rng_b = Rng(8), Rng(8)
        WeightNet(hidden=7).init_params(rng_a)
        ClassifierNet([1, 7, 1]).init_params(rng_b)
        assert np.array_equal(rng_a.gaussians(4), rng_b.gaussians(4))

    def test_output_in_open_unit_interval(self):
        rng = Rng(2)
        for _ in range(100):
            net = WeightNet(hidden=10)
            out = net.forward_batch(rng.gaussians(net.num_params),
                                    8.0 * rng.uniforms(10))
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_hand_composed_single_unit(self):
        net = WeightNet(hidden=3)
        theta = np.zeros(net.num_params)
        a, b, v, c = 1.5, -0.25, 2.0, 0.3
        theta[0] = a          # first hidden weight
        theta[3] = b          # first hidden bias
        theta[6] = v          # output weight for that unit
        theta[9] = c          # output bias
        val = 1.2
        expect = 1.0 / (1.0 + np.exp(-(v * max(0.0, a * val + b) + c)))
        assert weight_one(net, theta, val) == pytest.approx(expect, abs=1e-15)
        weights, _ = net.forward_and_grads_batch(theta, [val])
        assert weights[0] == weight_one(net, theta, val)

    def test_grad_matches_finite_differences(self):
        rng = Rng(6)
        for _ in range(50):
            net = WeightNet(hidden=8)
            theta = rng.gaussians(net.num_params, 0.5)
            val = 5.0 * rng.uniforms(1)[0]
            g = weight_grad_one(net, theta, val)
            fd = fd_grad(lambda p, net=net, val=val: weight_one(net, p, val), theta)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_zero_params_output_bias_grad_is_quarter(self):
        net = WeightNet(hidden=10)
        g = weight_grad_one(net, np.zeros(net.num_params), 2.0)
        assert g[-1] == pytest.approx(0.25, abs=1e-15)  # logistic'(0)

    def test_dead_unit_has_zero_incoming_grads(self):
        net = WeightNet(hidden=2)
        theta = np.zeros(net.num_params)
        theta[0] = -1.0   # unit 0 pre-activation is negative for positive input
        theta[1] = 1.0
        theta[4] = 0.7    # output weights nonzero so gradients could flow
        theta[5] = 0.7
        g = weight_grad_one(net, theta, 2.0)
        assert g[0] == 0.0 and g[2] == 0.0  # W1 and b1 entries of the dead unit
        assert g[1] != 0.0 and g[3] != 0.0

    def test_saturated_logistic_raises_no_warning(self):
        # a logit below -709 overflows exp(-z); the weight is the clip
        net = WeightNet(hidden=4)
        theta = np.zeros(net.num_params)
        theta[-1] = -800.0  # output bias
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = net.forward_batch(theta, [0.5, 1.0])
            clipped, grads = net.forward_and_grads_batch(theta, [0.5, 1.0])
        assert np.array_equal(weights, [net._OUTPUT_CLIP] * 2)
        assert np.array_equal(clipped, weights)
        assert not np.any(grads.matrix())

    def test_nonfinite_input_rejected(self):
        net = WeightNet(hidden=4)
        theta = net.init_params(Rng(1))
        with pytest.raises(ValueError):
            weight_one(net, theta, float("nan"))
        with pytest.raises(ValueError):
            weight_one(net, theta, float("inf"))


def weightnet_oracle(net, theta, loss_values):
    """The weighting net written out for its one hidden layer: clipped
    weights and per-input gradients ``[dh * v, dh, dout * h, dout]``."""
    v = np.asarray(loss_values, dtype=np.float64)
    hidden = net.layer_sizes[1]
    w1, b1 = theta[:hidden], theta[hidden:2 * hidden]
    w2, b2 = theta[2 * hidden:3 * hidden], theta[3 * hidden]
    zh = np.outer(v, w1) + b1
    h = np.maximum(zh, 0.0)
    out = 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))
    dout = out * (1.0 - out)
    dh = dout[:, None] * w2 * (zh > 0.0)
    grads = np.concatenate([dh * v[:, None], dh, dout[:, None] * h, dout[:, None]],
                           axis=1)
    return np.clip(out, net._OUTPUT_CLIP, 1.0 - net._OUTPUT_CLIP), grads, zh.ravel()


class TestWeightNetOracle:
    """The weighting net runs the classifier's forward and per-sample
    backward loops; they must reproduce its closed form bit for bit."""

    def check(self, net, theta, v):
        weights, grads, pre = weightnet_oracle(net, theta, v)
        got_weights, got_grads = net.forward_and_grads_batch(theta, v)
        assert np.array_equal(got_weights, weights)
        assert np.array_equal(got_grads.matrix(), grads)
        assert np.array_equal(net.forward_batch(theta, v), weights)
        assert np.array_equal(net.hidden_preactivations(theta, v), pre)

    def test_random_sizes_and_inputs(self):
        rng = Rng(31)
        for _ in range(200):
            net = WeightNet(hidden=1 + rng.randint(120))
            n = 1 + rng.randint(200)
            self.check(net, rng.gaussians(net.num_params, 2.0),
                       8.0 * rng.uniforms(n))

    def test_dead_units_and_zero_output_layer(self):
        rng = Rng(32)
        for hidden in (1, 2, 5, 100):
            net = WeightNet(hidden=hidden)
            theta = net.init_params(rng)        # zero output layer
            self.check(net, theta, 5.0 * rng.uniforms(9))
            theta[:hidden] = -np.abs(theta[:hidden])   # every unit dead for v > 0
            theta[2 * hidden:] = rng.gaussians(hidden + 1)
            self.check(net, theta, np.concatenate([[0.0], 5.0 * rng.uniforms(9)]))


class TestParameterStack:
    """A ``(T, P)`` stack through the forward-only methods gives, row for
    row, the bits of the 1-D call at each vector."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 8), max_size=3),
           dim=st.integers(1, 5), classes=st.integers(2, 5), n=st.integers(1, 12),
           t=st.integers(1, 6), kind=st.sampled_from(list(LossKind)))
    def test_classifier_rows_equal_single_vector_calls(self, seed, hidden, dim, classes,
                                                       n, t, kind):
        rng = Rng(seed)
        net = ClassifierNet([dim, *hidden, classes])
        stack = rng.gaussians(t * net.num_params).reshape(t, net.num_params)
        x = rng.gaussians(n * dim).reshape(n, dim)
        labels = rng.randints(n, classes)
        probs = net.forward_batch(stack, x)
        losses = net.losses_batch(stack, x, labels, kind)
        preds = net.predict_batch(stack, x)
        assert probs.shape == (t, n, classes) and losses.shape == preds.shape == (t, n)
        for row, params in enumerate(stack):
            assert np.array_equal(probs[row], net.forward_batch(params, x))
            assert np.array_equal(losses[row], net.losses_batch(params, x, labels, kind))
            assert np.array_equal(preds[row], net.predict_batch(params, x))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 120),
           n=st.integers(1, 50), t=st.integers(1, 6))
    def test_weightnet_rows_equal_single_vector_calls(self, seed, hidden, n, t):
        rng = Rng(seed)
        net = WeightNet(hidden=hidden)
        stack = rng.gaussians(t * net.num_params, 2.0).reshape(t, net.num_params)
        v = 8.0 * rng.uniforms(n)
        weights = net.forward_batch(stack, v)
        pre = net.hidden_preactivations(stack, v)
        assert weights.shape == (t, n) and pre.shape == (t, n * hidden)
        for row, theta in enumerate(stack):
            assert np.array_equal(weights[row], net.forward_batch(theta, v))
            assert np.array_equal(pre[row], net.hidden_preactivations(theta, v))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 8), max_size=3),
           dim=st.integers(1, 5), classes=st.integers(2, 5), n=st.integers(1, 12),
           t=st.integers(1, 6), wn_hidden=st.integers(1, 120), shared=st.booleans())
    def test_gradient_methods_and_contractions_of_a_stack(self, seed, hidden, dim, classes,
                                                          n, t, wn_hidden, shared):
        # A stack with paired (T, n) labels, one loss kind per row, paired
        # loss values, (T, n) coefficients and (T, P) vectors gives, row for
        # row, the bits of the single-vector calls; a shared (n,) input or
        # a single kind is used by every row.
        rng = Rng(seed)
        net, wn = ClassifierNet([dim, *hidden, classes]), WeightNet(hidden=wn_hidden)
        stack = rng.gaussians(t * net.num_params).reshape(t, net.num_params)
        theta = rng.gaussians(t * wn.num_params, 2.0).reshape(t, wn.num_params)
        x = rng.gaussians(n * dim).reshape(n, dim)
        labels = rng.randints(t * n, classes).reshape(t, n)
        kinds = [list(LossKind)[i] for i in rng.randints(t, 2)]
        values = 8.0 * rng.uniforms(t * n).reshape(t, n)
        c, g = rng.gaussians(t * n).reshape(t, n), rng.gaussians(t * net.num_params)
        g = g.reshape(t, net.num_params)
        if shared:
            labels, kinds, values, c = labels[0], kinds[0], values[0], c[0]
        losses, grads = net.losses_and_grads_batch(stack, x, labels, kinds)
        weights, wn_grads = wn.forward_and_grads_batch(theta, values)
        assert losses.shape == weights.shape == (t, n)
        assert np.array_equal(net.set_flat(stack), stack)
        for row in range(t):
            pick = (lambda a: a) if shared else (lambda a: a[row])
            one_losses, one_grads = net.losses_and_grads_batch(stack[row], x, pick(labels),
                                                               pick(kinds))
            one_weights, one_wn_grads = wn.forward_and_grads_batch(theta[row], pick(values))
            assert np.array_equal(losses[row], one_losses)
            assert np.array_equal(weights[row], one_weights)
            assert np.array_equal((c @ grads)[row], pick(c) @ one_grads)
            assert np.array_equal((c @ wn_grads)[row], pick(c) @ one_wn_grads)
            assert np.array_equal((grads @ g)[row], one_grads @ g[row])
            assert np.array_equal((grads @ g[0])[row], one_grads @ g[0])
            assert np.array_equal(grads.matrix()[row], one_grads.matrix())
            assert np.array_equal(wn_grads.matrix()[row], one_wn_grads.matrix())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 8), max_size=3),
           dim=st.integers(1, 5), classes=st.integers(2, 5), n=st.integers(1, 12),
           t=st.integers(1, 6), shared=st.booleans())
    def test_per_row_features_equal_single_batch_calls(self, seed, hidden, dim, classes,
                                                       n, t, shared):
        # (T, n, d) features with a (T, P) stack give, row for row, the
        # bits of the (n, d) call at params[t], x[t]: every classifier
        # method, both contractions and the per-sample gradient matrix,
        # with (n,) labels shared by the rows or (T, n) labels paired.
        rng = Rng(seed)
        net = ClassifierNet([dim, *hidden, classes])
        kind = list(LossKind)[rng.randint(2)]
        stack = rng.gaussians(t * net.num_params).reshape(t, net.num_params)
        x = rng.gaussians(t * n * dim).reshape(t, n, dim)
        labels = rng.randints(t * n, classes).reshape(t, n)
        c, g = rng.gaussians(t * n).reshape(t, n), rng.gaussians(t * net.num_params)
        g = g.reshape(t, net.num_params)
        if shared:
            labels, c = labels[0], c[0]
        probs = net.forward_batch(stack, x)
        preds = net.predict_batch(stack, x)
        losses = net.losses_batch(stack, x, labels, kind)
        grad_losses, grads = net.losses_and_grads_batch(stack, x, labels, kind)
        pre = net.hidden_preactivations(stack, x)
        matrix = grads.matrix()
        assert probs.shape == (t, n, classes) and matrix.shape == (t, n, net.num_params)
        for row in range(t):
            pick = (lambda a: a) if shared else (lambda a: a[row])
            params, one_x = stack[row], x[row]
            one_losses, one_grads = net.losses_and_grads_batch(params, one_x, pick(labels), kind)
            assert np.array_equal(probs[row], net.forward_batch(params, one_x))
            assert np.array_equal(preds[row], net.predict_batch(params, one_x))
            assert np.array_equal(losses[row], net.losses_batch(params, one_x, pick(labels), kind))
            assert np.array_equal(grad_losses[row], one_losses)
            assert np.array_equal(pre[row], net.hidden_preactivations(params, one_x))
            assert np.array_equal(matrix[row], one_grads.matrix())
            assert np.array_equal((c @ grads)[row], pick(c) @ one_grads)
            assert np.array_equal((grads @ g)[row], one_grads @ g[row])
            assert np.array_equal((grads @ g[0])[row], one_grads @ g[0])

    PER_ROW_CALLS = [("forward_batch", ()), ("predict_batch", ()),
                     ("hidden_preactivations", ()),
                     ("losses_batch", (np.zeros(6, dtype=np.int64), LossKind.MAE)),
                     ("losses_and_grads_batch", (np.zeros(6, dtype=np.int64), LossKind.CE))]

    @staticmethod
    def check_shape_error(method, extra, params):
        # an error naming both shapes and the accepted ones, not numpy's
        # broadcast message and not a silent broadcast
        net = ClassifierNet([3, 5, 2])  # 32 parameters
        x = Rng(9).gaussians(4 * 6 * 3).reshape(4, 6, 3)
        with pytest.raises(ValueError) as err:
            getattr(net, method)(params, x, *extra)
        text = str(err.value)
        assert f"got features (4, 6, 3) and parameters {params.shape}" in text
        assert "(n, d)" in text and "(T, n, d)" in text

    @pytest.mark.parametrize("method, extra", PER_ROW_CALLS)
    def test_per_row_features_with_a_single_vector_raise(self, method, extra):
        self.check_shape_error(method, extra, np.zeros(32))

    @pytest.mark.parametrize("method, extra", PER_ROW_CALLS)
    def test_per_row_features_with_a_stack_of_another_length_raise(self, method, extra):
        self.check_shape_error(method, extra, np.zeros((3, 32)))


def stored_z_forward(layers, x):
    """The forward loop that keeps every pre-activation and rectifies a
    copy of it: ``(activations, pre-activations)``."""
    acts, zs = [x], []
    for i, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w.swapaxes(-1, -2)) + b[..., None, :]
        zs.append(z)
        acts.append(z if i == len(layers) - 1 else np.maximum(z, 0.0))
    return acts, zs


def stored_z_backward(net, layers, acts, zs, out_delta):
    """The backward loop that masks each delta with ``z > 0``."""
    deltas = [out_delta]
    for i in range(len(layers) - 1, 0, -1):
        deltas.insert(0, (deltas[0] @ layers[i][0]) * (zs[i - 1] > 0.0))
    return SampleGrads(net, acts[:-1], deltas)


def draw_values(rng, size, on_grid):
    """Gaussians, or values in {-1, 0, 1} that put many pre-activations at
    exactly 0 (integer sums are exact)."""
    if on_grid:
        return (rng.randints(size, 3) - 1).astype(np.float64)
    return rng.gaussians(size)


class TestInPlaceRectifierOracle:
    """Rectifying in place and masking with the activations give the bits
    of the loop that stores every pre-activation and masks with it."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 8), max_size=3),
           dim=st.integers(1, 5), classes=st.integers(2, 5), n=st.integers(1, 12),
           t=st.integers(1, 4), on_grid=st.booleans(), kind=st.sampled_from(list(LossKind)))
    def test_classifier(self, seed, hidden, dim, classes, n, t, on_grid, kind):
        rng = Rng(seed)
        net = ClassifierNet([dim, *hidden, classes])
        params = draw_values(rng, net.num_params, on_grid)
        x = draw_values(rng, n * dim, on_grid).reshape(n, dim)
        labels = rng.randints(n, classes)
        layers = net._layers(params)
        acts, zs = stored_z_forward(layers, x)
        probs = _softmax_rows(zs[-1])
        grads = stored_z_backward(net, layers, acts, zs,
                                  grad_logits_batch(kind, labels, probs))
        got_losses, got_grads = net.losses_and_grads_batch(params, x, labels, kind)
        assert np.array_equal(got_losses, loss_values_batch(kind, labels, probs))
        assert np.array_equal(got_grads.matrix(), grads.matrix())
        pre = np.concatenate([z.ravel() for z in zs[:-1]]) if hidden else np.empty(0)
        assert np.array_equal(net.hidden_preactivations(params, x), pre)

        stack = draw_values(rng, t * net.num_params, on_grid).reshape(t, net.num_params)
        _, stack_zs = stored_z_forward(net._layers(stack), x)
        assert np.array_equal(net.forward_batch(stack, x), _softmax_rows(stack_zs[-1]))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 120),
           n=st.integers(1, 50), t=st.integers(1, 4), on_grid=st.booleans())
    def test_weightnet(self, seed, hidden, n, t, on_grid):
        rng = Rng(seed)
        net = WeightNet(hidden=hidden)
        theta = draw_values(rng, net.num_params, on_grid)
        v = np.abs(draw_values(rng, n, on_grid))
        layers = net._layers(theta)
        acts, zs = stored_z_forward(layers, v[:, None])
        out = 1.0 / (1.0 + np.exp(-zs[-1]))
        grads = stored_z_backward(net, layers, acts, zs, out * (1.0 - out))
        weights = np.clip(out[:, 0], net._OUTPUT_CLIP, 1.0 - net._OUTPUT_CLIP)
        got_weights, got_grads = net.forward_and_grads_batch(theta, v)
        assert np.array_equal(got_weights, weights)
        assert np.array_equal(net.forward_batch(theta, v), weights)
        assert np.array_equal(got_grads.matrix(), grads.matrix())
        assert np.array_equal(net.hidden_preactivations(theta, v), zs[0].ravel())

        stack = draw_values(rng, t * net.num_params, on_grid).reshape(t, net.num_params)
        _, stack_zs = stored_z_forward(net._layers(stack), v[:, None])
        want = np.clip(1.0 / (1.0 + np.exp(-stack_zs[-1][..., 0])),
                       net._OUTPUT_CLIP, 1.0 - net._OUTPUT_CLIP)
        assert np.array_equal(net.forward_batch(stack, v), want)

    def test_grid_values_hit_the_kink(self):
        # the on-grid draws do reach z == 0, where the two masks could differ
        rng = Rng(3)
        net = ClassifierNet([3, 6, 6, 2])
        params = draw_values(rng, net.num_params, True)
        x = draw_values(rng, 30, True).reshape(10, 3)
        assert np.any(net.hidden_preactivations(params, x) == 0.0)


def matmul_matrix(grads):
    """``SampleGrads.matrix()`` with each outer product as an ``np.matmul``."""
    blocks = []
    for a, d in zip(grads.inputs, grads.deltas):
        blocks += [np.matmul(d[:, :, None], a[:, None, :]).reshape(len(d), -1), d]
    return np.concatenate(blocks, axis=1)


def matmul_weighted_sum(c, grads):
    """``c @ grads`` with every product through ``np.matmul``."""
    parts = []
    for a, d in zip(grads.inputs, grads.deltas):
        cd = (d * c[..., None]).swapaxes(-1, -2)
        parts += [np.matmul(cd, a), cd.sum(axis=-1)]
    lead = parts[-1].shape[:-1]
    return np.concatenate([p.reshape(*lead, -1) for p in parts], axis=-1)


def matmul_dots(grads, g):
    """``grads @ g`` with every product through ``np.matmul``."""
    dots = 0.0
    for a, d, (w, b) in zip(grads.inputs, grads.deltas, grads.net._layers(g)):
        dots = dots + (np.matmul(d, w) * a).sum(axis=-1) + np.matmul(d, b[..., None])[..., 0]
    return dots


class TestOuterProducts:
    """A product whose contraction length is 1 (a fan-in-1 layer, the delta
    back from a 1-wide layer, the weighted sum over a batch of one) is an
    outer product in ``nets``.  Every result equals the loops above, whose
    products all go through ``np.matmul``, bit for bit: single vectors and
    ``(T, P)`` stacks, losses of exactly 0, the zero output layer."""

    @staticmethod
    def same_bits(got, want):
        """One shape and the same float64 bits, signs of zeros included."""
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def check_grads(self, got, want, c, g):
        for got_arr, want_arr in zip(got.inputs + got.deltas, want.inputs + want.deltas):
            self.same_bits(got_arr, want_arr)
        if got.deltas[0].ndim == 2:
            self.same_bits(got.matrix(), matmul_matrix(want))
        self.same_bits(c @ got, matmul_weighted_sum(c, want))
        self.same_bits(got @ g, matmul_dots(want, g))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 3), max_size=2),
           dim=st.integers(1, 3), classes=st.integers(2, 4), n=st.integers(1, 4),
           t=st.sampled_from([None, 1, 3]), kind=st.sampled_from(list(LossKind)))
    def test_classifier(self, seed, hidden, dim, classes, n, t, kind):
        rng = Rng(seed)
        net = ClassifierNet([dim, *hidden, classes])
        shape = (net.num_params,) if t is None else (t, net.num_params)
        params = rng.gaussians(net.num_params * (t or 1)).reshape(shape)
        x = rng.gaussians(n * dim).reshape(n, dim)
        labels = rng.randints(n, classes)
        layers = net._layers(params)
        acts, zs = stored_z_forward(layers, x)
        probs = _softmax_rows(zs[-1])
        want = stored_z_backward(net, layers, acts, zs, grad_logits_batch(kind, labels, probs))
        losses, grads = net.losses_and_grads_batch(params, x, labels, kind)
        self.same_bits(net.forward_batch(params, x), probs)
        self.same_bits(losses, loss_values_batch(kind, labels, probs))
        self.check_grads(grads, want, rng.gaussians(n), rng.gaussians(net.num_params))
        if t is None and hidden:
            pre = np.concatenate([z.ravel() for z in zs[:-1]])
            self.same_bits(net.hidden_preactivations(params, x), pre)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 120), n=st.integers(1, 30),
           t=st.sampled_from([None, 1, 3]), zero_output=st.booleans())
    def test_weightnet(self, seed, hidden, n, t, zero_output):
        rng = Rng(seed)
        net = WeightNet(hidden=hidden)
        theta = np.stack([net.init_params(rng) if zero_output
                          else rng.gaussians(net.num_params) for _ in range(t or 1)])
        theta = theta[0] if t is None else theta
        v = 8.0 * rng.uniforms(n)
        v[rng.randints(1 + n // 3, n)] = 0.0  # losses of exactly 0
        layers = net._layers(theta)
        acts, zs = stored_z_forward(layers, v[:, None])
        out = 1.0 / (1.0 + np.exp(-zs[-1]))
        want = stored_z_backward(net, layers, acts, zs, out * (1.0 - out))
        weights = np.clip(out[..., 0], net._OUTPUT_CLIP, 1.0 - net._OUTPUT_CLIP)
        got_weights, grads = net.forward_and_grads_batch(theta, v)
        self.same_bits(got_weights, weights)
        self.same_bits(net.forward_batch(theta, v), weights)
        self.check_grads(grads, want, rng.gaussians(n), rng.gaussians(net.num_params))
        if t is None:
            self.same_bits(net.hidden_preactivations(theta, v), zs[0].ravel())


class TestOuterProductKernel:
    """``_matmul`` with a contraction length of 1 against ``np.matmul``, bit
    for bit, signs of zeros included, on the stacked and broadcast shapes
    the nets pass and on the wide ones of the weighting net."""

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((7, 1), (1, 5)), ((3, 7, 1), (3, 1, 5)), ((3, 7, 1), (1, 5)),
        ((7, 1), (3, 1, 5)), ((1, 7, 1), (4, 1, 5)), ((2, 1, 7, 1), (3, 1, 5)),
        ((1000, 1), (1, 100)), ((5, 100, 1), (5, 1, 100)), ((1, 1000, 1), (1, 1, 100))])
    def test_equals_matmul_bits(self, a_shape, b_shape):
        rng = Rng(sum(a_shape) + sum(b_shape))
        a = rng.gaussians(int(np.prod(a_shape))).reshape(a_shape)
        b = rng.gaussians(int(np.prod(b_shape))).reshape(b_shape)
        # zeros of both signs, met by factors of both signs
        a.flat[::3], a.flat[1::7], b.flat[::4], b.flat[2::5] = 0.0, -0.0, -0.0, 0.0
        got, want = _matmul(a, b), np.matmul(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        product = a * b  # the broadcast outer product keeps some -0.0 that matmul does not
        assert (np.signbit(product) & (product == 0.0)).any()
