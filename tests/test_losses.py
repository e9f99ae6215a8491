import numpy as np
import pytest

from metareweight.losses import (LossKind, grad_logits_batch, loss_values_batch,
                                 symmetry_sum)
from metareweight.numkit import Rng


def random_simplex(rng: Rng, k: int) -> np.ndarray:
    raw = -np.log(rng.uniforms(k))
    return raw / raw.sum()


def softmax(z) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / e.sum()


def loss(kind: LossKind, label: int, u) -> float:
    """The loss of one prediction through the batched form."""
    probs = np.asarray(u, dtype=np.float64)[None, :]
    return float(loss_values_batch(kind, np.array([label]), probs)[0])


def grad_logits(kind: LossKind, label: int, z) -> np.ndarray:
    return grad_logits_batch(kind, np.array([label]), softmax(z)[None, :])[0]


class TestCeLoss:
    def test_one_hot_is_zero(self):
        u = np.zeros(4)
        u[2] = 1.0
        assert loss(LossKind.CE, 2, u) == 0.0

    def test_uniform_is_log_k(self):
        assert loss(LossKind.CE, 0, [0.2] * 5) == pytest.approx(np.log(5), abs=1e-12)

    def test_half_is_log_two(self):
        assert loss(LossKind.CE, 0, [0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)

    def test_label_out_of_range(self):
        for label in (5, -1):
            with pytest.raises(ValueError, match="out of range"):
                loss(LossKind.CE, label, [0.2] * 5)
        with pytest.raises(ValueError, match="one class index per sample"):
            loss_values_batch(LossKind.CE, np.array([0, 1]), np.full((1, 5), 0.2))

    def test_zero_probability_clamped(self):
        u = np.zeros(3)
        u[0] = 1.0
        assert loss(LossKind.CE, 1, u) == pytest.approx(-np.log(1e-12))

    def test_nonnegative(self):
        rng = Rng(1)
        for _ in range(100):
            u = random_simplex(rng, 5)
            assert loss(LossKind.CE, rng.randint(5), u) >= 0.0


class TestMaeLoss:
    def test_one_hot_is_zero(self):
        u = np.zeros(4)
        u[1] = 1.0
        assert loss(LossKind.MAE, 1, u) == 0.0

    def test_uniform_value(self):
        assert loss(LossKind.MAE, 0, [0.2] * 5) == pytest.approx(1.6, abs=1e-12)

    def test_closed_form_identity(self):
        # 2(1 - u[label]) equals the L1 distance to the one-hot label
        rng = Rng(2)
        for _ in range(100):
            u = random_simplex(rng, 6)
            label = rng.randint(6)
            onehot = np.eye(6)[label]
            assert loss(LossKind.MAE, label, u) == pytest.approx(
                np.abs(u - onehot).sum(), abs=1e-12)

    def test_bounded(self):
        rng = Rng(3)
        for _ in range(200):
            u = random_simplex(rng, 4)
            assert 0.0 <= loss(LossKind.MAE, rng.randint(4), u) <= 2.0


class TestSymmetrySum:
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_mae_is_constant(self, k):
        rng = Rng(k)
        for _ in range(1000):
            u = random_simplex(rng, k)
            assert abs(symmetry_sum(LossKind.MAE, u) - (2 * k - 2)) <= 1e-12

    def test_mae_two_random_points_agree(self):
        rng = Rng(9)
        a = symmetry_sum(LossKind.MAE, random_simplex(rng, 10))
        b = symmetry_sum(LossKind.MAE, random_simplex(rng, 10))
        assert a == pytest.approx(18.0, abs=1e-12)
        assert abs(a - b) < 1e-12

    def test_ce_is_not_constant(self):
        uniform = symmetry_sum(LossKind.CE, [0.2] * 5)
        assert uniform == pytest.approx(5 * np.log(5), abs=1e-9)
        spiky = symmetry_sum(LossKind.CE, [0.9, 0.025, 0.025, 0.025, 0.025])
        assert spiky > uniform
        assert abs(spiky - uniform) > 0.1

    def test_ce_witness_within_ten_draws(self):
        rng = Rng(77)
        sums = [symmetry_sum(LossKind.CE, random_simplex(rng, 5)) for _ in range(10)]
        assert max(sums) - min(sums) > 0.1

    def test_sum_over_labels(self):
        rng = Rng(8)
        for kind in LossKind:
            u = random_simplex(rng, 4)
            by_label = sum(loss(kind, c, u) for c in range(4))
            assert symmetry_sum(kind, u) == pytest.approx(by_label, abs=1e-12)

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_rows_equal_the_one_vector_call(self, kind, k):
        rng = Rng(20 + k)
        rows = np.stack([random_simplex(rng, k) for _ in range(50)])
        sums = symmetry_sum(kind, rows)
        assert sums.shape == (50,)
        assert all(sums[i] == symmetry_sum(kind, rows[i]) for i in range(50))
        assert isinstance(symmetry_sum(kind, rows[0]), float)

    def test_rejects_a_bad_row(self):
        rows = np.full((3, 4), 0.25)
        rows[1] = [0.5, 0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="sum to 1"):
            symmetry_sum(LossKind.MAE, rows)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            symmetry_sum(LossKind.MAE, np.full((2, 2, 2), 0.5))

    def test_rejects_non_probability_vectors(self):
        with pytest.raises(ValueError, match="sum to 1"):
            symmetry_sum(LossKind.MAE, [0.5, 0.6])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            symmetry_sum(LossKind.MAE, [1.5, -0.5])


class TestLossGradLogits:
    def test_ce_zero_logits_closed_form(self):
        g = grad_logits(LossKind.CE, 0, np.zeros(5))
        assert np.allclose(g, [0.2 - 1.0, 0.2, 0.2, 0.2, 0.2], atol=1e-12)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_gradient_sums_to_zero(self, kind):
        rng = Rng(4)
        for _ in range(50):
            z = 2.0 * rng.gaussians(6)
            g = grad_logits(kind, rng.randint(6), z)
            assert abs(g.sum()) < 1e-10

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_matches_finite_differences(self, kind, k):
        rng = Rng(10 * k)
        step = 1e-6
        for _ in range(34):  # ~100 (z, label) pairs across the K grid
            z = 2.0 * rng.gaussians(k)
            label = rng.randint(k)
            g = grad_logits(kind, label, z)
            fd = np.empty(k)
            for i in range(k):
                zp, zm = z.copy(), z.copy()
                zp[i] += step
                zm[i] -= step
                fd[i] = (loss(kind, label, softmax(zp))
                         - loss(kind, label, softmax(zm))) / (2 * step)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestBatchedForms:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_batch_matches_scalar(self, kind):
        # each row against the closed forms written out for one sample
        rng = Rng(21)
        z = rng.gaussians(8 * 5).reshape(8, 5)
        labels = rng.randints(8, 5)
        probs = np.stack([softmax(row) for row in z])
        vals = loss_values_batch(kind, labels, probs)
        grads = grad_logits_batch(kind, labels, probs)
        for i in range(8):
            u, onehot = probs[i], np.eye(5)[labels[i]]
            if kind is LossKind.CE:
                expect_val, expect_grad = -np.log(u[labels[i]]), u - onehot
            else:
                expect_val = np.abs(u - onehot).sum()
                expect_grad = 2.0 * u[labels[i]] * (u - onehot)
            assert vals[i] == pytest.approx(expect_val, abs=1e-12)
            assert np.allclose(grads[i], expect_grad, atol=1e-12)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def single_kind_rows(kind, labels, probs):
    """Losses and logit gradients of ``(n, K)`` probabilities by the
    single-kind formulas, written out: 2(1 - p_y) and -log max(p_y, 1e-12);
    p - onehot for CE and (p - onehot) 2 p_y for MAE."""
    picked = probs[np.arange(len(labels)), labels]
    g = probs - np.eye(probs.shape[1])[labels]
    if kind is LossKind.MAE:
        return 2.0 * (1.0 - picked), g * (2.0 * picked)[:, None]
    return -np.log(np.maximum(picked, 1e-12)), g


class TestOnePath:
    """One loss path serves one ``LossKind``, a stack whose kinds agree and
    a stack that mixes them, with the bits of the single-kind formulas."""

    CE, MAE = LossKind.CE, LossKind.MAE
    T, N, K = 3, 7, 4

    def probs_and_labels(self, seed):
        """A ``(T, n, K)`` stack and its paired ``(T, n)`` labels, with a
        label of probability exactly 1 (sample 0) and exactly 0 (sample 1)."""
        rng = Rng(seed)
        raw = -np.log(rng.uniforms(self.T * self.N * self.K)).reshape(self.T, self.N, self.K)
        probs = raw / raw.sum(axis=-1, keepdims=True)
        probs[:, 0] = np.eye(self.K)[0]
        probs[:, 1] = np.eye(self.K)[2]
        labels = rng.randints(self.T * self.N, self.K).reshape(self.T, self.N)
        labels[:, 0], labels[:, 1] = 0, 1
        return probs, labels

    def assert_rows(self, kinds, labels, probs):
        values = loss_values_batch(kinds, labels, probs)
        grads = grad_logits_batch(kinds, labels, probs)
        assert values.shape == probs.shape[:-1] and grads.shape == probs.shape
        for t in range(len(probs)):
            kind = kinds if isinstance(kinds, LossKind) else kinds[t % len(kinds)]
            want_values, want_grads = single_kind_rows(
                kind, labels if labels.ndim == 1 else labels[t], probs[t])
            assert np.array_equal(bits(values[t]), bits(want_values))
            assert np.array_equal(bits(grads[t]), bits(want_grads))

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_kind_on_one_set_of_probabilities(self, kind):
        probs, labels = self.probs_and_labels(1)
        values = loss_values_batch(kind, labels[0], probs[0])
        grads = grad_logits_batch(kind, labels[0], probs[0])
        want_values, want_grads = single_kind_rows(kind, labels[0], probs[0])
        assert np.array_equal(bits(values), bits(want_values))
        assert np.array_equal(bits(grads), bits(want_grads))

    @pytest.mark.parametrize("kinds", [
        CE, MAE,                       # one kind for every row
        (CE,), (MAE,),                 # a sequence of one, for every row
        (CE,) * T, (MAE,) * T,         # one per row, agreeing
        (MAE, CE, MAE), (CE, CE, MAE),  # one per row, mixed
    ])
    @pytest.mark.parametrize("paired", [False, True])
    def test_a_stack(self, kinds, paired):
        probs, labels = self.probs_and_labels(2 + paired)
        self.assert_rows(kinds, labels if paired else labels[0], probs)

    @pytest.mark.parametrize("kinds, rows", [
        ((), T), ((CE, CE), T), ((CE, MAE), T), ((MAE,) * (T + 1), T),
        ((), 1), ((MAE, MAE), 1), ((MAE, CE), 1),
    ])
    @pytest.mark.parametrize("loss_fn", [loss_values_batch, grad_logits_batch])
    def test_a_sequence_needs_one_kind_or_one_per_row(self, kinds, rows, loss_fn):
        probs, labels = self.probs_and_labels(4)
        with pytest.raises(ValueError, match="one loss kind or one per row of a stack"):
            loss_fn(kinds, labels[:rows], probs[:rows])

    @pytest.mark.parametrize("kinds", [(CE,), (MAE,), (CE,) * N])  # N: one per sample
    @pytest.mark.parametrize("loss_fn", [loss_values_batch, grad_logits_batch])
    def test_a_sequence_needs_a_stack(self, kinds, loss_fn):
        probs, labels = self.probs_and_labels(5)
        with pytest.raises(ValueError, match="one loss kind or one per row of a stack"):
            loss_fn(kinds, labels[0], probs[0])
