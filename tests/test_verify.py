import tracemalloc

import numpy as np
import pytest

from metareweight import bilevel, verify
from metareweight.bilevel import Batch
from metareweight.data import LabeledDataset
from metareweight.losses import LossKind
from metareweight.noise import NoiseKind, NoiseSpec, TransitionMatrix, build_transition
from metareweight.numkit import Rng


def expected_of(c, params, x, y, transition):
    """The exact expected MAE gradient of the instance under ``transition``."""
    return verify.expected_gradient(verify.per_label_gradients(c, params, x, LossKind.MAE), y,
                                    transition)


class TestExpectedGradient:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("k", [3, 5])
    def test_equals_a_loop_over_samples_and_labels(self, kind, k):
        rng = Rng(30 + k)
        for rate in (0.0, 0.3, 0.6):
            transition = build_transition(NoiseSpec(kind, rate, k, seed=rng.randint(100))).probs
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, k)
            g_all = verify.per_label_gradients(c, params, x, LossKind.MAE)
            cells = [(transition[y[i], j], g_all[i, j]) for i in range(len(y)) for j in range(k)]
            want = sum(t * g for t, g in cells) / len(y)
            bound = sum(t * np.abs(g) for t, g in cells) / len(y)
            got = verify.expected_gradient(g_all, y, transition)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(bound)


class TestExpectedUniformGradient:
    def test_rate_zero_equals_clean_gradient(self):
        rng = Rng(1)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 4)
        clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
        assert np.array_equal(verify.uniform_transition(4, 0.0), np.eye(4))
        expected = expected_of(c, params, x, y, verify.uniform_transition(4, 0.0))
        assert np.allclose(expected, clean, atol=1e-15)

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("eta", [0.2, 0.4, 0.6, 0.8])
    def test_mae_scaled_clean_gradient(self, k, eta):
        rng = Rng(100 * k + int(10 * eta))
        for _ in range(5):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, k)
            assert verify.equivalence_report(c, params, x, y, eta, LossKind.MAE) <= 1e-10

    def test_ce_breaks_equivalence(self):
        rng = Rng(2)
        hits = 0
        for _ in range(10):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 5)
            hits += verify.equivalence_report(c, params, x, y, 0.4, LossKind.CE) > 1e-3
        assert hits >= 9

    def test_matches_monte_carlo(self):
        rng = Rng(3)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 4, batch=5)
        eta = 0.3
        g_all = verify.per_label_gradients(c, params, x, LossKind.MAE)
        expected = verify.expected_gradient(g_all, y, verify.uniform_transition(4, eta))
        trials = 40_000
        flip = rng.uniforms(trials * 5).reshape(trials, 5) < eta
        drawn = rng.randints(trials * 5, 4).reshape(trials, 5)
        obs = np.where(flip, drawn, y[None, :])
        mc = g_all[np.arange(5)[None, :], obs].mean(axis=(0, 1))
        assert np.linalg.norm(mc - expected) / np.linalg.norm(expected) < 0.05


class TestExpectedFlipGradient:
    def test_rate_zero_equals_clean(self):
        rng = Rng(4)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
        clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
        g = expected_of(c, params, x, y, verify.flip_transition(np.array([1, 2, 0]), 0.0))
        assert np.allclose(g, clean, atol=1e-15)

    def test_identity_target_rejected(self):
        rng = Rng(4)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
        with pytest.raises(ValueError, match="move every class"):
            verify.flip_transition(np.array([0, 2, 1]), 0.3)

    def test_fixed_map_breaks_proportionality(self):
        rng = Rng(5)
        found = False
        for _ in range(10):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
            clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
            g = expected_of(c, params, x, y, verify.flip_transition(np.array([1, 2, 0]), 0.4))
            if verify.proportionality_residual(g, clean) > 1e-3:
                found = True
                break
        assert found

    def test_enumerating_all_maps_restores_proportionality(self):
        rng = Rng(6)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
        clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
        maps = list(verify.all_flip_maps(3))
        assert len(maps) == 8  # (K-1)^K admissible maps at K=3
        avg = np.mean([expected_of(c, params, x, y, verify.flip_transition(t, 0.4))
                       for t in maps], axis=0)
        assert verify.proportionality_residual(avg, clean) <= 1e-10

    def test_map_enumeration_closed_form(self):
        # averaging over maps spreads the flipped mass evenly on the other
        # classes, so the result is (1 - eta*K/(K-1)) times the clean gradient
        rng = Rng(7)
        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
        clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
        eta = 0.4
        avg = np.mean([expected_of(c, params, x, y, verify.flip_transition(t, eta))
                       for t in verify.all_flip_maps(3)], axis=0)
        assert np.allclose(avg, (1 - eta * 3 / 2) * clean, atol=1e-12)

    def test_two_target_map_splits_the_rate(self):
        targets = np.array([[1, 2], [2, 3], [3, 0], [0, 1]])
        got = verify.flip_transition(targets, 0.4)
        want = 0.6 * np.eye(4)
        for y, (a, b) in enumerate(targets):
            want[y, a] = want[y, b] = 0.2
        assert np.array_equal(got, want)
        assert np.array_equal(verify.flip_transition(targets[:, :1], 0.4),
                              verify.flip_transition(targets[:, 0], 0.4))
        with pytest.raises(ValueError, match="move every class"):
            verify.flip_transition(np.array([[1, 2], [1, 2], [0, 1], [0, 1]]), 0.4)

    def test_flip2_property_sees_a_transposed_transition(self, monkeypatch):
        # every other T that verify builds is symmetric, so only this
        # property fails when expected_gradient reads T transposed
        original = verify.expected_gradient
        assert verify._prop_flip2_enumeration(verify.DEFAULT_VERIFY_SEED)[0].passed
        monkeypatch.setattr(verify, "expected_gradient",
                            lambda g_all, labels, t: original(g_all, labels, t.T))
        assert not verify._prop_flip2_enumeration(verify.DEFAULT_VERIFY_SEED)[0].passed
        assert all(r.passed for r in verify._prop_flip(verify.DEFAULT_VERIFY_SEED))


class TestVarianceBound:
    def _pool(self, rng, n=40, k=5):
        c, (params,), (x,), (y,) = verify.random_classifier_instances(
            rng, 1, k, dim=4, hidden=(8,), batch=n)
        return c, params, x, y

    def test_rate_zero_reduces_to_clean_variance(self):
        # the bound holds with equality at eta = 0; rounding alone separates
        # the two sides, which the 1e-12 allowance absorbs
        rng = Rng(8)
        for _ in range(20):
            c, params, x, y = self._pool(rng)
            rep = verify.variance_bound_check(c, params, x, y, 0.0, 20)
            assert rep.holds
            assert rep.noisy_variance == pytest.approx(rep.sigma_sq, rel=1e-12)
            assert rep.bound == pytest.approx(rep.sigma_sq, rel=1e-12)

    def test_bound_holds_in_most_configurations(self):
        rng = Rng(9)
        holds = 0
        for _ in range(20):
            c, params, x, y = self._pool(rng)
            rep = verify.variance_bound_check(c, params, x, y, 0.4, 20)
            holds += rep.holds
        assert holds == 20

    def test_doubling_batch_roughly_halves_variance(self):
        rng = Rng(10)
        c, params, x, y = self._pool(rng, n=60)
        rep_m = verify.variance_bound_check(c, params, x, y, 0.4, 10)
        rep_2m = verify.variance_bound_check(c, params, x, y, 0.4, 20)
        ratio = rep_2m.noisy_variance / rep_m.noisy_variance
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8])
    def test_each_row_of_a_stack_is_its_single_call(self, eta):
        for seed in range(3):
            c, params, x, y = verify.random_classifier_instances(Rng(80 + seed), 13, 5, batch=40)
            for size in (1, 7, 10, 13):
                reports = verify.variance_bound_check(c, params[:size], x[:size], y[:size],
                                                      eta, 20)
                assert len(reports) == size
                for i, rep in enumerate(reports):
                    assert rep == verify.variance_bound_check(c, params[i], x[i], y[i], eta, 20)

    def test_the_property_allocates_less_than_the_noise_property(self):
        # 10 pools per stack: one stack of all 100 would peak near 29 MB
        seed = verify.DEFAULT_VERIFY_SEED
        verify._prop_variance_bound(seed)
        tracemalloc.start()
        try:
            results = verify._prop_variance_bound(seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results[0].passed
        assert peak < 5.5 * 2**20


class TestFiniteDifferenceOracle:
    def test_zero_meta_landscape_gives_zero(self):
        rng = Rng(12)
        state, tb, _, _ = verify.random_hypergrad_instance(rng)
        x = rng.gaussians(3)
        flat_meta = Batch(np.tile(x, (3, 1)), np.arange(3, dtype=np.int64))
        fd = verify.finite_diff_theta_grad(state, tb, flat_meta, 0.1, LossKind.MAE)
        # the symmetric loss makes this meta objective constant in theta
        assert np.abs(fd).max() <= 1e-9

    def test_step_halving_second_order(self):
        rng = Rng(13)
        state, tb, mb, analytic = verify.random_hypergrad_instance(rng)
        errs = []
        for step in (2e-4, 1e-4, 5e-5):
            fd = verify.finite_diff_theta_grad(state, tb, mb, verify.VIRTUAL_LR, LossKind.MAE,
                                               step=step)
            errs.append(np.linalg.norm(fd - analytic))
        # error should shrink about 4x per halving away from kinks
        assert errs[1] <= errs[0] / 2.5
        assert errs[2] <= errs[1] / 2.5

    def test_oracles_leave_net_params_untouched(self):
        rng = Rng(17)
        state, tb, mb, _ = verify.random_hypergrad_instance(rng)
        w, theta = state.params.copy(), state.theta.copy()
        verify.finite_diff_theta_grad(state, tb, mb, 0.1, LossKind.MAE)
        verify.composed_meta_objective(state, tb, mb, 0.1, LossKind.MAE, state.theta)
        verify.per_label_gradients(state.classifier, w + 0.5, tb.features, LossKind.CE)
        assert np.array_equal(state.params, w)
        assert np.array_equal(state.theta, theta)

    def test_instance_sampler_respects_kink_margin(self):
        rng = Rng(14)
        for _ in range(5):
            state, tb, mb, _ = verify.random_hypergrad_instance(rng)
            losses = state.classifier.losses_batch(state.params, tb.features, tb.labels,
                                                   LossKind.CE)
            pre = state.weightnet.hidden_preactivations(state.theta, losses)
            assert np.abs(pre).min() > verify.KINK_MARGIN


class TestMcConvergence:
    def test_slope_is_half_order(self):
        slope = verify.mc_convergence_slope(Rng(15))
        assert -0.65 <= slope <= -0.35


def corrupted_gradient(seed=verify.DEFAULT_VERIFY_SEED):
    return verify.corrupted_gradient_check(Rng(seed).spawn(107))


class TestCorruptedGradient:
    """``sampled-corruption-mean-gradient``: the MAE gradient averaged over
    batches that ``corrupt`` labels, against the exact expectation."""

    def test_sampled_mean_equals_the_gathered_mean(self, monkeypatch):
        # one corrupt call per noise kind, each over every copy of the
        # batch; each sampled mean is the gathered g_all[rows, observed] mean
        corrupt_sizes, checked = [], []
        corrupt, sampled = verify.corrupt, verify.sampled_mean_gradient

        def recorded_corrupt(dataset, t, rng):
            corrupt_sizes.append(len(dataset))
            return corrupt(dataset, t, rng)

        def gathered(g_all, observed):
            got = sampled(g_all, observed)
            want = g_all[np.arange(g_all.shape[0])[None, :], observed].mean(axis=(0, 1))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            checked.append(observed.shape)
            return got

        monkeypatch.setattr(verify, "corrupt", recorded_corrupt)
        monkeypatch.setattr(verify, "sampled_mean_gradient", gathered)
        assert corrupted_gradient().passed
        assert corrupt_sizes == [60_000] * 3
        assert checked == [(10_000, 6)] * 3

    def test_no_false_alarm_over_seeds(self):
        for seed in [verify.DEFAULT_VERIFY_SEED, *range(1, 41)]:
            result = corrupted_gradient(seed)
            assert result.passed, f"seed {seed}: {result.detail}"
            assert "limit 5.0" in result.detail

    def test_expected_gradient_reading_the_transposed_transition_fails(self, monkeypatch):
        # the flip kind's T is not symmetric
        original = verify.expected_gradient
        monkeypatch.setattr(verify, "expected_gradient",
                            lambda g_all, labels, t: original(g_all, labels, t.T))
        for seed in (verify.DEFAULT_VERIFY_SEED, 1, 2):
            assert not corrupted_gradient(seed).passed

    @pytest.mark.parametrize("rate", [0.38, 0.42])
    def test_corrupt_two_points_off_the_rate_fails(self, monkeypatch, rate):
        # corrupt draws from T moved from rate 0.4 to rate: I + (rate/0.4)(T - I)
        original = verify.corrupt

        def mutant(dataset, t, rng):
            k = t.num_classes
            moved = np.eye(k) + rate / 0.4 * (t.probs - np.eye(k))
            return original(dataset, TransitionMatrix(moved), rng)

        monkeypatch.setattr(verify, "corrupt", mutant)
        for seed in [verify.DEFAULT_VERIFY_SEED, *range(1, 11)]:
            result = corrupted_gradient(seed)
            assert not result.passed, f"seed {seed}: {result.detail}"

    def test_labels_rolled_by_one_fail(self, monkeypatch):
        original = verify.corrupt

        def rolled(dataset, t, rng):
            out = original(dataset, t, rng)
            return LabeledDataset(out.features, np.roll(out.labels, 1), out.num_classes,
                                  out.true_labels)

        monkeypatch.setattr(verify, "corrupt", rolled)
        for seed in (verify.DEFAULT_VERIFY_SEED, 1, 2):
            assert not corrupted_gradient(seed).passed

    def test_a_zero_variance_coordinate_must_match_exactly(self, monkeypatch):
        # a coordinate whose gradient is the same for every label has zero
        # standard error; any gap beyond rounding there fails
        per_label = verify.per_label_gradients

        def with_constant_coordinate(*args):
            g_all = per_label(*args)
            g_all[:, :, 0] = 1.0
            return g_all

        monkeypatch.setattr(verify, "per_label_gradients", with_constant_coordinate)
        result = corrupted_gradient(1)  # seed 1 has no zero-variance coordinate of its own
        assert result.passed, result.detail
        assert "largest gap on the 3 zero-variance coordinates " in result.detail
        sampled = verify.sampled_mean_gradient
        monkeypatch.setattr(verify, "sampled_mean_gradient",
                            lambda g_all, observed: sampled(g_all, observed) + 1e-9 * (
                                np.arange(g_all.shape[2]) == 0))
        assert not corrupted_gradient(1).passed


class TestCorruptionFrequencies:
    @pytest.mark.parametrize("seed", [30, 33, 44])
    def test_passes_at_seeds_the_three_sigma_limit_failed(self, seed):
        # the old limit of 3 standard errors on each of 40 cells failed on
        # correct sampling at these seeds
        result = verify.corruption_frequency_check(Rng(seed).spawn(103))
        assert result.passed, result.detail
        assert "limit 4.71" in result.detail

    def test_rate_off_by_two_points_fails(self):
        # power: sampling at rate 0.42 against the rate-0.4 model is caught
        for seed in range(1, 31):
            result = verify.corruption_frequency_check(Rng(seed).spawn(103),
                                                       sample_rate=0.42)
            assert not result.passed, f"seed {seed}: {result.detail}"


class TestRunAll:
    def test_all_properties_pass(self):
        results = verify.run_all()
        failed = [r.name for r in results if not r.passed]
        assert failed == [], f"failed properties: {failed}"
        assert len(results) == 13

    @staticmethod
    def fd_result():
        results = verify._prop_hypergradient(verify.DEFAULT_VERIFY_SEED)
        return next(r for r in results if r.name == "hypergradient-finite-difference")

    def test_mutated_theta_gradient_fails_fd_check(self, monkeypatch):
        # the property checks the chain training runs: a weighting net that
        # climbs the meta loss must fail it
        original = bilevel.theta_gradient
        monkeypatch.setattr(bilevel, "theta_gradient", lambda *args: -original(*args))
        assert not self.fd_result().passed

    def test_virtual_step_at_twice_the_rate_fails_fd_check(self, monkeypatch):
        original = bilevel.virtual_step
        monkeypatch.setattr(bilevel, "virtual_step", lambda state, weights, grads, alpha:
                            original(state, weights, grads, 2 * alpha))
        assert not self.fd_result().passed

    def test_ce_in_place_of_mae_fails_equivalence(self):
        # negative control: the equivalence property is specific to the
        # symmetric loss; running its check with CE must fail
        rng = Rng(16)
        worst = 0.0
        for _ in range(10):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 5)
            worst = max(worst, verify.equivalence_report(c, params, x, y, 0.4, LossKind.CE))
        assert worst > 1e-10  # would have passed at 1e-10 with MAE


def solo_uniform_expectation(seed):
    """``_prop_uniform_expectation``'s instances in its stream order, each
    checked by its own ``equivalence_report`` call: (MAE residuals, CE
    residuals)."""
    rng = Rng(seed).spawn(101)
    mae, ce = [], []
    for k in (3, 5, 10):
        for eta in (0.2, 0.4, 0.6, 0.8):
            for _ in range(17):
                c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, k)
                mae.append(verify.equivalence_report(c, params, x, y, eta, LossKind.MAE))
                ce.append(verify.equivalence_report(c, params, x, y, eta, LossKind.CE))
    return np.array(mae), np.array(ce)


class TestStackedUniformExpectation:
    """The property checks each (K, eta) cell's instances as one stack;
    every residual, the worst MAE residual and the CE hit count are those
    of the loop that checks one instance per call."""

    @pytest.mark.parametrize("seed", [verify.DEFAULT_VERIFY_SEED, 1, 7])
    def test_stacked_residuals_equal_the_solo_loop(self, seed, monkeypatch):
        calls = {LossKind.MAE: [], LossKind.CE: []}
        report = verify.equivalence_report

        def recorded(classifier, params, x, y, eta, kind):
            out = report(classifier, params, x, y, eta, kind)
            calls[kind].append(out)
            return out

        monkeypatch.setattr(verify, "equivalence_report", recorded)
        mae_result, ce_result = verify._prop_uniform_expectation(seed)
        monkeypatch.undo()
        assert len(calls[LossKind.MAE]) == len(calls[LossKind.CE]) == 12  # one per cell
        mae, ce = solo_uniform_expectation(seed)
        assert np.array_equal(np.concatenate(calls[LossKind.MAE]), mae)
        assert np.array_equal(np.concatenate(calls[LossKind.CE]), ce)
        assert mae_result.detail.startswith(f"max relative residual {mae.max():.3e} over 204 ")
        assert ce_result.detail.startswith(f"CE residual > 1e-3 on {np.sum(ce > 1e-3)}/204 ")
        assert mae_result.passed == (mae.max() <= 1e-10)

    def test_a_single_vector_gives_a_float(self):
        c, (params,), (x,), (y,) = verify.random_classifier_instances(Rng(5), 1, 3)
        residual = verify.equivalence_report(c, params, x, y, 0.4, LossKind.MAE)
        assert isinstance(residual, float)
        stacked = verify.equivalence_report(c, params[None], x[None], y[None], 0.4,
                                            LossKind.MAE)
        assert stacked.shape == (1,) and stacked[0] == residual


# -- one read per batch of random instances ----------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def per_layer_params(rng, layer_sizes):
    """He-normal weights drawn as one ``gaussians`` call per layer, from
    the input, and zero biases."""
    parts = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        parts += [np.sqrt(2.0 / fan_in) * rng.gaussians(fan_out * fan_in), np.zeros(fan_out)]
    return np.concatenate(parts)


def per_call_classifier_instance(rng, k, dim=4, hidden=(8,), batch=6):
    """One instance from one draw per part: each layer's weights, the
    features, the labels."""
    params = per_layer_params(rng, [dim, *hidden, k])
    return params, rng.gaussians(batch * dim).reshape(batch, dim), rng.randints(batch, k)


class TestOneReadPerBatch:
    """The instance builders read the stream once per batch; their values
    and the stream position after them are those of drawing part by part."""

    @pytest.mark.parametrize("count, k, batch", [(1, 3, 6), (17, 10, 6), (100, 5, 40)])
    def test_instances_equal_per_call_draws(self, count, k, batch):
        one_read, per_call = Rng(41), Rng(41)
        c, params, x, y = verify.random_classifier_instances(one_read, count, k, batch=batch)
        want = [per_call_classifier_instance(per_call, k, batch=batch) for _ in range(count)]
        assert c.layer_sizes == [4, 8, k]
        assert np.array_equal(bits(params), bits(np.stack([w[0] for w in want])))
        assert np.array_equal(bits(x), bits(np.stack([w[1] for w in want])))
        assert np.array_equal(y, np.stack([w[2] for w in want])) and y.dtype == np.int64
        assert np.array_equal(one_read.next_u64s(3), per_call.next_u64s(3))

    def test_hypergrad_first_try_equals_its_eight_draws(self):
        # seed 2's first try passes the kink and size checks, so it is returned
        one_read, per_call = Rng(2), Rng(2)
        state, tb, mb, _ = verify.random_hypergrad_instance(one_read)
        params = per_layer_params(per_call, [3, 5, 3])
        theta = per_layer_params(per_call, [1, 100, 1])
        theta[200:300] = 0.0  # the weighting net's zeroed output weights
        x_train, y_train = per_call.gaussians(12).reshape(4, 3), per_call.randints(4, 3)
        x_meta, y_meta = per_call.gaussians(12).reshape(4, 3), per_call.randints(4, 3)
        assert np.array_equal(bits(state.params), bits(params))
        assert np.array_equal(bits(state.theta), bits(theta))
        assert np.array_equal(bits(tb.features), bits(x_train))
        assert np.array_equal(bits(mb.features), bits(x_meta))
        assert np.array_equal(tb.labels, y_train) and np.array_equal(mb.labels, y_meta)
        assert np.array_equal(one_read.next_u64s(3), per_call.next_u64s(3))

    def test_run_all_reads_the_stream_in_few_large_reads(self, monkeypatch):
        # Deterministic: a return to per-instance draws multiplies the read
        # count, and any change in what the properties consume moves the
        # word count.
        reads = []
        read = Rng.next_u64s

        def spy(self, size):
            reads.append(size)
            return read(self, size)

        monkeypatch.setattr(Rng, "next_u64s", spy)
        verify.run_all()
        assert len(reads) <= 60
        assert sum(reads) == 507_785


# -- the oracles as loops: references for their batched forms ----------------


def loop_per_label_gradients(classifier, params, features, kind):
    n, k = features.shape[0], classifier.num_classes
    out = np.empty((n, k, classifier.num_params))
    for c in range(k):
        _, grads = classifier.losses_and_grads_batch(
            params, features, np.full(n, c, dtype=np.int64), kind)
        out[:, c, :] = grads.matrix()
    return out


def loop_finite_diff_theta_grad(state, train_batch, meta_batch, alpha, kind,
                                step=verify.FD_STEP):
    classifier, weightnet = state.classifier, state.weightnet
    w0, theta0 = state.params, state.theta
    losses, grads = classifier.losses_and_grads_batch(
        w0, train_batch.features, train_batch.labels, LossKind.CE)
    grads, n = grads.matrix(), len(train_batch)

    def objective(theta):
        weights = weightnet.forward_batch(theta, losses)
        w_hat = w0 - (alpha / n) * (weights @ grads)
        return float(classifier.losses_batch(
            w_hat, meta_batch.features, meta_batch.labels, kind).mean())

    out = np.empty(theta0.size)
    theta = theta0.copy()
    for i in range(theta0.size):
        theta[i] = theta0[i] + step
        f_plus = objective(theta)
        theta[i] = theta0[i] - step
        f_minus = objective(theta)
        theta[i] = theta0[i]
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return out


def loop_variance_bound_check(g_all, labels, eta, m):
    """``variance_bound_check``'s (noisy variance, bound, sigma_sq) from
    the gradient rows ``g_all`` (n, K, P), as a loop over the (sample,
    observed label) cells and their probabilities."""
    n, k, _ = g_all.shape
    mu = sum(g_all[i, labels[i]] for i in range(n)) / n
    sigma_sq = sum(np.sum((g_all[i, labels[i]] - mu) ** 2) for i in range(n)) / n / m
    cells = [(i, c) for i in range(n) for c in range(k)]
    prob = {(i, c): ((1.0 - eta) * (c == labels[i]) + eta / k) / n for i, c in cells}
    g_bar = sum(prob[i, c] * g_all[i, c] for i, c in cells)
    spread = sum(prob[i, c] * np.sum((g_all[i, c] - g_bar) ** 2) for i, c in cells)
    noisy = np.sum((g_bar - (1.0 - eta) * mu) ** 2) + spread / m
    rho = max(np.linalg.norm(g_all[i, c]) for i, c in cells)
    return noisy, sigma_sq + 2.0 * eta * rho ** 2 / m, sigma_sq


def gather_variance_bound_check(classifier, params, pool, eta, m, trials, rng):
    """Monte-Carlo estimates of ``variance_bound_check``'s two variances:
    (noisy, sigma_sq) from ``trials`` minibatches, each gathered and
    averaged, 1000 trials at a time so the gathered rows stay small."""
    k = classifier.num_classes
    g_all = loop_per_label_gradients(classifier, params, pool.features, LossKind.MAE)
    g_clean = g_all[np.arange(len(pool)), pool.labels]
    mu = g_clean.mean(axis=0)
    clean_idx = rng.randints(trials * m, len(pool)).reshape(trials, m)
    noisy_idx = rng.randints(trials * m, len(pool)).reshape(trials, m)
    flip_mask = rng.uniforms(trials * m).reshape(trials, m) < eta
    drawn = rng.randints(trials * m, k).reshape(trials, m)
    labels = np.where(flip_mask, drawn, pool.labels[noisy_idx])
    sigma_sq = noisy = 0.0
    for rows in np.array_split(np.arange(trials), max(1, trials // 1000)):
        dev = g_clean[clean_idx[rows]].mean(axis=1) - mu
        sigma_sq += (dev ** 2).sum() / trials
        dev = g_all[noisy_idx[rows], labels[rows]].mean(axis=1) - (1.0 - eta) * mu
        noisy += (dev ** 2).sum() / trials
    return noisy, sigma_sq


def gather_mc_convergence_slope(rng, eta=0.4, num_classes=5, batch=6,
                                trial_counts=(100, 400, 1600, 6400), repeats=40):
    """``mc_convergence_slope`` with each sampled minibatch gathered."""
    classifier, (params,), (features,), (labels,) = verify.random_classifier_instances(
        rng, 1, num_classes, batch=batch)
    g_all = loop_per_label_gradients(classifier, params, features, LossKind.MAE)
    expected = verify.expected_gradient(g_all, labels,
                                        verify.uniform_transition(num_classes, eta))
    log_errors = []
    for trials in trial_counts:
        errs = np.empty(repeats)
        for r in range(repeats):
            flip = rng.uniforms(trials * batch).reshape(trials, batch) < eta
            drawn = rng.randints(trials * batch, num_classes).reshape(trials, batch)
            obs = np.where(flip, drawn, labels[None, :])
            est = g_all[np.arange(batch)[None, :], obs].mean(axis=(0, 1))
            errs[r] = np.linalg.norm(est - expected)
        log_errors.append(np.mean(np.log10(errs)))
    slope, _ = np.polyfit(np.log10(np.asarray(trial_counts, dtype=float)),
                          np.array(log_errors), 1)
    return float(slope)


class TestBatchedOraclesMatchLoops:
    def test_per_label_gradients_equal_one_pass_per_label(self):
        rng = Rng(50)
        for k in (2, 3, 5, 10):
            for kind in LossKind:
                for hidden in ((8,), (5, 4), ()):
                    c, (params,), (x,), _ = verify.random_classifier_instances(
                        rng, 1, k, hidden=hidden, batch=1 + rng.randint(40))
                    assert np.array_equal(verify.per_label_gradients(c, params, x, kind),
                                          loop_per_label_gradients(c, params, x, kind))

    @pytest.mark.parametrize("hidden", [(5,), (5, 4)])
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_finite_differences_match_the_coordinate_loop(self, kind, hidden):
        rng = Rng(51)
        for _ in range(4):
            state, tb, mb, _ = verify.random_hypergrad_instance(rng, kind=kind,
                                                                hidden=hidden)
            ref = loop_finite_diff_theta_grad(state, tb, mb, 0.1, kind)
            fd = verify.finite_diff_theta_grad(state, tb, mb, 0.1, kind)
            assert np.abs(fd - ref).max() <= 1e-7 * np.abs(ref).max()

    @staticmethod
    def assert_report_matches_loop(got, g_all, labels, eta, m):
        ref = loop_variance_bound_check(g_all, labels, eta, m)
        for field, want in zip(("noisy_variance", "bound", "sigma_sq"), ref):
            assert getattr(got, field) == pytest.approx(want, rel=1e-12), field
        if eta > 0:  # at eta = 0 the two sides tie up to rounding
            assert got.holds == (ref[0] <= ref[1])

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8])
    def test_variance_report_matches_a_loop_over_cells(self, eta, monkeypatch):
        for seed in range(5):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(
                Rng(60 + seed), 1, 5, dim=4, hidden=(8,), batch=40)
            got = verify.variance_bound_check(c, params, x, y, eta, 20)
            g_net = loop_per_label_gradients(c, params, x, LossKind.MAE)
            self.assert_report_matches_loop(got, g_net, y, eta, 20)
            # MAE rows sum to zero over the labels, which zeroes the bias
            # term; random rows check that term too
            g_random = Rng(70 + seed).gaussians(g_net.size).reshape(g_net.shape)
            monkeypatch.setattr(verify, "per_label_gradients", lambda *args: g_random)
            got = verify.variance_bound_check(c, params, x, y, eta, 20)
            self.assert_report_matches_loop(got, g_random, y, eta, 20)
            monkeypatch.undo()

    @pytest.mark.parametrize("eta", [0.4, 0.8])
    def test_variances_match_sampled_minibatches(self, eta):
        for seed in range(5):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(
                Rng(60 + seed), 1, 5, dim=4, hidden=(8,), batch=40)
            pool = LabeledDataset(x, y, 5)
            got = verify.variance_bound_check(c, params, x, y, eta, 20)
            noisy, sigma_sq = gather_variance_bound_check(c, params, pool, eta, 20,
                                                          20_000, Rng(seed))
            assert got.noisy_variance == pytest.approx(noisy, rel=0.05)
            assert got.sigma_sq == pytest.approx(sigma_sq, rel=0.05)

    def test_mc_slope_matches_the_gathered_means(self):
        slope = verify.mc_convergence_slope(Rng(15), trial_counts=(100, 400, 1600),
                                            repeats=10)
        ref = gather_mc_convergence_slope(Rng(15), trial_counts=(100, 400, 1600),
                                          repeats=10)
        assert slope == pytest.approx(ref, rel=1e-12)
