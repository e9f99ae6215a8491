import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareweight.metrics import _average_ranks, accuracy, auc_noisy_detection
from metareweight.numkit import Rng


def brute_force_auc(scores, flags):
    """Definitional pairwise count: P(clean > corrupt) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    clean = scores[~flags]
    corrupt = scores[flags]
    total = 0.0
    for c in clean:
        for x in corrupt:
            total += 1.0 if c > x else (0.5 if c == x else 0.0)
    return total / (clean.size * corrupt.size)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 0], [1, 2, 0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestAuc:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        flags = [False, False, False, True, True]
        assert auc_noisy_detection(scores, flags) == 1.0

    def test_all_ties(self):
        assert auc_noisy_detection([0.5] * 6, [True, False] * 3) == 0.5

    def test_hand_enumerated_pairs(self):
        scores = [0.9, 0.4, 0.5, 0.1]
        flags = [False, False, True, True]
        assert auc_noisy_detection(scores, flags) == 0.75

    def test_single_class_error(self):
        with pytest.raises(ValueError):
            auc_noisy_detection([0.1, 0.2], [False, False])
        with pytest.raises(ValueError):
            auc_noisy_detection([0.1, 0.2], [True, True])

    def test_matches_brute_force_with_ties(self):
        rng = Rng(13)
        for _ in range(20):
            n = 40 + rng.randint(60)
            scores = np.round(rng.uniforms(n), 1)  # coarse grid forces ties
            flags = rng.uniforms(n) < 0.4
            if flags.all() or not flags.any():
                continue
            fast = auc_noisy_detection(scores, flags)
            assert fast == pytest.approx(brute_force_auc(scores, flags), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = Rng(14)
        scores = rng.uniforms(200)
        flags = rng.uniforms(200) < 0.3
        base = auc_noisy_detection(scores, flags)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s ** 3):
            assert auc_noisy_detection(transform(scores), flags) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self):
        rng = Rng(15)
        scores = np.round(rng.uniforms(300), 2)
        flags = rng.uniforms(300) < 0.5
        a = auc_noisy_detection(scores, flags)
        b = auc_noisy_detection(-scores, flags)
        assert a + b == pytest.approx(1.0, abs=1e-12)


def loop_average_ranks(x):
    """Reference ranks: walk the sorted values, one run of ties at a time."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def test_hand_example(self):
        x = np.array([0.3, 0.1, 0.3, 0.2, 0.3])
        assert np.array_equal(_average_ranks(x), [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_empty(self):
        assert _average_ranks(np.empty(0)).size == 0

    @pytest.mark.parametrize("nans", [0, 1, 40])
    def test_equals_loop_on_many_tied_keys(self, nans):
        # 20,000 keys in 64 values, as many as an epoch's train AUC ranks:
        # the default argsort without a NaN, the stable one with NaNs
        x = np.floor(64.0 * Rng(9).uniforms(20_000)) - 32.0
        x[np.flatnonzero(x == 0.0)[::2]] = -0.0  # zeros of both signs tie
        x[Rng(10).randints(nans, x.size)] = np.nan
        assert np.array_equal(_average_ranks(x), loop_average_ranks(x))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -3.0, np.inf, np.nan])
                    | st.floats(), max_size=60))
    def test_equals_loop_on_tie_heavy_inputs(self, values):
        # half-integer ranks are exact in float64, so equality is exact
        x = np.array(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(x), loop_average_ranks(x))
