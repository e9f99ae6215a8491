import csv
import io
import tracemalloc

import numpy as np
import pytest

from metareweight.data import LabeledDataset
from metareweight.noise import (NoiseKind, NoiseSpec, TransitionMatrix, _draw_targets,
                                _search_labels, build_transition, corrupt, corrupted_majority,
                                flip_transition, uniform_transition)
from metareweight.numkit import Rng


class TestNoiseSpec:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.UNIFORM, 1.0, 5)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.UNIFORM, -0.1, 5)

    def test_rejects_too_few_classes(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.UNIFORM, 0.2, 1)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.FLIP2, 0.2, 2)


class TestTransitionBuilders:
    @pytest.mark.parametrize("rate", [1.5, 1.0, -0.1])
    def test_every_builder_checks_the_rate_by_one_rule(self, rate):
        message = rf"noise rate must lie in \[0, 1\), got {rate}"
        with pytest.raises(ValueError, match=message):
            flip_transition(np.array([1, 2, 0]), rate)
        with pytest.raises(ValueError, match=message):
            uniform_transition(3, rate)
        with pytest.raises(ValueError, match=message):
            NoiseSpec(NoiseKind.FLIP, rate, 3)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_build_transition_keeps_the_bits_of_the_diagonal_formulas(self, k):
        # reference: each closed form written on the diagonal and the targets
        for rate in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9):
            for seed in range(4):
                for kind in NoiseKind:
                    if kind is NoiseKind.FLIP2 and k < 3:
                        continue
                    spec = NoiseSpec(kind, rate, k, seed=seed)
                    if kind is NoiseKind.UNIFORM:
                        want = np.full((k, k), rate / k)
                        np.fill_diagonal(want, (1.0 - rate) + rate / k)
                    else:
                        targets = _draw_targets(spec)
                        want = np.zeros((k, k))
                        np.fill_diagonal(want, 1.0 - rate)
                        want[np.arange(k)[:, None], targets] += rate / targets.shape[1]
                    assert np.array_equal(build_transition(spec).probs, want), (kind, rate, seed)


class TestBuildTransition:
    def test_uniform_closed_form(self):
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.4, 5, seed=3))
        assert np.allclose(np.diag(t.probs), 0.68, atol=1e-12)
        off = t.probs[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 0.08, atol=1e-12)

    def test_flip_structure(self):
        spec = NoiseSpec(NoiseKind.FLIP, 0.4, 5, seed=3)
        t = build_transition(spec)
        assert np.allclose(np.diag(t.probs), 0.6, atol=1e-15)
        for y in range(5):
            row = t.probs[y].copy()
            row[y] = 0.0
            hot = np.nonzero(row)[0]
            assert hot.size == 1
            assert row[hot[0]] == pytest.approx(0.4, abs=1e-15)
            assert hot[0] != y
            assert hot[0] == _draw_targets(spec)[y]

    def test_flip2_structure(self):
        spec = NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=3)
        t = build_transition(spec)
        assert np.allclose(np.diag(t.probs), 0.6, atol=1e-15)
        for y in range(5):
            row = t.probs[y].copy()
            row[y] = 0.0
            hot = np.nonzero(row)[0]
            assert hot.size == 2
            assert np.allclose(row[hot], 0.2, atol=1e-15)
            assert y not in hot
            assert set(hot) == set(_draw_targets(spec)[y])

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_zero_rate_is_identity(self, kind):
        t = build_transition(NoiseSpec(kind, 0.0, 4, seed=1))
        assert np.array_equal(t.probs, np.eye(4))

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("rate", [0.0, 0.15, 0.4, 0.7])
    def test_rows_stochastic(self, kind, rate):
        t = build_transition(NoiseSpec(kind, rate, 6, seed=9))
        assert np.all(np.abs(t.probs.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(t.probs >= 0.0)

    def test_target_map_deterministic_per_seed(self):
        a, b, c = (NoiseSpec(NoiseKind.FLIP, 0.3, 7, seed=s) for s in (11, 11, 12))
        assert np.array_equal(_draw_targets(a), _draw_targets(b))
        assert not np.array_equal(_draw_targets(a), _draw_targets(c))
        assert np.array_equal(build_transition(a).probs, build_transition(b).probs)
        assert not np.array_equal(build_transition(a).probs, build_transition(c).probs)

    @pytest.mark.parametrize("kind", [NoiseKind.FLIP, NoiseKind.FLIP2])
    @pytest.mark.parametrize("k", range(3, 12))
    def test_targets_are_the_sequential_draws(self, kind, k):
        # one bulk draw reduced per column must pick what one randint per
        # pick, class by class, picked from the shrinking list of others
        for seed in (0, 1, 12345, 2**63, 2**64 - 1):
            spec = NoiseSpec(kind, 0.3, k, seed=seed)
            rng = Rng(seed).spawn(0x7A17)
            want = []
            for y in range(k):
                others = [c for c in range(k) if c != y]
                row = [others.pop(rng.randint(len(others)))]
                if kind is NoiseKind.FLIP2:
                    row.append(others[rng.randint(len(others))])
                want.append(row)
            assert _draw_targets(spec).tolist() == want

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            TransitionMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]))
        for probs in [[[1.5, -0.5], [0.0, 1.0]], [[np.nan, np.nan], [0.0, 1.0]]]:
            with pytest.raises(ValueError, match="nonnegative"):
                TransitionMatrix(np.array(probs))
        for shape in [(2, 1), (3,), (), (1, 1, 1)]:
            with pytest.raises(ValueError, match="must be square"):
                TransitionMatrix(np.ones(shape))

    def test_csv_round_trip(self, tmp_path):
        t = build_transition(NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=3))
        rows = list(csv.reader(io.StringIO(t.to_csv())))
        probs = [[float(x) for x in row] for row in rows[1:]]
        loaded = TransitionMatrix(probs)
        assert loaded.num_classes == int(rows[0][0]) == 5 and len(rows) == 6
        assert np.array_equal(loaded.probs, t.probs)


def _class_balanced_dataset(n, k):
    labels = np.arange(n, dtype=np.int64) % k
    return LabeledDataset(np.zeros((n, 2)), labels, k)


class TestCorrupt:
    def test_identity_matrix_is_noop(self):
        ds = _class_balanced_dataset(500, 4)
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.0, 4))
        out = corrupt(ds, t, Rng(5))
        assert np.array_equal(out.labels, ds.labels)
        assert not out.is_corrupted.any()
        assert np.array_equal(out.features, ds.features)

    def test_uniform_retention_rate(self):
        # retention must match (1-eta)+eta/K, not (1-eta): the corruption
        # draw can land back on the true class
        ds = _class_balanced_dataset(100_000, 5)
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.4, 5))
        out = corrupt(ds, t, Rng(7))
        retained = np.mean(out.labels == out.true_labels)
        assert abs(retained - 0.68) < 0.01
        assert not np.allclose(retained, 0.6, atol=0.01)

    def test_flip2_mass_on_two_columns(self):
        ds = _class_balanced_dataset(100_000, 5)
        spec = NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=2)
        t = build_transition(spec)
        out = corrupt(ds, t, Rng(8))
        for y in range(5):
            mask = out.true_labels == y
            freq = np.bincount(out.labels[mask], minlength=5) / mask.sum()
            hot = np.argsort(freq)[-3:]
            assert y in hot  # true class plus the two targets carry all mass
            others = np.setdiff1d(np.arange(5), hot)
            assert np.all(freq[others] == 0.0)
            for target in _draw_targets(spec)[y]:
                assert abs(freq[target] - 0.2) < 0.01

    def test_marginals_within_three_standard_errors(self):
        ds = _class_balanced_dataset(100_000, 5)
        rng = Rng(31)
        for i, spec in enumerate([NoiseSpec(NoiseKind.UNIFORM, 0.4, 5, seed=1),
                                  NoiseSpec(NoiseKind.FLIP, 0.3, 5, seed=1)]):
            t = build_transition(spec)
            out = corrupt(ds, t, rng.spawn(i))
            for y in range(5):
                mask = out.true_labels == y
                n_y = mask.sum()
                freq = np.bincount(out.labels[mask], minlength=5) / n_y
                for c in range(5):
                    p = t.probs[y, c]
                    se = np.sqrt(p * (1 - p) / n_y)
                    if se == 0.0:
                        assert freq[c] == p
                    else:
                        assert abs(freq[c] - p) <= 3 * se

    def test_seed_determinism(self):
        ds = _class_balanced_dataset(1000, 5)
        t = build_transition(NoiseSpec(NoiseKind.FLIP, 0.3, 5, seed=4))
        a = corrupt(ds, t, Rng(6))
        b = corrupt(ds, t, Rng(6))
        assert np.array_equal(a.labels, b.labels)

    def test_flags_mark_effective_mislabels(self):
        ds = _class_balanced_dataset(10_000, 3)
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.5, 3))
        out = corrupt(ds, t, Rng(9))
        assert np.array_equal(out.is_corrupted, out.labels != out.true_labels)
        assert 0 < out.is_corrupted.sum() < len(out)

    def test_true_labels_are_the_input_labels_and_features_are_shared(self):
        ds = _class_balanced_dataset(1000, 5)
        out = corrupt(ds, build_transition(NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=3)), Rng(2))
        assert np.array_equal(out.true_labels, ds.labels)
        assert not np.array_equal(out.labels, ds.labels)
        assert out.features is ds.features
        assert ds.true_labels is None

    @pytest.mark.parametrize("t_classes, data_classes", [(5, 3), (3, 5)])
    def test_class_counts_must_match(self, t_classes, data_classes):
        # every label lies below both counts, so the draws cannot hide a mismatch
        ds = LabeledDataset(np.zeros((20, 2)), np.arange(20, dtype=np.int64) % 3, data_classes)
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.1, t_classes))
        for seed in range(10):
            with pytest.raises(ValueError, match=f"transition matrix has {t_classes} classes, "
                                                 f"dataset has {data_classes}"):
                corrupt(ds, t, Rng(seed))

    @pytest.mark.parametrize("kind, k", [(kind, k) for kind in NoiseKind
                                         for k in (2, 3, 4, 7, 8, 9, 16, 17, 100, 1000)
                                         if kind is not NoiseKind.FLIP2 or k >= 3])
    def test_split_missing_classes_equals_the_unique_loop(self, kind, k):
        # K crosses the powers of two where the search's steps change; every
        # third class is absent; n crosses the search's chunk of 2**14 labels
        t = build_transition(NoiseSpec(kind, 0.4, k, seed=5))
        present = np.flatnonzero(np.arange(k) % 3 != 1)
        for n in (0, 1, 2**14 - 1, 2**14, 2**14 + 1):
            labels = present[Rng(3).randints(n, present.size)]
            ds = LabeledDataset(np.zeros((n, 2)), labels, k)
            u = Rng(4).uniforms(n)
            rng = Rng(4)
            got = corrupt(ds, t, rng).labels
            assert np.array_equal(got, unique_loop_labels(t._cum, labels, u)), n
            assert rng.next_u64s(1) == Rng(4).next_u64s(n + 1)[-1]  # one word per label
            # uniforms exactly on a cumulative boundary (below 1) of their row
            # go to the next class: a search with < for <= moves them
            cols = Rng(5).randints(n, k)
            on_edge = np.where(t._cum[labels, cols] < 1.0, t._cum[labels, cols], u)
            assert np.array_equal(_search_labels(t._cum, labels, on_edge),
                                  unique_loop_labels(t._cum, labels, on_edge)), n

    def test_the_largest_uniform_never_reaches_a_zero_probability_class(self):
        # a flip2 row can sum to 1 - 2**-53 at its last nonzero class, the
        # largest uniform there is; every entry from that class on is 1.0
        largest = 1.0 - 2.0**-53
        t = build_transition(NoiseSpec(NoiseKind.FLIP2, 0.001, 4, seed=2))
        assert t.probs[0].tolist() == [0.999, 0.0005, 0.0005, 0.0]
        raw = np.cumsum(t.probs[0])
        assert raw[2] == raw[3] == largest
        assert t._cum[0].tolist() == [raw[0], raw[1], 1.0, 1.0]
        assert _search_labels(t._cum, np.array([0]), np.array([largest])).tolist() == [2]
        for k in (3, 4, 5, 7, 10):
            for seed in range(6):
                for rate in np.arange(0.001, 1.0, 0.013):
                    for kind in (NoiseKind.FLIP, NoiseKind.FLIP2):
                        t = build_transition(NoiseSpec(kind, float(rate), k, seed=seed))
                        drawn = _search_labels(t._cum, np.arange(k), np.full(k, largest))
                        assert np.all(t.probs[np.arange(k), drawn] > 0), (kind, k, seed, rate)

    def test_a_large_corrupt_call_allocates_little_beyond_its_draw(self):
        # the search runs in chunks: its temporaries stay far below the
        # three label-sized arrays the draw and the result need
        k, n = 100, 100_000
        ds = _class_balanced_dataset(n, k)
        t = build_transition(NoiseSpec(NoiseKind.FLIP2, 0.4, k, seed=7))
        tracemalloc.start()
        try:
            corrupt(ds, t, Rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.44 * 2**20  # the per-class searchsorted loop's peak


def unique_loop_labels(cum, labels, u):
    """The observed labels as one ``searchsorted`` per class present."""
    want = np.empty(labels.size, dtype=np.int64)
    for y in np.unique(labels):
        idx = np.nonzero(labels == y)[0]
        want[idx] = np.searchsorted(cum[y], u[idx], side="right")
    return want


class TestMajorityFeasibility:
    def test_flip_thresholds(self):
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP, 0.3, 5)) is False
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP, 0.5, 5)) is True

    def test_flip2_thresholds(self):
        # the two targets carry rate/2 each, so the cutover is 2/3
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP2, 0.5, 5)) is False
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP2, 0.67, 5)) is True
        # 0.667 leaves the true class 0.333 against 0.3335 for each target
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP2, 0.667, 5)) is True
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP2, 2 / 3, 5)) is True
        assert corrupted_majority(NoiseSpec(NoiseKind.FLIP2, 0.666, 3)) is False

    def test_uniform_never_warns(self):
        assert corrupted_majority(NoiseSpec(NoiseKind.UNIFORM, 0.7, 5)) is False
        assert corrupted_majority(NoiseSpec(NoiseKind.UNIFORM, 0.99, 5)) is False
