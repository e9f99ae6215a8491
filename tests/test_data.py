import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from metareweight.data import (_MEANS_STREAM, _SPLIT_STREAMS, BlobSpec, LabeledDataset,
                               SplitBundle, _draw_means, _draw_split, csv_text, format_value,
                               make_blobs, save_dataset, standardize)
from metareweight.noise import NoiseKind, NoiseSpec, build_transition, corrupt
from metareweight.numkit import Rng


def nearest_mean_accuracy(train: LabeledDataset, test: LabeledDataset) -> float:
    means = np.stack([train.features[train.labels == k].mean(axis=0)
                      for k in range(train.num_classes)])
    d2 = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == test.labels))


def class_means(spec: BlobSpec) -> np.ndarray:
    """The class means ``make_blobs(spec)`` draws its splits around."""
    return _draw_means(spec, Rng(spec.seed).spawn(_MEANS_STREAM))


class TestMakeBlobs:
    def test_split_sizes_and_balance(self):
        spec = BlobSpec(num_classes=4, dim=3, n_train=103, n_meta=21, n_test=50, seed=2)
        bundle = make_blobs(spec)
        assert len(bundle.train) == 103
        assert len(bundle.meta) == 21
        assert len(bundle.test) == 50
        for split in (bundle.train, bundle.meta, bundle.test):
            counts = np.bincount(split.labels, minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_min_pairwise_separation(self):
        spec = BlobSpec(num_classes=6, dim=4, separation=2.5, seed=5)
        m = class_means(spec)
        diff = m[:, None, :] - m[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        min_dist = dist[np.triu_indices(6, 1)].min()
        assert min_dist == pytest.approx(2.5, rel=1e-12)

    def test_high_separation_nearest_mean_sanity(self):
        spec = BlobSpec(num_classes=5, dim=2, n_train=2000, n_meta=100, n_test=2000,
                        separation=10.0, cluster_std=1.0, seed=3)
        bundle = make_blobs(spec)
        assert nearest_mean_accuracy(bundle.train, bundle.test) >= 0.99

    def test_same_seed_identical(self):
        spec = BlobSpec(seed=9, n_train=50, n_meta=10, n_test=20)
        a, b = make_blobs(spec), make_blobs(spec)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)
        assert np.array_equal(class_means(spec), class_means(spec))

    def test_accuracy_monotone_in_separation(self):
        accs = []
        for sep in (1.0, 2.0, 4.0, 8.0):
            spec = BlobSpec(num_classes=4, dim=5, n_train=1000, n_meta=50, n_test=1000,
                            separation=sep, seed=6)
            bundle = make_blobs(spec)
            accs.append(nearest_mean_accuracy(bundle.train, bundle.test))
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            BlobSpec(separation=0.0)
        with pytest.raises(ValueError):
            BlobSpec(n_meta=0)


class TestSplitArithmetic:
    """Each split, built in place in the draw's array, gives the bits of
    ``means[labels] + cluster_std * noise``, and ``standardize``, which
    works in place on its one new array, gives the bits of
    ``(features - mu) / sigma``."""

    @pytest.mark.parametrize("spec", [BlobSpec(seed=3),
                                      BlobSpec(num_classes=3, dim=7, n_train=1001, n_meta=13,
                                               n_test=5, cluster_std=0.7, seed=4),
                                      BlobSpec(num_classes=7, dim=2, n_train=30, n_meta=3,
                                               n_test=6, cluster_std=2.5, seed=5)])
    def test_equal_the_out_of_place_expressions(self, spec):
        bundle = make_blobs(spec)
        scaled = standardize(bundle)
        mu = bundle.train.features.mean(axis=0)
        sigma = np.maximum(bundle.train.features.std(axis=0), 1e-8)
        for name, count in (("train", spec.n_train), ("meta", spec.n_meta),
                            ("test", spec.n_test)):
            split = getattr(bundle, name)
            noise = Rng(spec.seed).spawn(_SPLIT_STREAMS[name]).gaussians(count * spec.dim)
            want = class_means(spec)[split.labels] + spec.cluster_std * noise.reshape(count, -1)
            assert np.array_equal(split.features, want)
            assert np.array_equal(getattr(scaled, name).features, (want - mu) / sigma)

    def test_a_split_allocates_little_beyond_its_features(self):
        # the draw is scaled and shifted in place: no full-split temporaries
        spec = BlobSpec(n_train=20_000, seed=6)
        means = class_means(spec)
        tracemalloc.start()
        try:
            split = _draw_split(spec, means, Rng(7), spec.n_train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < split.features.nbytes + 2 * 2**20


class TestStandardize:
    def test_overflowing_statistics_rejected_without_warning(self):
        bundle = make_blobs(BlobSpec(separation=1e300, n_train=10, n_meta=2, n_test=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64"):
                standardize(bundle)

    def test_overflowing_standardized_features_rejected_without_warning(self):
        # one train row has standard deviation 0, floored to STD_FLOOR: the
        # other classes' rows, 1e305 away, overflow when divided by it
        bundle = make_blobs(BlobSpec(separation=1e305, n_train=1, n_meta=4, n_test=4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64 when standardized"):
                standardize(bundle)

    def test_train_moments(self):
        bundle = standardize(make_blobs(BlobSpec(seed=4)))
        mu = bundle.train.features.mean(axis=0)
        sd = bundle.train.features.std(axis=0)
        assert np.all(np.abs(mu) < 1e-10)
        assert np.all(np.abs(sd - 1.0) < 1e-10)

    def test_constant_feature_maps_to_zero(self):
        features = np.ones((10, 2))
        features[:, 1] = np.arange(10)
        ds = LabeledDataset(features, np.zeros(10, dtype=np.int64), 2)
        bundle = standardize(SplitBundle(ds, ds, ds))
        assert np.all(bundle.train.features[:, 0] == 0.0)

    def test_test_split_uses_train_statistics(self):
        bundle = make_blobs(BlobSpec(seed=7, n_test=500))
        shifted = LabeledDataset(bundle.test.features + 100.0,
                                 bundle.test.labels, bundle.test.num_classes)
        bundle.test = shifted
        out = standardize(bundle)
        # a test split standardized with its own stats would be centered;
        # with train stats the +100 shift must survive scaling
        assert np.all(out.test.features.mean(axis=0) > 10.0)


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[-1, 0, 1], [0, 1, 3]])
    def test_labels_outside_the_classes_rejected(self, labels):
        # a label of -1 would read the last class's row wherever it indexes
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got"):
            LabeledDataset(np.zeros((3, 1)), labels, 3)

    def test_empty_dataset_accepted(self):
        assert len(LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3)) == 0

    @pytest.mark.parametrize("labels, true_labels", [([7, -1], [0, 1]), ([0, 1], [0, 3]),
                                                     ([0, 2], [-1, 0])])
    def test_either_label_array_outside_the_classes_rejected(self, labels, true_labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got"):
            LabeledDataset(np.zeros((2, 1)), labels, 3, true_labels=true_labels)

    @pytest.mark.parametrize("true_labels", [[0], [0, 1, 2], [[0, 1]]])
    def test_true_labels_of_another_shape_rejected(self, true_labels):
        with pytest.raises(ValueError, match="one label per row"):
            LabeledDataset(np.zeros((2, 1)), [0, 1], 3, true_labels=true_labels)

    def test_is_corrupted_marks_labels_that_differ_from_the_true_ones(self):
        ds = LabeledDataset(np.zeros((4, 1)), [0, 2, 1, 1], 3, true_labels=[0, 1, 1, 2])
        assert ds.is_corrupted.tolist() == [False, True, False, True]
        assert ds.is_corrupted.tolist() == (ds.labels != ds.true_labels).tolist()

    def test_is_corrupted_all_false_without_true_labels(self):
        ds = LabeledDataset(np.zeros((3, 1)), [2, 0, 1], 3)
        assert ds.true_labels is None
        assert ds.is_corrupted.dtype == bool and ds.is_corrupted.tolist() == [False] * 3


def load_dataset(path):
    """Reader for the ``save_dataset`` format; three label columns carry the
    true labels, the labels training sees and the corruption flags."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k, d = int(rows[0][0]), int(rows[0][1])
    body = rows[1:]
    features = np.array([[float(x) for x in row[:d]] for row in body])
    if body and len(body[0]) == d + 3:
        true = np.array([int(row[d]) for row in body])
        observed = np.array([int(row[d + 1]) for row in body])
        flags = np.array([row[d + 2] == "1" for row in body])
        loaded = LabeledDataset(features, observed, k, true_labels=true)
        assert np.array_equal(loaded.is_corrupted, flags)
        return loaded
    return LabeledDataset(features, np.array([int(row[d]) for row in body]), k)


class TestCsvRoundTrip:
    def test_clean_dataset(self, tmp_path):
        bundle = make_blobs(BlobSpec(n_train=30, n_meta=5, n_test=8, seed=2))
        path = tmp_path / "train.csv"
        save_dataset(bundle.train, path)
        loaded = load_dataset(path)
        assert loaded.true_labels is None
        assert np.array_equal(loaded.features, bundle.train.features)
        assert np.array_equal(loaded.labels, bundle.train.labels)
        assert loaded.num_classes == bundle.train.num_classes

    def test_corrupted_dataset(self, tmp_path):
        bundle = make_blobs(BlobSpec(n_train=40, n_meta=5, n_test=8, seed=2))
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.5, 5, seed=1))
        corrupted = corrupt(bundle.train, t, Rng(3))
        path = tmp_path / "train_corrupted.csv"
        save_dataset(corrupted, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, corrupted.features)
        assert np.array_equal(loaded.labels, corrupted.labels)
        assert np.array_equal(loaded.true_labels, corrupted.true_labels)
        assert np.array_equal(loaded.is_corrupted, corrupted.is_corrupted)


    def test_empty_dataset_writes_only_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_dataset(LabeledDataset(np.zeros((0, 3)), np.zeros(0), 4), path)
        assert path.read_bytes() == b"4,3\r\n"


class TestCsvText:
    def test_cells_go_through_format_value(self):
        text = csv_text([["name", "rate", "kind"], ["a,b", 0.1, NoiseKind.FLIP2], [7, 1e-17, 2]])
        assert text == 'name,rate,kind\r\n"a,b",0.1,flip2\r\n7,1e-17,2\r\n'

    def test_a_tuple_is_its_items_joined(self):
        assert format_value((36, 48)) == "36, 48"
        assert format_value((0.1, NoiseKind.FLIP)) == "0.1, flip"
        assert format_value(()) == ""

    def test_floats_round_trip_exactly(self):
        values = Rng(4).gaussians(50).tolist()
        row = next(csv.reader([csv_text([values])]))
        assert [float(v) for v in row] == values

