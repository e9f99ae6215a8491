import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metareweight import bilevel
from metareweight.bilevel import TrainConfig, Variant
from metareweight.config import (_SCHEMA, ConfigError, ExperimentConfig, parse_config,
                                 parse_config_text, serialize_config)
from metareweight.data import BlobSpec, make_blobs
from metareweight.noise import NoiseKind


class TestParse:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()

    def test_full_round_trip(self):
        text = """
[blob]
classes = 4
dim = 6
n_train = 300
n_meta = 40
n_test = 200
separation = 2.5
cluster_std = 0.8

[noise]
kinds = uniform, flip2
rates = 0.0, 0.2, 0.4

[train]
train_batch = 50
meta_batch = 25
classifier_lr = 0.1
meta_lr = 0.002
momentum = 0.8
weight_decay = 0.0001
epochs = 10
lr_milestones = 6, 8

[experiment]
variants = noisy-mae, noisy-ce
num_seeds = 2
seed = 9
output_dir = results
workers = 2
"""
        cfg = parse_config_text(text)
        assert cfg.blob.num_classes == 4
        assert cfg.noise_kinds == (NoiseKind.UNIFORM, NoiseKind.FLIP2)
        assert cfg.noise_rates == (0.0, 0.2, 0.4)
        assert cfg.variants == (Variant.NOISY_MAE, Variant.NOISY_CE)
        assert cfg.train.lr_milestones == (6, 8)
        assert cfg.workers == 2
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_serialize_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'bogus'"):
            parse_config_text("\n[blob]\nbogus = 1\n")

    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError, match=r":1: unknown section"):
            parse_config_text("[nonsense]\n")

    def test_malformed_line_reported(self):
        with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
            parse_config_text("[blob]\nclasses 4\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config_text("classes = 4\n")

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match=r"noise rate must lie in \[0, 1\)"):
            parse_config_text("[noise]\nrates = 1.5\n")

    def test_bad_value_type_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r":2: bad value for 'classes'"):
            parse_config_text("[blob]\nclasses = five\n")

    def test_comments_ignored(self):
        cfg = parse_config_text("# comment\n[blob]\nclasses = 3  # inline\n")
        assert cfg.blob.num_classes == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_file_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nnum_seeds = 3\n")
        assert parse_config(path).num_seeds == 3

    def test_bad_variant_value(self):
        with pytest.raises(ConfigError, match="variants"):
            parse_config_text("[experiment]\nvariants = fancy-net\n")

    def test_repeated_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:4: key 'rates' repeated in section \[noise\]"):
            parse_config_text("[noise]\nrates = 0.4\nkinds = uniform\nrates = 0.2\n")

    def test_repeated_key_across_headers_of_one_section(self):
        with pytest.raises(ConfigError, match=r":4: key 'epochs' repeated"):
            parse_config_text("[train]\nepochs = 3\n[train]\nepochs = 4\n")


class TestHyperparameterRanges:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_classifier_lr(self, value):
        with pytest.raises(ConfigError, match=f"classifier_lr must be finite and positive, "
                                              f"got {float(value)}"):
            parse_config_text(f"[train]\nclassifier_lr = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_meta_lr(self, value):
        with pytest.raises(ConfigError, match=f"meta_lr must be finite and positive, "
                                              f"got {float(value)}"):
            parse_config_text(f"[train]\nmeta_lr = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "-1e-300"])
    def test_weight_decay(self, value):
        with pytest.raises(ConfigError, match="weight_decay must be finite and >= 0"):
            parse_config_text(f"[train]\nweight_decay = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_separation(self, value):
        with pytest.raises(ConfigError, match=f"separation must be finite and positive, "
                                              f"got {float(value)}"):
            parse_config_text(f"[blob]\nseparation = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_cluster_std(self, value):
        with pytest.raises(ConfigError, match=f"cluster_std must be finite and positive, "
                                              f"got {float(value)}"):
            parse_config_text(f"[blob]\ncluster_std = {value}\n")

    @pytest.mark.parametrize("section, key, field, rule", [
        ("train", "train_batch", "train_batch", ">= 1"),
        ("train", "meta_batch", "meta_batch", ">= 1"),
        ("blob", "classes", "num_classes", ">= 2"),
        ("blob", "dim", "dim", ">= 1"),
        ("blob", "n_train", "n_train", ">= 1"),
        ("blob", "n_meta", "n_meta", ">= 1"),
        ("blob", "n_test", "n_test", ">= 1"),
    ])
    def test_counts_name_the_field_and_value(self, section, key, field, rule):
        with pytest.raises(ConfigError, match=f": {field} must be {rule}, got -3$"):
            parse_config_text(f"[{section}]\n{key} = -3\n")

    @pytest.mark.parametrize("value", [0, 2**64 - 1])
    def test_seed_bounds_accepted(self, value):
        assert parse_config_text(f"[experiment]\nseed = {value}\n").seed == value

    def test_zero_weight_decay_and_large_finite_values_accepted(self):
        cfg = parse_config_text("[train]\nweight_decay = 0\nclassifier_lr = 1e308\n"
                                "[blob]\nseparation = 1e308\n")
        assert cfg.train.weight_decay == 0.0
        assert math.isfinite(cfg.train.classifier_lr) and math.isfinite(cfg.blob.separation)


class TestSchema:
    def test_train_config_fields_are_the_train_keys(self):
        assert ({f.name for f in fields(TrainConfig)}
                == {name for name, _ in _SCHEMA["train"].values()})

    def test_train_config_has_no_per_run_fields(self):
        for name in ("meta_loss", "meta_is_noisy", "seed"):
            with pytest.raises(TypeError):
                TrainConfig(**{name: None})

    def test_readme_config_block_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config_text(block, source="README.md") == ExperimentConfig()


DEFAULT_CONFIG_TEXT = """\
[blob]
classes = 5
dim = 20
n_train = 2000
n_meta = 200
n_test = 2000
separation = 3.0
cluster_std = 1.0

[noise]
kinds = uniform
rates = 0.0, 0.4

[train]
train_batch = 100
meta_batch = 100
classifier_lr = 0.05
meta_lr = 0.001
momentum = 0.9
weight_decay = 0.0005
epochs = 60
lr_milestones = 36, 48

[experiment]
variants = clean-ce, noisy-ce, noisy-mae
num_seeds = 5
seed = 1
output_dir = out
workers = 1
"""


class TestSerializeBytes:
    # config_resolved.cfg is part of the byte-identical output of a run, so
    # the writer's exact bytes are pinned here, not only its meaning.
    def test_defaults(self):
        assert serialize_config(ExperimentConfig()) == DEFAULT_CONFIG_TEXT

    def test_multi_value_config(self):
        # empty lr_milestones leaves a trailing space, written here as \x20
        cfg = ExperimentConfig(
            blob=BlobSpec(num_classes=4, separation=2.5, cluster_std=1e-3),
            noise_kinds=(NoiseKind.FLIP2, NoiseKind.UNIFORM),
            noise_rates=(0.1, 0.25, 0.4),
            variants=(Variant.NOISY_MAE, Variant.CLEAN_CE),
            train=TrainConfig(classifier_lr=1, lr_milestones=()),
            num_seeds=3, seed=7, output_dir="my runs/a=b", workers=2)
        assert serialize_config(cfg) == """\
[blob]
classes = 4
dim = 20
n_train = 2000
n_meta = 200
n_test = 2000
separation = 2.5
cluster_std = 0.001

[noise]
kinds = flip2, uniform
rates = 0.1, 0.25, 0.4

[train]
train_batch = 100
meta_batch = 100
classifier_lr = 1
meta_lr = 0.001
momentum = 0.9
weight_decay = 0.0005
epochs = 60
lr_milestones =\x20

[experiment]
variants = noisy-mae, clean-ce
num_seeds = 3
seed = 7
output_dir = my runs/a=b
workers = 2
"""


class TestGridEntries:
    def test_duplicate_rates_rejected(self):
        with pytest.raises(ConfigError, match=r"^<config>: duplicate noise rate 0\.4$") as info:
            parse_config_text("[noise]\nkinds = uniform\nrates = 0.4, 0.4\n")
        assert info.value.location == "<config>:3: rates = 0.4, 0.4"

    def test_rates_with_colliding_file_names_rejected(self):
        # both would write runs/<variant>_<kind>_0.123456_<seed>.csv
        with pytest.raises(ConfigError, match=r"^<config>: noise rates .*0\.123456") as info:
            parse_config_text("[noise]\nrates = 0.1234561, 0.1234562\n")
        assert info.value.location == "<config>:2: rates = 0.1234561, 0.1234562"

    def test_equal_rates_of_different_sign_rejected(self):
        with pytest.raises(ConfigError, match=r"^<config>: duplicate noise rate") as info:
            parse_config_text("[noise]\nrates = -0.0, 0.0\n")
        assert info.value.location == "<config>:2: rates = -0.0, 0.0"

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ConfigError, match=r"^<config>: duplicate noise kind 'flip'$") as info:
            parse_config_text("[noise]\nkinds = flip, uniform, FLIP\n")
        assert info.value.location == "<config>:2: kinds = flip, uniform, FLIP"

    def test_duplicate_variants_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^<config>: duplicate variant 'noisy-mae'$") as info:
            parse_config_text("[experiment]\nnum_seeds = 1\n"
                              "variants = noisy-mae, clean-ce, noisy-mae\n")
        assert info.value.location == "<config>:3: variants = noisy-mae, clean-ce, noisy-mae"

    @pytest.mark.parametrize("kinds", ["flip2", "uniform, flip2"])
    def test_flip2_needs_three_classes_and_names_the_kinds_line(self, kinds):
        with pytest.raises(ConfigError, match=r"^<config>: flip2 needs at least 3 classes "
                                              r"for two distinct targets, got 2$") as info:
            parse_config_text(f"[blob]\nclasses = 2\n\n[noise]\nkinds = {kinds}\n")
        assert info.value.location == f"<config>:5: kinds = {kinds}"
        with pytest.raises(ValueError, match="flip2 needs at least 3 classes"):
            ExperimentConfig(blob=BlobSpec(num_classes=2), noise_kinds=(NoiseKind.FLIP2,))
        cfg = parse_config_text("[blob]\nclasses = 3\n[noise]\nkinds = flip2\n")
        assert cfg.noise_kinds == (NoiseKind.FLIP2,)

    @pytest.mark.parametrize("rates", ["nan", "0.2, nan"])
    def test_nan_rate_breaks_the_rate_rule_on_the_rates_line(self, rates):
        with pytest.raises(ConfigError,
                           match=r"^<config>: noise rate must lie in \[0, 1\), got nan$") as info:
            parse_config_text(f"[noise]\nkinds = uniform\nrates = {rates}\n")
        assert info.value.location == f"<config>:3: rates = {rates}"

    def test_programmatic_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate noise rate"):
            ExperimentConfig(noise_rates=(0.2, 0.2))
        with pytest.raises(ValueError, match="duplicate variant"):
            ExperimentConfig(variants=(Variant.NOISY_CE, Variant.NOISY_CE))
        with pytest.raises(ValueError, match="would both write"):
            ExperimentConfig(noise_rates=(0.30000001, 0.3000001))


class TestOneOwnerPerRule:
    SRC = Path(__file__).resolve().parents[1] / "src" / "metareweight"

    @pytest.mark.parametrize("message, owner", [
        ("noise rate must lie in [0, 1)", "noise.py"),
        ("flip2 needs at least 3 classes", "noise.py"),
        ("must lie in [0, 2**64)", "numkit.py"),
    ])
    def test_rule_is_worded_only_by_its_owner(self, message, owner):
        assert [p.name for p in sorted(self.SRC.glob("*.py"))
                if message in p.read_text()] == [owner]


class TestMemoryBound:
    def test_size_far_beyond_memory_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^<config>: dim is too large: one seed "
                                                  r"group would hold at least .* GiB, more "
                                                  r"than the .* GiB of physical memory$") as info:
                parse_config_text(f"[blob]\nn_train = 8\ndim = {10**9}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.location == f"<config>:3: dim = {10**9}"
        assert peak < 10**6

    @pytest.mark.parametrize("section, key, field", [
        ("blob", "n_train", "n_train"), ("blob", "classes", "num_classes"),
        ("train", "meta_batch", "meta_batch")])
    def test_the_largest_size_is_named(self, section, key, field):
        with pytest.raises(ConfigError, match=f"^<config>: {field} is too large") as info:
            parse_config_text(f"[{section}]\n{key} = {10**15}\n")
        assert info.value.location == f"<config>:2: {key} = {10**15}"


class TestPairwiseMemoryBound:
    """Drawing the class means holds (K, K, d) arrays, so a many-class
    config is rejected even when every split is tiny."""

    TINY = "n_train = 8\nn_meta = 8\nn_test = 8\n\n[train]\ntrain_batch = 8\nmeta_batch = 8\n"

    @pytest.fixture(autouse=True)
    def eight_gib_host(self, monkeypatch):
        # the bound compares with physical memory: pin it, so the sizes
        # below fail alike on every host
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
        monkeypatch.setattr(bilevel.os, "sysconf", pages.__getitem__)

    @pytest.mark.parametrize("classes, dim, field, line", [
        (30000, 1, "num_classes", "2: classes = 30000"),
        (100, 10**12, "dim", f"3: dim = {10**12}")])
    def test_many_classes_rejected_before_allocating(self, classes, dim, field, line):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^<config>: {field} is too large: one seed "
                                                  "group would hold at least .* GiB, more "
                                                  "than the 8 GiB of physical memory$") as info:
                parse_config_text(f"[blob]\nclasses = {classes}\ndim = {dim}\n{self.TINY}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.location == f"<config>:{line}"
        assert peak < 10**6

    def test_default_and_a_thousand_classes_pass(self):
        assert parse_config_text("") == ExperimentConfig()
        parse_config_text(f"[blob]\nclasses = 1000\ndim = 1\n{self.TINY}")

    def test_bound_is_below_what_drawing_the_means_allocates(self, monkeypatch):
        # a host with the memory that make_blobs peaks at passes the check;
        # one byte less than 16 K^2 d, the (K, K, d) differences and their
        # squares, fails it
        blob = BlobSpec(num_classes=300, dim=2, n_train=8, n_meta=8, n_test=8)
        tracemalloc.start()
        try:
            make_blobs(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        train = TrainConfig(train_batch=8, meta_batch=8)

        def host_with(nbytes):
            monkeypatch.setattr(bilevel.os, "sysconf",
                                {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}.__getitem__)

        host_with(peak)
        bilevel.check_group_memory(blob, train, runs=1)
        host_with(16 * 300 ** 2 * 2 - 1)
        with pytest.raises(ValueError, match="^num_classes is too large"):
            bilevel.check_group_memory(blob, train, runs=1)


class TestOutputDir:
    @pytest.mark.parametrize("path", ["out#1", " out", "out ", "a\nb", "a\rb",
                                      "a\u2028b", "\tout"])
    def test_values_that_cannot_round_trip_rejected(self, path):
        with pytest.raises(ValueError, match="output_dir"):
            ExperimentConfig(output_dir=path)

    def test_inner_spaces_and_equals_round_trip(self):
        cfg = ExperimentConfig(output_dir="my runs/a=b [x]")
        assert parse_config_text(serialize_config(cfg)) == cfg


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def experiment_configs(draw):
    """Configurations that set every key of the file format."""
    blob = BlobSpec(
        num_classes=draw(st.integers(2, 50)),
        dim=draw(st.integers(1, 100)),
        n_train=draw(st.integers(1, 10**6)),
        n_meta=draw(st.integers(1, 10**6)),
        n_test=draw(st.integers(1, 10**6)),
        separation=draw(st.floats(min_value=1e-300, **_finite)),
        cluster_std=draw(st.floats(min_value=1e-300, **_finite)),
    )
    train = TrainConfig(
        train_batch=draw(st.integers(1, 10**4)),
        meta_batch=draw(st.integers(1, 10**4)),
        classifier_lr=draw(st.floats(min_value=1e-300, **_finite)),
        meta_lr=draw(st.floats(min_value=1e-300, **_finite)),
        momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
        weight_decay=draw(st.floats(min_value=0.0, **_finite)),
        epochs=draw(st.integers(1, 1000)),
        lr_milestones=tuple(draw(st.lists(st.integers(0, 1000), unique=True).map(sorted))),
    )
    fields = dict(
        blob=blob, train=train,
        noise_kinds=tuple(draw(st.lists(st.sampled_from(NoiseKind), min_size=1,
                                        unique=True))),
        noise_rates=tuple(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                        min_size=1, max_size=6))),
        variants=tuple(draw(st.lists(st.sampled_from(Variant), min_size=1, unique=True))),
        num_seeds=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**64 - 1)),
        output_dir=draw(st.text()),
        workers=draw(st.integers(1, 64)),
    )
    # Invalid draws (repeated rates, output_dir values the format cannot
    # carry) are left to ExperimentConfig to reject.
    try:
        return ExperimentConfig(**fields)
    except ValueError:
        assume(False)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(experiment_configs())
    def test_parse_of_serialize_is_identity(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg
