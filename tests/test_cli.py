import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareweight.bilevel import TrainConfig, Variant
from metareweight.cli import ResultRow, ResultTable, main, run_experiment, run_single
from metareweight.config import ExperimentConfig, parse_config
from metareweight.data import BlobSpec
from metareweight.noise import NoiseKind

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY_CFG_TEXT = """
[blob]
classes = 3
dim = 4
n_train = 120
n_meta = 30
n_test = 120
separation = 5.0

[noise]
kinds = uniform
rates = 0.0, 0.3

[train]
train_batch = 30
meta_batch = 15
epochs = 3
lr_milestones = 2

[experiment]
variants = clean-ce, noisy-mae
num_seeds = 2
seed = 4
"""

HEAVY_FLIP_WARNING = ("warning: flip noise at rate 0.5 makes some corrupted class the "
                      "majority; learning may be infeasible")

def cell_row(table, variant, kind, rate):
    """The result row of one (variant, noise kind, noise rate) grid cell."""
    (row,) = [r for r in table.rows
              if (r.variant, r.noise_kind, r.noise_rate) == (variant, kind, rate)]
    return row



def tiny_cfg(**overrides):
    base = dict(
        blob=BlobSpec(num_classes=3, dim=4, n_train=120, n_meta=30, n_test=120,
                      separation=5.0),
        noise_kinds=(NoiseKind.UNIFORM,),
        noise_rates=(0.0, 0.3),
        variants=(Variant.CLEAN_CE, Variant.NOISY_MAE),
        train=TrainConfig(train_batch=30, meta_batch=15, epochs=3, lr_milestones=(2,)),
        num_seeds=2,
        seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def stack_sizes(cfg, out_dir, monkeypatch):
    """Runs the grid and returns how many runs each ``train`` call got."""
    import metareweight.cli as cli_mod
    real_train, sizes = cli_mod.train, []

    def spy(variants, *args, **kwargs):
        sizes.append(len(variants))
        return real_train(variants, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "train", spy)
    run_experiment(cfg, out_dir=out_dir)
    return sizes


class TestRunExperiment:
    def test_grid_completeness_and_aggregation(self, tmp_path):
        table = run_experiment(tiny_cfg(), out_dir=tmp_path)
        assert len(table.rows) == 2 * 2  # variants x (kinds x rates)
        row = cell_row(table, Variant.NOISY_MAE, NoiseKind.UNIFORM, 0.3)
        assert 0.0 <= row.final_acc_mean <= 1.0
        assert row.final_acc_std >= 0.0
        assert (tmp_path / "results.csv").is_file()
        runs = list((tmp_path / "runs").glob("*.csv"))
        assert len(runs) == 2 * 2 * 2  # rows x seeds

    def test_single_seed_zero_std(self, tmp_path):
        cfg = tiny_cfg(num_seeds=1, noise_rates=(0.3,), variants=(Variant.NOISY_MAE,))
        table = run_experiment(cfg, out_dir=tmp_path)
        (row,) = table.rows
        assert row.final_acc_std == 0.0
        assert row.num_seeds == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/results.csv").read_bytes() == \
               (tmp_path / "b/results.csv").read_bytes()
        for run_a in sorted((tmp_path / "a/runs").glob("*.csv")):
            run_b = tmp_path / "b/runs" / run_a.name
            assert run_a.read_bytes() == run_b.read_bytes()

    def test_variants_agree_at_rate_zero(self, tmp_path):
        cfg = tiny_cfg(noise_rates=(0.0,),
                       variants=(Variant.CLEAN_CE, Variant.NOISY_CE))
        table = run_experiment(cfg, out_dir=tmp_path)
        a = cell_row(table, Variant.CLEAN_CE, NoiseKind.UNIFORM, 0.0)
        b = cell_row(table, Variant.NOISY_CE, NoiseKind.UNIFORM, 0.0)
        assert a.final_acc_mean == b.final_acc_mean  # corruption is a no-op

    def test_workers_reproduce_serial_results(self, tmp_path):
        cfg = tiny_cfg()
        run_experiment(cfg, out_dir=tmp_path / "serial")
        run_experiment(tiny_cfg(workers=2), out_dir=tmp_path / "parallel")
        assert (tmp_path / "serial/results.csv").read_bytes() == \
               (tmp_path / "parallel/results.csv").read_bytes()

    def test_run_failure_names_cell(self, tmp_path, monkeypatch):
        import metareweight.cli as cli_mod

        def boom(*args, **kwargs):
            raise ValueError("exploding for the test")

        monkeypatch.setattr(cli_mod, "train", boom)
        with pytest.raises(RuntimeError, match=r"variant=clean-ce.*uniform@0\.0.*seed=0"):
            run_experiment(tiny_cfg(), out_dir=tmp_path)

    def test_first_failing_job_in_job_order_is_reported(self, tmp_path, monkeypatch):
        # Jobs run variant by variant, then cell by cell, then seed by seed.
        # Seed 0 fails at (noisy-mae, rate 0.0) and seed 1 at (clean-ce,
        # rate 0.3); the second comes first in that order, although its
        # seed group comes second.
        import metareweight.cli as cli_mod
        real_train = cli_mod.train
        cfg = tiny_cfg()
        seeds = [cli_mod._stream(cfg.seed, cli_mod._PURPOSE_TRAIN_SEED, si).seed
                 for si in range(cfg.num_seeds)]
        planted = {(Variant.NOISY_MAE, False, seeds[0]), (Variant.CLEAN_CE, True, seeds[1])}

        def flaky(variants, train_splits, meta_splits, test, train_cfg, seed):
            runs = zip(variants, train_splits)
            if any((v, bool(s.is_corrupted.any()), seed) in planted for v, s in runs):
                raise ValueError("epoch 0, step 0: planted")
            return real_train(variants, train_splits, meta_splits, test, train_cfg, seed)

        monkeypatch.setattr(cli_mod, "train", flaky)
        with pytest.raises(RuntimeError) as caught:
            run_experiment(cfg, out_dir=tmp_path)
        assert str(caught.value) == ("run failed for variant=clean-ce, noise=uniform@0.3, "
                                     "seed=1: epoch 0, step 0: planted")
        assert not (tmp_path / "results.csv").exists()


class TestDistinctRuns:
    def test_default_variants_train_five_runs_per_seed_group(self, tmp_path, monkeypatch):
        # noisy-ce at rate 0.0 is clean-ce at rate 0.0
        cfg = tiny_cfg(variants=tuple(Variant), noise_rates=(0.0, 0.4))
        assert stack_sizes(cfg, tmp_path, monkeypatch) == [5] * cfg.num_seeds
        for si in range(cfg.num_seeds):
            assert (tmp_path / f"runs/noisy-ce_uniform_0_{si}.csv").read_bytes() == \
                   (tmp_path / f"runs/clean-ce_uniform_0_{si}.csv").read_bytes()

    def test_a_diverging_shared_run_is_named_by_its_first_job(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(variants=(Variant.NOISY_CE, Variant.CLEAN_CE), noise_rates=(0.0,),
                       num_seeds=1, train=replace(tiny_cfg().train, classifier_lr=1e100))
        with pytest.raises(RuntimeError) as caught:
            stack_sizes(cfg, tmp_path, monkeypatch)
        assert str(caught.value).startswith(
            "run failed for variant=noisy-ce, noise=uniform@0.0, seed=0: epoch 0, step ")

    def test_failure_search_trains_each_distinct_run_alone_once(self, tmp_path, monkeypatch):
        # after the stack fails, the runs alone train in job order up to the
        # first that fails, noisy-mae@0.0; noisy-ce@0.0 is clean-ce@0.0
        import metareweight.cli as cli_mod
        real_train, calls = cli_mod.train, []

        def spy(variants, train_splits, *args, **kwargs):
            calls.append([f"{v.value}@{0.3 if s.is_corrupted.any() else 0.0}"
                          for v, s in zip(variants, train_splits)])
            return real_train(variants, train_splits, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "train", spy)
        cfg = tiny_cfg(variants=tuple(Variant), num_seeds=1,
                       train=replace(tiny_cfg().train, classifier_lr=1e5))
        with pytest.raises(RuntimeError) as caught:
            run_experiment(cfg, out_dir=tmp_path)
        assert str(caught.value) == (
            "run failed for variant=noisy-mae, noise=uniform@0.0, seed=0: epoch 1, step 3: "
            "classifier train-loss vector contains non-finite entries")
        assert calls == [
            ["clean-ce@0.0", "clean-ce@0.3", "noisy-ce@0.3", "noisy-mae@0.0", "noisy-mae@0.3"],
            ["clean-ce@0.0"], ["clean-ce@0.3"], ["noisy-ce@0.3"], ["noisy-mae@0.0"]]

    def test_a_stack_that_fails_where_each_run_alone_trains_gives_the_solo_reports(
            self, tmp_path, monkeypatch, capsys):
        # a stacked group can fail where its runs alone do not, e.g. when its
        # R-row temporaries do not fit in memory; the runs alone are then
        # the result, with the bytes of an unpatched run
        import metareweight.cli as cli_mod
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("clean-ce, noisy-mae", ", ".join(
            v.value for v in Variant)).replace("num_seeds = 2", "num_seeds = 1"))
        run = ["run", "--config", str(cfg_path), "--out"]
        assert main([*run, str(tmp_path / "unpatched")]) == 0
        real_train, sizes = cli_mod.train, []

        def no_memory_for_a_stack(variants, *args, **kwargs):
            sizes.append(len(variants))
            if len(variants) > 1:
                raise MemoryError("Unable to allocate the stack")
            return real_train(variants, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "train", no_memory_for_a_stack)
        assert main([*run, str(tmp_path / "solo")]) == 0
        assert sizes == [5, 1, 1, 1, 1, 1]
        files = {name: {p.relative_to(tmp_path / name): p.read_bytes()
                        for p in (tmp_path / name).rglob("*") if p.is_file()}
                 for name in ("unpatched", "solo")}
        assert len(files["solo"]) == 3 * 2 + 2  # runs, results.csv, config_resolved.cfg
        assert files["solo"] == files["unpatched"]

    def test_an_error_of_the_stacked_path_alone_propagates(self, tmp_path, monkeypatch):
        # only a divergence or an out-of-memory error starts the solo search:
        # a bug that exists only in stacked code must not hide behind the
        # correct files its runs write alone
        import metareweight.cli as cli_mod
        real_train, sizes = cli_mod.train, []

        def stacked_bug(variants, *args, **kwargs):
            sizes.append(len(variants))
            if len(variants) > 1:
                raise TypeError("a bug in the stacked path")
            return real_train(variants, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "train", stacked_bug)
        with pytest.raises(TypeError, match="a bug in the stacked path"):
            run_experiment(tiny_cfg(variants=tuple(Variant), num_seeds=1), out_dir=tmp_path)
        assert sizes == [5]
        assert not (tmp_path / "results.csv").exists()

    def test_a_value_error_of_the_stack_alone_is_a_runtime_failure(
            self, tmp_path, monkeypatch, capsys):
        # numpy reports a shape bug as ValueError; when every run alone
        # trains, the solo search has only explained the stack's error, and
        # its reports must not stand in for the stack
        import metareweight.cli as cli_mod
        real_train, sizes = cli_mod.train, []
        message = "operands could not be broadcast together with shapes (5,3) (4,3)"

        def stacked_shape_bug(variants, *args, **kwargs):
            sizes.append(len(variants))
            if len(variants) > 1:
                raise ValueError(message)
            return real_train(variants, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "train", stacked_shape_bug)
        cfg = tiny_cfg(variants=tuple(Variant), num_seeds=1)
        with pytest.raises(RuntimeError) as caught:
            run_experiment(cfg, out_dir=tmp_path / "direct")
        assert str(caught.value) == ("seed group 0 failed as a stack although each of its "
                                     f"runs trains alone: {message}")
        assert isinstance(caught.value.__cause__, ValueError)
        assert sizes == [5, 1, 1, 1, 1, 1]
        assert not (tmp_path / "direct" / "results.csv").exists()

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("clean-ce, noisy-mae", ", ".join(
            v.value for v in Variant)).replace("num_seeds = 2", "num_seeds = 1"))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"runtime failure: seed group 0 failed as a stack although each of its "
            f"runs trains alone: {message}"]
        assert not (tmp_path / "cli" / "results.csv").exists()


class TestResultCsv:
    def test_bytes_of_a_table(self):
        # header = field names in order; enums by value, floats by repr
        table = ResultTable([ResultRow(Variant.NOISY_MAE, NoiseKind.FLIP2, 0.4, 5,
                                       0.1 + 0.2, 0.0, 1.0, float("nan"), 0.5, 1e-17)])
        assert table.to_csv() == (
            "variant,noise_kind,noise_rate,num_seeds,final_acc_mean,final_acc_std,"
            "best_auc_mean,best_auc_std,final_auc_mean,final_auc_std\r\n"
            "noisy-mae,flip2,0.4,5,0.30000000000000004,0.0,1.0,nan,0.5,1e-17\r\n")


class TestRunSingle:
    def test_same_data_and_init_across_variants(self):
        # paired comparison: variants of a cell share data and classifier init
        cfg = tiny_cfg()
        a = run_single(cfg, Variant.CLEAN_CE, NoiseKind.UNIFORM, 0.0, 0, 1)
        b = run_single(cfg, Variant.NOISY_CE, NoiseKind.UNIFORM, 0.0, 0, 1)
        assert a.to_csv() == b.to_csv()

    def test_each_run_of_a_seed_group_writes_its_single_run_bytes(self, tmp_path, monkeypatch):
        # the grid trains the distinct runs of a seed index as one stack; at
        # rate 0, noisy-ce is clean-ce and both kinds are the identity, so 8
        # of the 12 runs train; every file equals its run trained alone
        cfg = tiny_cfg(variants=tuple(Variant), noise_kinds=(NoiseKind.UNIFORM, NoiseKind.FLIP2))
        assert stack_sizes(cfg, tmp_path, monkeypatch) == [8] * cfg.num_seeds
        cells = [(kind, rate) for kind in cfg.noise_kinds for rate in cfg.noise_rates]
        for variant in cfg.variants:
            for ci, (kind, rate) in enumerate(cells):
                for si in range(cfg.num_seeds):
                    path = tmp_path / "runs" / f"{variant.value}_{kind.value}_{rate:g}_{si}.csv"
                    alone = run_single(cfg, variant, kind, rate, ci, si)
                    assert path.read_bytes() == alone.to_csv().encode(), path.name


class TestCliCommands:
    def test_verify_exit_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "[FAIL]" not in out
        assert "13/13 properties passed" in out

    def test_verify_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "verify.csv"
        assert main(["verify", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "property,passed,detail"
        assert len(lines) == 14

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        results = (out_dir / "results.csv").read_text().splitlines()
        assert results[0].startswith("variant,noise_kind,noise_rate")
        assert len(results) == 1 + 4

    def test_run_bad_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[noise]\nrates = 1.5\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["0.4, 0.4", "0.1234561, 0.1234562"])
    def test_run_colliding_rates_exit_one(self, tmp_path, capsys, rates):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(f"[noise]\nrates = {rates}\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {cfg_path}: ")
        assert err.endswith(f" (at {cfg_path}:2: rates = {rates})\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rates", ["nan", "0.2, nan"])
    def test_run_nan_rate_states_the_rate_rule(self, tmp_path, capsys, rates):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(f"[noise]\nrates = {rates}\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {cfg_path}: noise rate must lie in [0, 1), got nan "
            f"(at {cfg_path}:2: rates = {rates})"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[train]\nclassifier_lr = nan\n",
                                      "[train]\nweight_decay = -5\n",
                                      "[blob]\ncluster_std = inf\n",
                                      "[noise]\nrates = 0.4\nrates = 0.2\n"])
    def test_run_bad_hyperparameter_or_repeated_key_exit_one(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {cfg_path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_bad_learning_rate_names_the_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[train]\nmeta_lr = nan\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: {cfg_path}: meta_lr must be finite and positive, got nan" in err

    def test_range_error_names_the_key_and_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[experiment]\nnum_seeds = 1\n\n[blob]\nclasses = 1\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {cfg_path}: num_classes must be >= 2, got 1 "
                       f"(at {cfg_path}:5: classes = 1)"]

    @pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999])
    def test_seed_outside_64_bits_names_the_line(self, tmp_path, capsys, seed):
        # the config check names the line before Rng would reject the seed
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"[experiment]\nnum_seeds = 1\nseed = {seed}\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {cfg_path}: seed must lie in [0, 2**64), got {seed} "
                       f"(at {cfg_path}:3: seed = {seed})"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "99999999999999999999999", "1.5",
                                      "seven"])
    @pytest.mark.parametrize("command", ["verify", "noise-matrix", "gen-data"])
    def test_seed_option_outside_64_bits_exits_one_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, command, seed):
        import metareweight.cli as cli_mod

        def never(seed):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli_mod.verify, "run_all", never)
        out = tmp_path / "out"
        args = {"verify": ["--csv", str(out)],
                "noise-matrix": ["--kind", "flip", "--rate", "0.4", "--classes", "5",
                                 "--out", str(out)],
                "gen-data": ["--out", str(out)]}[command]
        assert main([command, *args, f"--seed={seed}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"metareweight {command}: error: argument --seed: must be an integer "
            f"in [0, 2**64), got {seed!r}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_option_bounds_accepted(self, capsys, seed):
        assert main(["noise-matrix", "--kind", "flip", "--rate", "0.4", "--classes", "5",
                     "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "5"

    def test_flip2_with_two_classes_names_the_kinds_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[blob]\nclasses = 2\n\n[noise]\nkinds = flip2\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {cfg_path}: flip2 needs at least 3 classes for two "
                       f"distinct targets, got 2 (at {cfg_path}:5: kinds = flip2)"]
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_noise_matrix_stdout(self, capsys):
        assert main(["noise-matrix", "--kind", "uniform", "--rate", "0.4",
                     "--classes", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "5"
        first_row = [float(x) for x in lines[1].split(",")]
        assert first_row[0] == pytest.approx(0.68)
        assert len(lines) == 6

    def test_noise_matrix_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["noise-matrix", "--kind", "flip2", "--rate", "0.4",
                "--classes", "5", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_matrix_file_equals_stdout(self, tmp_path, capsys):
        args = ["noise-matrix", "--kind", "flip", "--rate", "0.3", "--classes", "4"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / "m.csv")]) == 0
        assert (tmp_path / "m.csv").read_bytes() == printed.encode()

    def test_gen_data_writes_splits(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--classes", "3",
                     "--n-train", "30", "--n-meta", "6", "--n-test", "9",
                     "--noise-kind", "uniform", "--noise-rate", "0.3"]) == 0
        for name in ("train.csv", "meta.csv", "test.csv",
                     "train_corrupted.csv", "meta_corrupted.csv"):
            assert (out / name).is_file()
        rows = (out / "train_corrupted.csv").read_text().splitlines()
        assert rows[0] == "3,20" and len(rows) == 1 + 30
        assert all(len(r.split(",")) == 20 + 3 for r in rows[1:])

    def test_gen_data_corruption_streams_are_not_data_streams(self, tmp_path, monkeypatch,
                                                             capsys):
        # make_blobs draws the class means and the three splits from
        # Rng(seed).spawn(1..4); a corruption stream among them would make
        # the corrupted labels a function of the features
        import metareweight.cli as cli_mod
        from metareweight.numkit import Rng
        real_corrupt, streams = cli_mod.corrupt, []

        def spy(dataset, matrix, rng):
            streams.append(rng.seed)
            return real_corrupt(dataset, matrix, rng)

        monkeypatch.setattr(cli_mod, "corrupt", spy)
        for seed in range(20):
            streams.clear()
            assert main(["gen-data", "--out", str(tmp_path / str(seed)), "--classes", "3",
                         "--dim", "2", "--n-train", "8", "--n-meta", "4", "--n-test", "4",
                         "--seed", str(seed), "--noise-kind", "uniform",
                         "--noise-rate", "0.3"]) == 0
            data_streams = {Rng(seed).spawn(k).seed for k in range(1, 5)}
            assert len(streams) == 2 and len(set(streams)) == 2
            assert data_streams.isdisjoint(streams)
        capsys.readouterr()

    def test_unusable_run_output_fails_before_training(self, tmp_path, monkeypatch, capsys):
        import metareweight.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(cli_mod, "train", never)
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "file" / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_unusable_verify_csv_fails_before_the_suite(self, tmp_path, monkeypatch, capsys):
        import metareweight.cli as cli_mod

        def never(seed):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli_mod.verify, "run_all", never)
        (tmp_path / "file").write_text("")
        assert main(["verify", "--csv", str(tmp_path / "file" / "v.csv")]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("noise, message", [
        (["--noise-rate", "0.4"], "--noise-rate needs --noise-kind"),
        (["--noise-kind", "uniform", "--noise-rate", "1.5"],
         "--noise-rate: noise rate must lie in [0, 1), got 1.5")])
    def test_gen_data_bad_noise_writes_nothing(self, tmp_path, capsys, noise, message):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), *noise]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["noise-matrix", "--kind", "uniform", "--rate", "1.5", "--classes", "5"],
         "error: --rate: noise rate must lie in [0, 1), got 1.5"),
        (["noise-matrix", "--kind", "uniform", "--rate", "0.4", "--classes", "1"],
         "error: --classes: num_classes must be >= 2, got 1"),
        (["noise-matrix", "--kind", "flip2", "--rate", "0.4", "--classes", "2"],
         "error: --kind: flip2 needs at least 3 classes for two distinct targets, got 2"),
        (["gen-data", "--noise-kind", "uniform", "--noise-rate", "1.5"],
         "error: --noise-rate: noise rate must lie in [0, 1), got 1.5"),
        (["gen-data", "--classes", "2", "--noise-kind", "flip2", "--noise-rate", "0.2"],
         "error: --noise-kind: flip2 needs at least 3 classes for two distinct targets, got 2")])
    def test_a_rejected_noise_spec_names_the_option(self, tmp_path, capsys, argv, line):
        # the option that set the field, as the command spells it
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line] and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("sizes, option, field", [
        (["--classes", "30000", "--dim", "1"], "--classes", "num_classes"),
        (["--classes", "3", "--dim", str(10**12)], "--dim", "dim"),
        (["--dim", str(10**9)], "--dim", "dim"),
        (["--n-train", str(10**12)], "--n-train", "n_train"),
        (["--n-meta", str(10**12)], "--n-meta", "n_meta"),
        (["--n-test", str(10**12)], "--n-test", "n_test")])
    def test_gen_data_beyond_memory_fails_before_drawing(self, tmp_path, monkeypatch, capsys,
                                                          sizes, option, field):
        import metareweight.cli as cli_mod
        import metareweight.numkit as numkit_mod

        def never(spec):
            raise AssertionError("make_blobs was called")

        # an 8 GiB host, so the sizes fail alike everywhere
        monkeypatch.setattr(numkit_mod.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}.__getitem__)
        monkeypatch.setattr(cli_mod, "make_blobs", never)
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), *sizes]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {option}: {field} is too large: drawing the data ")
        assert err[0].endswith("GiB of physical memory")
        assert not out.exists()

    @pytest.mark.parametrize("args, spec", [
        ([], BlobSpec()),
        (["--classes", "3", "--dim", "2", "--n-train", "8", "--n-meta", "4", "--n-test", "5",
          "--separation", "2.5", "--cluster-std", "0.5", "--seed", "7"],
         BlobSpec(3, 2, 8, 4, 5, 2.5, 0.5, seed=7))])
    def test_gen_data_options_set_the_blob_spec(self, tmp_path, monkeypatch, capsys, args,
                                                spec):
        # each [blob] key is an option that sets its field, and the rest keep
        # the spec's defaults
        import metareweight.cli as cli_mod
        drawn = []

        def stop(blob):
            drawn.append(blob)
            raise RuntimeError("stop before drawing")

        monkeypatch.setattr(cli_mod, "make_blobs", stop)
        assert main(["gen-data", "--out", str(tmp_path / "data"), *args]) == 3
        assert drawn == [spec]
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["--classes", "1"], ["--dim", "0"], ["--n-train", "0"], ["--n-meta", "0"],
        ["--n-test", "0"], ["--separation", "0"], ["--cluster-std", "nan"],
        ["--classes", "1", "--noise-kind", "uniform"]])
    def test_gen_data_bad_size_names_its_option(self, tmp_path, capsys, args):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), *args]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {args[0]}: "), err
        assert captured.out == "" and not out.exists()

    def test_run_warns_once_per_heavy_noise_cell(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("kinds = uniform\nrates = 0.0, 0.3",
                                                  "kinds = flip\nrates = 0.2, 0.5"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            HEAVY_FLIP_WARNING]
        assert (out / "results.csv").is_file()

    @pytest.mark.parametrize("kind, rate, expected", [
        ("flip", "0.5", [HEAVY_FLIP_WARNING]), ("uniform", "0.9", [])])
    def test_noise_matrix_warns_only_of_heavy_noise(self, capsys, kind, rate, expected):
        assert main(["noise-matrix", "--kind", kind, "--rate", rate, "--classes", "3"]) == 0
        assert capsys.readouterr().err.splitlines() == expected

    def test_noise_matrix_beyond_memory_fails_before_building(self, tmp_path, monkeypatch,
                                                              capsys):
        import tracemalloc

        import metareweight.numkit as numkit_mod

        # an 8 GiB host, so the size fails alike everywhere
        monkeypatch.setattr(numkit_mod.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}.__getitem__)
        out = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            code = main(["noise-matrix", "--kind", "uniform", "--rate", "0.4",
                         "--classes", "30000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2 ** 20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --classes: ") and "GiB of physical memory" in err[0]
        assert not out.exists()

    def test_noise_matrix_memory_bound_is_below_the_peak(self, tmp_path, monkeypatch):
        # the check is a lower bound: a matrix it lets through may still not
        # fit, but one it rejects could never have been written
        import tracemalloc

        import metareweight.cli as cli_mod
        real_check, needs = cli_mod.check_fits, []

        def spy(need, *args):
            needs.append(need)
            return real_check(need, *args)

        monkeypatch.setattr(cli_mod, "check_fits", spy)
        tracemalloc.start()
        try:
            assert main(["noise-matrix", "--kind", "uniform", "--rate", "0.4",
                         "--classes", "1000", "--out", str(tmp_path / "m.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(needs) == 1 and 0 < needs[0] < peak

    def test_verify_failure_exit_two(self, monkeypatch, capsys):
        import metareweight.cli as cli_mod
        from metareweight.verify import PropertyResult

        monkeypatch.setattr(cli_mod.verify, "run_all",
                            lambda seed: [PropertyResult("stub", False, "forced")])
        assert main(["verify"]) == 2
        assert "[FAIL] stub" in capsys.readouterr().out

    # A huge classifier_lr moves the virtual point so far that the meta pass
    # overflows there; a huge meta_lr overflows the weighting update.
    @pytest.mark.parametrize("setting", ["classifier_lr = 1e100", "meta_lr = 1e200"])
    def test_diverging_run_exit_three_names_epoch_and_step(self, tmp_path, capsys, setting):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("[train]", f"[train]\n{setting}"))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 3
        vector = {"classifier_lr = 1e100": "meta-gradient at the virtual point",
                  "meta_lr = 1e200": "weighting-net parameter vector"}[setting]
        assert ("runtime failure: run failed for variant=clean-ce, noise=uniform@0.0, "
                f"seed=0: epoch 0, step 1: {vector} contains "
                "non-finite entries") in capsys.readouterr().err

    def test_diverging_classifier_is_named_by_its_losses(self, tmp_path, capsys):
        # finite parameters that overflow the classifier's forward pass make
        # its train losses non-finite before any vector check fails
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("[train]", "[train]\nclassifier_lr = 1e5"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
        assert ("runtime failure: run failed for variant=noisy-mae, noise=uniform@0.0, "
                "seed=0: epoch 1, step 3: classifier train-loss vector contains "
                "non-finite entries") in capsys.readouterr().err

    def test_diverging_run_prints_one_line_and_no_warnings(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("[train]", "[train]\nclassifier_lr = 1e100"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime failure: ")

    def test_overflowing_features_exit_one_without_warning(self, tmp_path, capsys):
        # features near 1e300 overflow the train split's standard deviation;
        # that must stop the run, not standardize every feature to 0
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT.replace("separation = 5.0", "separation = 1e300"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: train features overflow")
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_out_of_memory_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a huge class count makes the dense K x K transition matrix fail to
        # allocate; that allocation is replaced here by its MemoryError
        import metareweight.noise as noise_mod

        def no_memory(spec):
            raise MemoryError(f"Unable to allocate the {spec.num_classes}-class matrix")

        monkeypatch.setattr(noise_mod, "build_transition", no_memory)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["runtime failure: Unable to allocate the 3-class matrix"]
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_runtime_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        import metareweight.cli as cli_mod

        def boom(*args, **kwargs):
            raise ValueError("no luck")

        monkeypatch.setattr(cli_mod, "train", boom)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CFG_TEXT)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "runtime failure" in capsys.readouterr().err


def test_import_leaves_the_process_pool_out():
    # Only a multi-worker run needs concurrent.futures and multiprocessing.
    code = ("import sys, metareweight.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out == "[]\n"


# What a fuzzed `run` config may set each key to: values that keep a run
# tiny, junk that the parser must reject or that stays tiny when it parses,
# and, for the keys whose huge values the config rejects before anything is
# allocated, a huge count.  Every case sets each key whose default would
# make the run large; the mutations can only break such a line, never drop
# or enlarge it.
_HUGE = "1" + "0" * 30
_JUNK = ["", "nan", "inf", "-inf", "-1", "0", "abc", "1e400", "-0.0", "1,,2", "\u00bd"]


def _list_of(names):
    return st.lists(st.sampled_from(names), min_size=1, max_size=3).map(", ".join)


_FUZZ_KEYS = {
    "blob": {
        "classes": st.integers(2, 4).map(str),
        "dim": st.integers(1, 3).map(str),
        "n_train": st.integers(1, 8).map(str),
        "n_meta": st.integers(1, 8).map(str),
        "n_test": st.integers(1, 8).map(str),
        "separation": st.sampled_from(["3.0", "1e-300", "1e300"]),
        "cluster_std": st.sampled_from(["1.0", "1e-300", "1e300"]),
    },
    "noise": {
        "kinds": _list_of([k.value for k in NoiseKind] + ["FLIP"]),
        "rates": _list_of(["0.0", "0.4", "0.9", "-0.0", "0.1234561", "0.1234562"]),
    },
    "train": {
        "train_batch": st.integers(1, 8).map(str),
        "meta_batch": st.integers(1, 8).map(str),
        "classifier_lr": st.sampled_from(["0.05", "1e5", "1e300"]),
        "meta_lr": st.sampled_from(["0.001", "1e200"]),
        "momentum": st.sampled_from(["0.9", "0"]),
        "weight_decay": st.sampled_from(["0.0005", "1e300"]),
        "epochs": st.just("1"),
        "lr_milestones": st.sampled_from(["", "0", "0, 1", "1, 0"]),
    },
    "experiment": {
        "variants": _list_of([v.value for v in Variant]),
        "num_seeds": st.just("1"),
        "seed": st.integers(0, 2**64 - 1).map(str),
        "output_dir": st.sampled_from(["out", "o#x"]),
        "workers": st.just("1"),
    },
}
_REQUIRED = {"classes", "dim", "n_train", "n_meta", "n_test", "train_batch", "meta_batch",
             "epochs", "num_seeds", "workers"}
_HUGE_KEYS = ("classes", "dim", "n_train", "n_meta", "n_test", "meta_batch", "seed")
_STRAY_LINES = ["[nonsense]", "[BLOB]", "[train", "garbage", "= 3", "bogus = 1", "# note",
                "epochs = 1", "dim = 2"]


@st.composite
def fuzzed_config_texts(draw):
    lines = []
    for section, keys in _FUZZ_KEYS.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {draw(values)}" for key, values in keys.items()
                  if key in _REQUIRED or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["junk", "huge", "insert", "repeat", "move"]))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines)))
        key = lines[i].split(" = ")[0]
        if mutation == "junk" and key != lines[i]:
            lines[i] = f"{key} = {draw(st.sampled_from(_JUNK))}"
        elif mutation == "huge" and key in _HUGE_KEYS:
            lines[i] = f"{key} = {_HUGE}"
        elif mutation == "insert":
            lines.insert(j, draw(st.sampled_from(_STRAY_LINES)))
        elif mutation == "repeat":
            lines.insert(j, lines[i])
        elif mutation == "move":
            lines.insert(j, lines.pop(i))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(fuzzed_config_texts())
def test_fuzzed_run_configs_end_in_a_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "o"
        cfg_path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith("warning: ")]
        prefix = {0: None, 1: ("config error: ", "error: "), 3: ("runtime failure: ",)}[code]
        if prefix is None:
            assert lines == []
            cfg = parse_config(cfg_path)
            cells = len(cfg.variants) * len(cfg.noise_kinds) * len(cfg.noise_rates)
            assert len((out / "results.csv").read_text().splitlines()) == 1 + cells
        else:
            assert len(lines) == 1 and lines[0].startswith(prefix), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not (out / "results.csv").exists()


# What the other subcommands' fuzzed options may take: tiny sizes and the
# junk of the `run` fuzz above, never a size beyond a few rows, so no case
# allocates much.  "{out}" stands for a fresh directory, in which "f" is a
# file, so "{out}/f/o" cannot be created.
_SIZES = ["1", "2", "3", "8"]
_SEED_VALUES = st.one_of(st.integers(0, 2**64 - 1).map(str), st.sampled_from(_JUNK))
_KINDS = [k.value for k in NoiseKind] + ["FLIP", "none"]
_RATES = ["0.0", "0.3", "0.6", "0.99", "-0.0", "1.0"]
_ARGV_OPTIONS = {
    "noise-matrix": {
        "--kind": st.sampled_from(_KINDS),
        "--rate": st.sampled_from(_RATES),
        "--classes": st.sampled_from(["2", "3", "5"]),
        "--seed": _SEED_VALUES,
        "--out": st.sampled_from(["{out}/m.csv", "{out}/missing/m.csv", "{out}/f/m.csv"]),
    },
    "gen-data": {
        "--out": st.sampled_from(["{out}/o", "{out}/f/o"]),
        "--classes": st.sampled_from(["2", "3", "5"]),
        "--dim": st.sampled_from(_SIZES),
        "--n-train": st.sampled_from(_SIZES),
        "--n-meta": st.sampled_from(_SIZES),
        "--n-test": st.sampled_from(_SIZES),
        "--separation": st.sampled_from(["3.0", "1e-300", "1e300"]),
        "--cluster-std": st.sampled_from(["1.0", "1e-300", "1e300"]),
        "--seed": _SEED_VALUES,
        "--standardize": None,
        "--noise-kind": st.sampled_from(_KINDS),
        "--noise-rate": st.sampled_from(_RATES),
    },
}
# Options every case sets: those whose absence is a usage error, and the
# sizes, whose defaults are thousands of rows.  A mutation may still drop
# or break them.
_KEPT = {"--kind", "--rate", "--classes", "--out", "--dim", "--n-train", "--n-meta",
         "--n-test"}
_STRAY_ARGS = ["--bogus=1", "extra", "-x", "--", "--seed", "--standardize=1", "--rate"]


@st.composite
def fuzzed_argvs(draw, command):
    """argv of ``command``: each option as ``--name=value`` (a flag bare),
    those in ``_KEPT`` always and the others when drawn, then up to two
    mutations that break a value, drop, insert, repeat or move an
    argument.  An ``--out`` value is never broken: a junk path would name a
    file in the working directory."""
    args = [name if values is None else f"{name}={draw(values)}"
            for name, values in _ARGV_OPTIONS[command].items()
            if name in _KEPT or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["junk", "drop", "insert", "repeat", "move"]))
        if mutation == "insert" or not args:
            args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(_STRAY_ARGS)))
            continue
        i = draw(st.integers(0, len(args) - 1))
        if mutation == "junk" and not args[i].startswith("--out="):  # junk paths are relative
            args[i] = f"{args[i].split('=')[0]}={draw(st.sampled_from(_JUNK))}"
        elif mutation == "drop":
            del args[i]
        elif mutation == "repeat":
            args.insert(draw(st.integers(0, len(args))), args[i])
        else:
            args.insert(draw(st.integers(0, len(args) - 1)), args.pop(i))
    return [command, *args]


def run_fuzzed(argv):
    """(exit code, stdout) of ``main``, after asserting that it raised no
    warning and printed no traceback, and that a failure ends in one error
    line, after argparse's usage lines when the parser rejected the argv.
    An error line that names an option names one the argv gives."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(out):
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == [], [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    assert code in (0, 1), err.getvalue()
    if code == 1:
        # argparse names the subcommand, or only the program for an
        # argument that no parser takes
        parser_error = (f"metareweight {argv[0]}: error: ", "metareweight: error: ")
        *usage, last = lines
        assert last.startswith(("error: ", *parser_error)), err.getvalue()
        assert all(line.startswith(("usage: ", " ")) for line in usage), err.getvalue()
        assert usage == [] or last.startswith(parser_error)
        named = re.match(r"error: (\S+): ", last)
        assert not named or any(arg.split("=")[0] == named[1] for arg in argv), err.getvalue()
    else:
        assert lines == []
    return code, out.getvalue()


def _effective_out(argv, out):
    """The file or directory ``--out`` names in a parsed ``argv``: argparse
    keeps the last."""
    given = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--out=")]
    return Path(given[-1].format(out=out)) if given else None


def _with_fresh_out(argv, tmp):
    (Path(tmp) / "f").write_text("")
    return [arg.format(out=tmp) if arg.startswith("--out=") else arg for arg in argv]


@settings(max_examples=60, deadline=None)
@given(fuzzed_argvs("noise-matrix"))
def test_fuzzed_noise_matrix_argv_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = run_fuzzed(_with_fresh_out(argv, tmp))
        target = _effective_out(argv, tmp)
        if code == 1:
            assert stdout == ""
            assert target is None or not target.exists()
            return
        text = target.read_text() if target is not None else stdout
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()]
        k = int(rows[0][0])
        assert len(rows) == 1 + k and all(len(row) == k for row in rows[1:])
        assert np.allclose(np.sum(rows[1:], axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(fuzzed_argvs("gen-data"))
def test_fuzzed_gen_data_argv_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = run_fuzzed(_with_fresh_out(argv, tmp))
        target = _effective_out(argv, tmp)
        if code == 1:
            assert stdout == ""
            assert target is None or not target.exists()
            return
        assert stdout == f"wrote datasets to {target}\n"
        assert {"train.csv", "meta.csv", "test.csv"} <= {p.name for p in target.iterdir()}


def _is_seed(text):
    try:
        return 0 <= int(text) < 2**64
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)).map(str)
       | st.text(max_size=12).filter(lambda text: not _is_seed(text)))
def test_malformed_verify_seed_exits_one_before_the_suite(seed):
    import metareweight.cli as cli_mod

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli_mod.verify, "run_all", side_effect=AssertionError("ran")):
        csv_path = Path(tmp) / "verify.csv"
        code, stdout = run_fuzzed(["verify", f"--seed={seed}", "--csv", str(csv_path)])
        assert code == 1 and stdout == ""
        assert not csv_path.exists()
