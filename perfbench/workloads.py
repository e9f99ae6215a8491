"""The benchmark's workloads: inputs built from a seed, one pass, output checks.

Each workload is a class.  Constructing it is the set-up (import and input
building, timed as ``setup_s``); ``run_pass`` is one closed-loop call into
the program that returns an exit code; ``check`` returns named pass/fail
results for the files the pass wrote; ``quality`` returns the two result
numbers the benchmark reports; ``work`` is the pass's unit count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

from metareweight import cli, verify
from metareweight.bilevel import Variant
from metareweight.config import ExperimentConfig, parse_config
from metareweight.noise import NoiseKind

MIN_GRID_AUC = 0.90


def digest(out_dir: Path) -> str:
    """sha256 over every file a pass wrote, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(*values: str) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in values)
    except (TypeError, ValueError):
        return False


def _cli_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_run_csv(path: Path, epochs: int) -> bool:
    """A per-run report with one row per epoch and a finite accuracy in [0, 1]."""
    if not path.is_file():
        return False
    rows = _read_rows(path)
    return (len(rows) == epochs
            and all(_finite(r["test_accuracy"]) and 0.0 <= float(r["test_accuracy"]) <= 1.0
                    for r in rows))


def check_grid_output(out_dir: Path, cfg: ExperimentConfig, rc: int,
                      min_auc: float = MIN_GRID_AUC) -> list[tuple[str, bool]]:
    """Checks on the files one ``metareweight run`` wrote to ``out_dir``."""
    checks = [("exit code 0", rc == 0)]
    results = out_dir / "results.csv"
    if not results.is_file():
        return checks + [("results.csv present", False)]
    rows = _read_rows(results)
    expected = {(v.value, k.value, r)
                for v in cfg.variants for k in cfg.noise_kinds for r in cfg.noise_rates}
    try:
        keys = [(r["variant"], r["noise_kind"], float(r["noise_rate"])) for r in rows]
    except (KeyError, TypeError, ValueError):
        keys = []
    checks.append(("one results.csv row per (variant, rate)",
                   len(keys) == len(expected) and set(keys) == expected))
    checks.append(("results.csv accuracies finite",
                   bool(rows) and all(_finite(r.get("final_acc_mean")) for r in rows)))
    for v in cfg.variants:
        for k in cfg.noise_kinds:
            for rate in cfg.noise_rates:
                for si in range(cfg.num_seeds):
                    name = f"runs/{v.value}_{k.value}_{rate:g}_{si}.csv"
                    checks.append((name, _check_run_csv(out_dir / name, cfg.train.epochs)))
    robust = [r for r, key in zip(rows, keys)
              if key == (Variant.NOISY_MAE.value, NoiseKind.UNIFORM.value, 0.4)]
    checks.append((f"noisy-mae best AUC >= {min_auc} at rate 0.4",
                   len(robust) == 1 and _finite(robust[0]["best_auc_mean"])
                   and float(robust[0]["best_auc_mean"]) >= min_auc))
    return checks


class Grid:
    """``metareweight run`` in-process on the default grid's shape, made short."""

    CONFIG = """\
[blob]
n_train = 2000
n_meta = 200
n_test = 2000

[noise]
kinds = uniform
rates = 0.0, 0.4

[train]
train_batch = 100
meta_batch = 100
epochs = 5

[experiment]
variants = clean-ce, noisy-ce, noisy-mae
num_seeds = 2
seed = {seed}
workers = 1
"""

    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "grid.cfg"
        self.config_path.write_text(self.CONFIG.format(seed=seed))
        self.cfg = parse_config(self.config_path)

    def work(self, out_dir: Path) -> int:
        """Bilevel steps in one pass, from the configuration."""
        c = self.cfg
        runs = len(c.variants) * len(c.noise_kinds) * len(c.noise_rates) * c.num_seeds
        return runs * c.train.epochs * math.ceil(c.blob.n_train / c.train.train_batch)

    def run_pass(self, out_dir: Path) -> int:
        return _cli_main(["run", "--config", str(self.config_path), "--out", str(out_dir)])

    def check(self, out_dir: Path, rc: int) -> list[tuple[str, bool]]:
        return check_grid_output(out_dir, self.cfg, rc)

    def quality(self, out_dir: Path) -> tuple[float, float]:
        for r in _read_rows(out_dir / "results.csv"):
            if (r["variant"], float(r["noise_rate"])) == (Variant.NOISY_MAE.value, 0.4):
                return float(r["final_acc_mean"]), float(r["best_auc_mean"])
        raise ValueError("results.csv has no noisy-mae row at rate 0.4")


class TrainWide:
    """One wide noisy-mae run under flip2 noise through ``cli.run_single``."""

    def __init__(self, seed: int, workdir: Path):
        base = ExperimentConfig(seed=seed)
        self.cfg = replace(
            base,
            blob=replace(base.blob, n_train=20000, n_test=5000),
            train=replace(base.train, train_batch=1000, meta_batch=500, epochs=8))

    def work(self, out_dir: Path) -> int:
        t = self.cfg.train
        return t.epochs * math.ceil(self.cfg.blob.n_train / t.train_batch)

    def run_pass(self, out_dir: Path) -> int:
        report = cli.run_single(self.cfg, Variant.NOISY_MAE, NoiseKind.FLIP2, 0.4,
                                cell_index=0, seed_index=0)
        report.save_csv(out_dir / "run.csv")
        return 0

    def check(self, out_dir: Path, rc: int) -> list[tuple[str, bool]]:
        path = out_dir / "run.csv"
        if not path.is_file():
            return [("run.csv present", False)]
        rows = _read_rows(path)
        fields = ("test_accuracy", "train_auc", "mean_weight_clean", "mean_weight_corrupt")
        return [
            ("one row per epoch", len(rows) == self.cfg.train.epochs),
            ("metrics finite", bool(rows) and all(_finite(*(r[f] for f in fields)) for r in rows)),
            ("final accuracy above 1/K",
             bool(rows) and float(rows[-1]["test_accuracy"]) > 1.0 / self.cfg.blob.num_classes),
        ]

    def quality(self, out_dir: Path) -> tuple[float, float]:
        rows = _read_rows(out_dir / "run.csv")
        return float(rows[-1]["test_accuracy"]), max(float(r["train_auc"]) for r in rows)


class Verify:
    """``metareweight verify`` in-process, at the suite's own default seed.

    The suite is calibrated at that seed.  At other seeds its
    noise-corruption-frequencies property (every one of 40 observed label
    frequencies within 3 standard errors) fails on about 7% of seeds although
    the sampler is unbiased, so the workload seed does not reach this workload.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = verify.DEFAULT_VERIFY_SEED

    def work(self, out_dir: Path) -> int:
        """Verification properties checked in one pass."""
        return len(_read_rows(out_dir / "verify.csv"))

    def run_pass(self, out_dir: Path) -> int:
        return _cli_main(["verify", "--seed", str(self.seed),
                          "--csv", str(out_dir / "verify.csv")])

    def check(self, out_dir: Path, rc: int) -> list[tuple[str, bool]]:
        path = out_dir / "verify.csv"
        rows = _read_rows(path) if path.is_file() else []
        return [("exit code 0", rc == 0),
                ("N/N properties pass", bool(rows) and all(r["passed"] == "1" for r in rows))]

    def quality(self, out_dir: Path) -> tuple[float, float]:
        rows = _read_rows(out_dir / "verify.csv")
        share = sum(r["passed"] == "1" for r in rows) / len(rows)
        return share, share


WORKLOADS = {"grid": Grid, "train-wide": TrainWide, "verify": Verify}
