"""Command-line experiment orchestration.

Subcommands::

    run           train the variant x noise grid from a config file and
                  emit aggregate + per-run CSV reports
    verify        run the theory verification suite (exit 2 on failure)
    noise-matrix  emit one transition matrix as CSV
    gen-data      emit synthetic dataset splits as CSV

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 runtime failure.  Identical configs and seeds reproduce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import verify
from .bilevel import RunReport, Variant, train
from .config import (_SCHEMA, ConfigError, ExperimentConfig, parse_config, rate_label,
                     serialize_config)
from .data import (BlobSpec, csv_text, dataclass_csv, make_blobs, save_dataset,
                   standardize)
from .noise import NoiseKind, NoiseSpec, build_transition, corrupt, majority_feasibility
from .numkit import FieldError, Rng, check_fits

# Purposes for deriving per-run random streams from the experiment seed.
# Chained spawns (purpose -> seed index -> cell index) cannot collide the
# way flat id arithmetic could for large grids.
_PURPOSE_DATA = 1
_PURPOSE_NOISE_MODEL = 2
_PURPOSE_TRAIN_CORRUPT = 3
_PURPOSE_META_CORRUPT = 4
_PURPOSE_TRAIN_SEED = 5


def _stream(experiment_seed: int, purpose: int, *ids: int) -> Rng:
    rng = Rng(experiment_seed).spawn(purpose)
    for i in ids:
        rng = rng.spawn(i)
    return rng


@dataclass
class ResultRow:
    variant: Variant
    noise_kind: NoiseKind
    noise_rate: float
    num_seeds: int
    final_acc_mean: float
    final_acc_std: float
    best_auc_mean: float
    best_auc_std: float
    final_auc_mean: float
    final_auc_std: float


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return dataclass_csv(ResultRow, self.rows)


def _corrupted(bundle, matrix, experiment_seed: int, seed_index: int, cell_index: int):
    """``bundle``'s train and meta splits corrupted through ``matrix`` by
    the two streams ``run`` gives the noise cell ``cell_index`` of seed
    group ``seed_index``."""
    return (corrupt(bundle.train, matrix, _stream(experiment_seed, _PURPOSE_TRAIN_CORRUPT,
                                                  seed_index, cell_index)),
            corrupt(bundle.meta, matrix, _stream(experiment_seed, _PURPOSE_META_CORRUPT,
                                                 seed_index, cell_index)))


def _splits(cfg: ExperimentConfig, seed_index: int, runs):
    """The test split and each run's (train, meta) splits, for ``runs`` of
    one seed index given as ``(variant, kind, rate, cell_index)``: the data
    is drawn and standardized once and corrupted once per noise cell, and
    clean-ce keeps the clean meta split."""
    blob = replace(cfg.blob, seed=_stream(cfg.seed, _PURPOSE_DATA, seed_index).seed)
    bundle = standardize(make_blobs(blob))
    corrupted = {}
    for _, kind, rate, ci in runs:
        if ci not in corrupted:
            spec = NoiseSpec(kind, rate, blob.num_classes,
                             seed=_stream(cfg.seed, _PURPOSE_NOISE_MODEL, seed_index, ci).seed)
            corrupted[ci] = _corrupted(bundle, build_transition(spec), cfg.seed, seed_index, ci)
    return bundle.test, [(corrupted[ci][0], corrupted[ci][1] if variant.meta_is_noisy
                          else bundle.meta) for variant, _, _, ci in runs]


def run_single(cfg: ExperimentConfig, variant: Variant, kind: NoiseKind,
               rate: float, cell_index: int, seed_index: int) -> RunReport:
    """One fully deterministic training run of a grid cell.

    Data generation and corruption seeds depend only on the experiment
    seed, the seed index, and the noise cell -- never on the variant -- so
    all variants of a cell see identical data, identical corruption, and
    identical network initialization (paired comparison).  A grid trains
    every run of a seed index together; each gets the bits of this call.
    """
    test, [(train_split, meta_split)] = _splits(cfg, seed_index,
                                                [(variant, kind, rate, cell_index)])
    return train([variant], [train_split], [meta_split], test, cfg.train,
                 seed=_stream(cfg.seed, _PURPOSE_TRAIN_SEED, seed_index).seed)[0]


def _run_seed(cfg: ExperimentConfig, runs, seed_index: int) -> list[RunReport]:
    """Every run of one seed index, trained in lockstep: one report per
    entry of ``runs``.  Runs with the same meta loss, train labels and meta
    labels (at rate 0, noisy-ce is clean-ce) train once, as the first of
    them in job order.  The stacked call gives the result.  If it raises
    ``ValueError`` or ``MemoryError``, the distinct runs train alone, in job
    order, only to name the first that fails, in a ``RuntimeError``.  If
    none fails, their reports stand in for an out-of-memory stack, but a
    ``ValueError`` no run raises alone is a bug (each row has its run's
    bits alone), raised as a ``RuntimeError`` naming the seed group."""
    test, splits = _splits(cfg, seed_index, runs)
    seed = _stream(cfg.seed, _PURPOSE_TRAIN_SEED, seed_index).seed
    keys = [(run[0].meta_loss, train_split.labels.tobytes(), meta_split.labels.tobytes())
            for run, (train_split, meta_split) in zip(runs, splits)]
    firsts = [keys.index(key) for key in keys]
    distinct = sorted(set(firsts))
    try:
        reports = train([runs[i][0] for i in distinct], *zip(*(splits[i] for i in distinct)),
                        test, cfg.train, seed=seed)
    except (ValueError, MemoryError) as stack_error:
        reports = []
        for i in distinct:
            variant, kind, rate, _ = runs[i]
            try:
                reports += train([variant], [splits[i][0]], [splits[i][1]], test, cfg.train,
                                 seed=seed)
            except (ValueError, MemoryError) as exc:
                raise RuntimeError(f"run failed for variant={variant.value}, "
                                   f"noise={kind.value}@{rate}, seed={seed_index}: "
                                   f"{exc}") from exc
        if isinstance(stack_error, ValueError):
            raise RuntimeError(f"seed group {seed_index} failed as a stack although each "
                               f"of its runs trains alone: {stack_error}") from stack_error
    return [reports[distinct.index(i)] for i in firsts]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ResultTable:
    """Execute the full grid, aggregate over seeds, and write CSV reports.
    One job per seed index trains its distinct runs in lockstep; ``runs``
    lists a seed index's runs variant by variant, then cell by cell.  The
    jobs take at most one process per seed group and per usable CPU, and
    the failure of the first failing seed group, in seed order, is raised."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)  # before training: a bad path fails fast
    cells = [(kind, rate) for kind in cfg.noise_kinds for rate in cfg.noise_rates]
    runs = [(variant, kind, rate, ci) for variant in cfg.variants
            for ci, (kind, rate) in enumerate(cells)]
    jobs = (repeat(cfg), repeat(runs), range(cfg.num_seeds))
    workers = min(cfg.workers, cfg.num_seeds, len(os.sched_getaffinity(0)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # single-worker runs skip its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_seed, *jobs))
    else:
        outcomes = list(map(_run_seed, *jobs))

    table = ResultTable()
    for ri, (variant, kind, rate, _) in enumerate(runs):
        reports = [seed_reports[ri] for seed_reports in outcomes]
        for si, rep in enumerate(reports):
            rep.save_csv(runs_dir / f"{variant.value}_{kind.value}_{rate_label(rate)}_{si}.csv")
        accs = np.array([r.final_accuracy for r in reports])
        best = np.array([r.best_auc for r in reports])
        final = np.array([r.final_auc for r in reports])
        table.rows.append(ResultRow(
            variant, kind, rate, cfg.num_seeds,
            float(accs.mean()), float(accs.std()),
            float(best.mean()), float(best.std()),
            float(final.mean()), float(final.std())))

    (out / "results.csv").write_text(table.to_csv())
    (out / "config_resolved.cfg").write_text(serialize_config(cfg))
    return table


# -- subcommands --------------------------------------------------------------


def _warn_if_infeasible(spec: NoiseSpec) -> None:
    """The heavy-noise warning on stderr, if ``majority_feasibility`` flags ``spec``."""
    if majority_feasibility(spec) == "warning":
        print(f"warning: {spec.kind.value} noise at rate {spec.rate} "
              "makes some corrupted class the majority; learning may be infeasible",
              file=sys.stderr)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    for kind in cfg.noise_kinds:
        for rate in cfg.noise_rates:
            _warn_if_infeasible(NoiseSpec(kind, rate, cfg.blob.num_classes))
    table = run_experiment(cfg, out_dir=args.out)
    out = Path(args.out if args.out is not None else cfg.output_dir)
    print(f"wrote {out / 'results.csv'} ({len(table.rows)} grid cells, "
          f"{cfg.num_seeds} seeds each)")
    return 0


def _cmd_verify(args) -> int:
    # The CSV opens first, so that a path that cannot be written fails fast.
    with open(args.csv, "w", newline="") if args.csv else nullcontext() as fh:
        results = verify.run_all(args.seed)
        for r in results:
            print(f"[{'ok' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        if fh:
            fh.write(csv_text([["property", "passed", "detail"],
                               *([r.name, int(r.passed), r.detail] for r in results)]))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return 0 if not failed else 2


def _cmd_noise_matrix(args) -> int:
    spec = NoiseSpec(NoiseKind(args.kind), args.rate, args.num_classes, seed=args.seed)
    # As CSV text the matrix holds at least its float64 array and, per entry,
    # a 24-byte float of its tolist() rows and the row's 8-byte pointer to it.
    check_fits(40 * spec.num_classes ** 2, "num_classes", "the transition matrix as CSV")
    matrix = build_transition(spec)
    _warn_if_infeasible(spec)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(matrix.to_csv())
    else:
        sys.stdout.write(matrix.to_csv())
    return 0


def _cmd_gen_data(args) -> int:
    if args.kind is None and args.rate != 0.0:
        raise ValueError("--noise-rate needs --noise-kind")
    spec = BlobSpec(**{name: getattr(args, name) for name, _ in _SCHEMA["blob"].values()},
                    seed=args.seed)
    noise_spec = (NoiseSpec(NoiseKind(args.kind), args.rate, spec.num_classes, seed=args.seed)
                  if args.kind is not None else None)
    bundle = standardize(make_blobs(spec)) if args.standardize else make_blobs(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(bundle.train, out / "train.csv")
    save_dataset(bundle.meta, out / "meta.csv")
    save_dataset(bundle.test, out / "test.csv")
    if noise_spec is not None:
        # `run`'s corruption for seed group 0, cell 0: make_blobs draws the
        # data from children of `--seed` itself
        train_split, meta_split = _corrupted(bundle, build_transition(noise_spec), args.seed, 0, 0)
        save_dataset(train_split, out / "train_corrupted.csv")
        save_dataset(meta_split, out / "meta_corrupted.csv")
    print(f"wrote datasets to {out}")
    return 0


def _seed(text: str) -> int:
    """Type of the ``--seed`` options: an integer seed that ``Rng`` takes."""
    try:
        return Rng(int(text)).seed
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metareweight",
        description="Meta-learned sample reweighting under label noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid from a config file")
    p_run.add_argument("--config", help="config file (omit for documented defaults)")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_verify = sub.add_parser("verify", help="run the theory verification suite")
    p_verify.add_argument("--seed", type=_seed, default=verify.DEFAULT_VERIFY_SEED)
    p_verify.add_argument("--csv", help="also write property results to this CSV")
    p_verify.set_defaults(func=_cmd_verify, parser=p_verify)

    p_noise = sub.add_parser("noise-matrix", help="emit a transition matrix as CSV")
    p_noise.add_argument("--kind", required=True,
                         choices=[k.value for k in NoiseKind])
    p_noise.add_argument("--rate", type=float, required=True)
    p_noise.add_argument("--classes", dest="num_classes", type=int, required=True)
    p_noise.add_argument("--seed", type=_seed, default=0)
    p_noise.add_argument("--out", help="output file (default: stdout)")
    p_noise.set_defaults(func=_cmd_noise_matrix, parser=p_noise)

    p_gen = sub.add_parser("gen-data", help="emit synthetic dataset splits as CSV")
    p_gen.add_argument("--out", required=True)
    for key, (name, parse) in _SCHEMA["blob"].items():  # the [blob] keys as flags
        p_gen.add_argument(f"--{key.replace('_', '-')}", dest=name, type=parse,
                           default=getattr(BlobSpec, name))
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--standardize", action="store_true")
    p_gen.add_argument("--noise-kind", dest="kind", choices=[k.value for k in NoiseKind])
    p_gen.add_argument("--noise-rate", dest="rate", type=float, default=0.0)
    p_gen.set_defaults(func=_cmd_gen_data, parser=p_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        where = f" (at {exc.location})" if exc.location else ""
        print(f"config error: {exc}{where}", file=sys.stderr)
        return 1
    except FieldError as exc:  # a value an option set; `run` raises ConfigError instead
        flag = next((action.option_strings[0] for action in args.parser._actions
                     if action.dest == exc.field), exc.field)
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print(f"runtime failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
