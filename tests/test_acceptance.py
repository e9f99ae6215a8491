"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line with its measured numbers (run with
``pytest -s`` to see them even on success); a failing criterion fails its
test with the same numbers in the assertion message.
"""

import hashlib
import time

import numpy as np
import pytest

from metareweight import verify
from metareweight.bilevel import Variant
from metareweight.cli import run_experiment
from metareweight.config import ExperimentConfig
from metareweight.losses import LossKind, symmetry_sum
from metareweight.noise import NoiseKind, NoiseSpec, build_transition, corrupt
from metareweight.numkit import Rng
from metareweight.data import LabeledDataset


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def cell_row(table, variant, kind, rate):
    """The result row of one (variant, noise kind, noise rate) grid cell."""
    (row,) = [r for r in table.rows
              if (r.variant, r.noise_kind, r.noise_rate) == (variant, kind, rate)]
    return row


# sha256 over the default grid's *.csv files in sorted relative-path order,
# each file's relative POSIX path then its bytes.  Recorded with numpy 2.4.6
# and scipy-openblas 0.3.31 on the SkylakeX core: another BLAS kernel may
# round the last digit of a printed value differently.
GRID_CSV_DIGEST = "cfa40ef9f611b323ea80204f9e00d92286d99b69c5b7594c7b5d58aa9530daf3"


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grid")


@pytest.fixture(scope="module")
def ordering_grid(grid_dir):
    """Full desk-scale grid: uniform noise at rates 0.0/0.4, all three
    variants, five seeds each, default data and training configuration."""
    cfg = ExperimentConfig()
    assert cfg.noise_rates == (0.0, 0.4) and cfg.num_seeds == 5
    start = time.monotonic()
    table = run_experiment(cfg, out_dir=grid_dir)
    return table, time.monotonic() - start


class TestExpectationEquivalence:
    def test_uniform_noise_expectation_exactness(self):
        start = time.monotonic()
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(1)
        worst_mae, ce_hits, total = 0.0, 0, 0
        for k in (3, 5, 10):
            for eta in (0.2, 0.4, 0.6, 0.8):
                for _ in range(17):
                    c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, k)
                    rep = verify.equivalence_report(c, params, x, y, eta, LossKind.MAE)
                    worst_mae = max(worst_mae, rep)
                    rep_ce = verify.equivalence_report(c, params, x, y, eta, LossKind.CE)
                    ce_hits += rep_ce > 1e-3
                    total += 1
        elapsed = time.monotonic() - start
        assert total >= 200
        assert worst_mae <= 1e-10, f"worst MAE relative residual {worst_mae:.3e}"
        assert ce_hits >= 0.9 * total, f"CE control only {ce_hits}/{total}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"
        report("uniform-noise expectation equivalence",
               f"{total} instances, worst MAE residual {worst_mae:.2e}, "
               f"CE control {ce_hits}/{total}, {elapsed:.1f}s")


class TestHypergradient:
    def test_matches_finite_differences_on_tiny_instances(self):
        start = time.monotonic()
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(2)
        worst = 0.0
        for i in range(20):
            kind = LossKind.MAE if i % 2 == 0 else LossKind.CE
            state, tb, mb, analytic = verify.random_hypergrad_instance(
                rng, dim=3, num_classes=3, n_train=4, n_meta=4,
                kink_margin=1e-5, kind=kind)
            fd = verify.finite_diff_theta_grad(state, tb, mb, verify.VIRTUAL_LR, kind)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            worst = max(worst, rel)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"
        report("one-step hypergradient vs finite differences",
               f"20 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


class TestSymmetricProperty:
    def test_mae_constant_and_ce_counterexample(self):
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(3)
        worst = 0.0
        for k in (2, 3, 5, 10):
            for _ in range(1000):
                raw = -np.log(rng.uniforms(k))
                u = raw / raw.sum()
                worst = max(worst, abs(symmetry_sum(LossKind.MAE, u) - (2 * k - 2)))
        assert worst <= 1e-12, f"worst deviation from 2K-2: {worst:.3e}"
        sums = []
        for _ in range(10):
            raw = -np.log(rng.uniforms(5))
            sums.append(symmetry_sum(LossKind.CE, raw / raw.sum()))
        spread = max(sums) - min(sums)
        assert spread > 0.1, f"CE counterexample spread only {spread:.3f}"
        report("symmetric-loss property",
               f"MAE constant within {worst:.2e}, CE spread {spread:.2f} in 10 draws")


class TestNoiseModelFidelity:
    def test_closed_forms_and_monte_carlo(self):
        t = build_transition(NoiseSpec(NoiseKind.UNIFORM, 0.4, 5, seed=1))
        assert np.allclose(np.diag(t.probs), 0.68, atol=1e-12)
        assert np.allclose(t.probs[~np.eye(5, dtype=bool)], 0.08, atol=1e-12)
        exact = np.full((5, 5), 0.4 / 5)
        np.fill_diagonal(exact, (1 - 0.4) + 0.4 / 5)
        assert np.array_equal(t.probs, exact)

        n = 100_000
        labels = np.arange(n, dtype=np.int64) % 5
        ds = LabeledDataset(np.zeros((n, 1)), labels, 5)
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(4)
        worst_z = 0.0
        for stream, spec in enumerate((NoiseSpec(NoiseKind.UNIFORM, 0.4, 5, seed=7),
                                       NoiseSpec(NoiseKind.FLIP, 0.3, 5, seed=7),
                                       NoiseSpec(NoiseKind.FLIP2, 0.4, 5, seed=7))):
            tm = build_transition(spec)
            out = corrupt(ds, tm, rng.spawn(stream))
            for y in range(5):
                mask = labels == y
                n_y = int(mask.sum())
                freq = np.bincount(out.labels[mask], minlength=5) / n_y
                for c in range(5):
                    p = tm.probs[y, c]
                    se = np.sqrt(p * (1 - p) / n_y)
                    if se == 0.0:
                        assert freq[c] == p
                    else:
                        worst_z = max(worst_z, abs(freq[c] - p) / se)
        assert worst_z <= 3.0, f"worst deviation {worst_z:.2f} standard errors"
        report("noise-model fidelity",
               f"closed forms exact, Monte-Carlo worst {worst_z:.2f} SE at n={n}")


class TestFlipAnalysis:
    def test_fixed_map_fails_and_enumeration_restores(self):
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(5)
        witness = 0.0
        tries = 0
        for _ in range(10):
            tries += 1
            c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
            clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
            shift = 1 + rng.randint(2)
            targets = (np.arange(3) + shift) % 3
            g = verify.expected_gradient(verify.per_label_gradients(c, params, x, LossKind.MAE),
                                         y, verify.flip_transition(targets, 0.4))
            witness = verify.proportionality_residual(g, clean)
            if witness > 1e-3:
                break
        assert witness > 1e-3, f"no witness in 10 instances (best {witness:.3e})"

        c, (params,), (x,), (y,) = verify.random_classifier_instances(rng, 1, 3)
        clean = verify.clean_mean_gradient(c, params, x, y, LossKind.MAE)
        maps = list(verify.all_flip_maps(3))
        avg = np.mean([verify.expected_gradient(
                           verify.per_label_gradients(c, params, x, LossKind.MAE), y,
                           verify.flip_transition(t, 0.4)) for t in maps],
                      axis=0)
        resid = verify.proportionality_residual(avg, clean)
        assert resid <= 1e-10, f"enumerated residual {resid:.3e}"
        report("flip-noise analysis",
               f"fixed-map witness {witness:.2e} in {tries} tries; "
               f"all-{len(maps)}-maps residual {resid:.2e}")


class TestVarianceBound:
    def test_bound_holds_in_95_percent_of_configs(self):
        start = time.monotonic()
        rng = Rng(verify.DEFAULT_VERIFY_SEED).spawn(6)
        holds = 0
        for _ in range(100):
            c, (params,), (x,), (y,) = verify.random_classifier_instances(
                rng, 1, 5, dim=4, hidden=(8,), batch=40)
            rep = verify.variance_bound_check(c, params, x, y, eta=0.4, m=20)
            holds += rep.holds
        elapsed = time.monotonic() - start
        assert holds >= 95, f"bound held in only {holds}/100 configurations"
        assert elapsed < 120.0, f"took {elapsed:.1f}s (limit 120s)"
        report("minibatch variance bound",
               f"held in {holds}/100 configurations, {elapsed:.1f}s")


class TestOrderingAnalogue:
    def test_total_runtime(self, ordering_grid):
        _, elapsed = ordering_grid
        assert elapsed < 600.0, f"grid took {elapsed:.0f}s (limit 600s)"
        report("grid runtime", f"30 runs in {elapsed:.0f}s")

    def test_robust_variant_beats_noisy_ce_meta(self, ordering_grid):
        table, _ = ordering_grid
        robust = cell_row(table, Variant.NOISY_MAE, NoiseKind.UNIFORM, 0.4)
        ce = cell_row(table, Variant.NOISY_CE, NoiseKind.UNIFORM, 0.4)
        gap = (robust.final_acc_mean - ce.final_acc_mean) * 100
        assert gap >= 2.0, (
            f"noisy-mae {robust.final_acc_mean:.4f} vs noisy-ce "
            f"{ce.final_acc_mean:.4f}: gap {gap:.2f}pt < 2pt")
        report("40% uniform ordering (robust vs noisy-CE meta)",
               f"{robust.final_acc_mean:.4f} vs {ce.final_acc_mean:.4f}, "
               f"gap {gap:+.2f}pt")

    def test_robust_variant_tracks_clean_meta_reference(self, ordering_grid):
        table, _ = ordering_grid
        robust = cell_row(table, Variant.NOISY_MAE, NoiseKind.UNIFORM, 0.4)
        clean = cell_row(table, Variant.CLEAN_CE, NoiseKind.UNIFORM, 0.4)
        diff = abs(robust.final_acc_mean - clean.final_acc_mean) * 100
        assert diff <= 2.0, (
            f"noisy-mae {robust.final_acc_mean:.4f} vs clean-ce "
            f"{clean.final_acc_mean:.4f}: |diff| {diff:.2f}pt > 2pt")
        report("40% uniform ordering (robust vs clean-meta reference)",
               f"{robust.final_acc_mean:.4f} vs {clean.final_acc_mean:.4f}, "
               f"|diff| {diff:.2f}pt")

    def test_all_variants_agree_without_noise(self, ordering_grid):
        table, _ = ordering_grid
        accs = [cell_row(table, v, NoiseKind.UNIFORM, 0.0).final_acc_mean
                for v in Variant]
        spread = (max(accs) - min(accs)) * 100
        assert spread <= 1.0, f"rate-0 spread {spread:.2f}pt > 1pt"
        report("no-noise degeneracy", f"rate-0 accuracy spread {spread:.2f}pt")


class TestDetectionAuc:
    def test_robust_variant_detects_mislabels(self, ordering_grid):
        table, _ = ordering_grid
        robust = cell_row(table, Variant.NOISY_MAE, NoiseKind.UNIFORM, 0.4)
        ce = cell_row(table, Variant.NOISY_CE, NoiseKind.UNIFORM, 0.4)
        assert robust.best_auc_mean >= 0.90, f"best AUC {robust.best_auc_mean:.4f}"
        assert robust.best_auc_mean >= ce.best_auc_mean, (
            f"noisy-mae AUC {robust.best_auc_mean:.4f} < noisy-ce "
            f"{ce.best_auc_mean:.4f}")
        report("mislabel-detection AUC",
               f"noisy-mae best {robust.best_auc_mean:.4f} >= 0.90 and >= "
               f"noisy-ce {ce.best_auc_mean:.4f}")


class TestDeterminism:
    def test_repeated_experiment_byte_identical(self, tmp_path):
        from metareweight.bilevel import TrainConfig
        from metareweight.data import BlobSpec

        cfg = ExperimentConfig(
            blob=BlobSpec(num_classes=3, dim=4, n_train=90, n_meta=30, n_test=90,
                          separation=5.0),
            noise_rates=(0.3,), variants=(Variant.NOISY_MAE,),
            train=TrainConfig(train_batch=30, meta_batch=15, epochs=3,
                              lr_milestones=(2,)),
            num_seeds=2, seed=11)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        mismatches = []
        for path_a in sorted((tmp_path / "a").rglob("*.csv")):
            path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
            if path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(path_a.name)
        assert not mismatches, f"non-identical outputs: {mismatches}"
        report("experiment determinism",
               "repeated run produced byte-identical CSV outputs")

    def test_grid_files_match_their_recorded_digest(self, ordering_grid, grid_dir):
        # pins every byte the grid writes, e.g. a meta draw that reaches only
        # part of the meta split moves it
        digest = hashlib.sha256()
        paths = sorted(grid_dir.rglob("*.csv"))
        for path in paths:
            digest.update(path.relative_to(grid_dir).as_posix().encode())
            digest.update(path.read_bytes())
        assert len(paths) == 31  # results.csv and one file per run
        assert digest.hexdigest() == GRID_CSV_DIGEST, (
            f"grid files moved: sha256 {digest.hexdigest()} (numpy {np.__version__})")
        report("grid file digest", f"{len(paths)} files, sha256 {GRID_CSV_DIGEST[:16]}...")

    def test_repeated_verification_byte_identical(self, tmp_path):
        from metareweight.cli import main
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--csv", str(a)]) == 0
        assert main(["verify", "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report("verification determinism",
               "repeated verify produced byte-identical CSV output")
