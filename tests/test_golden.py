"""Golden digests: the exact bytes of a tiny ``metareweight run``.

The grid below covers both noise kinds the paper's experiments use, a clean
and a noisy rate, all three variants and two seeds.  Every file the run
writes is compared by sha256 with ``DIGESTS``, recorded on the numpy and
BLAS build named in ``RECORDED_WITH``: BLAS kernels round differently from
build to build, so a mismatch on another build is not by itself a defect.
A change that moves numbers on purpose re-records the table and says so.
"""

import hashlib

import numpy as np
import pytest

from metareweight.cli import main

CONFIG = """\
[blob]
n_train = 300
n_meta = 60
n_test = 300

[noise]
kinds = uniform, flip2
rates = 0.0, 0.4

[train]
train_batch = 50
meta_batch = 30
epochs = 2
lr_milestones = 1

[experiment]
variants = clean-ce, noisy-ce, noisy-mae
num_seeds = 2
seed = 3
workers = {workers}
"""

RECORDED_WITH = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

DIGESTS = {
    "config_resolved.cfg":
        "d33d5ec4a31c1956a5ebeb1053c7b79ecfc6943fbbed4f7e55b4b5f4598e96a3",
    "results.csv":
        "6d2f03edce8fbd5dc8b64249bb356b98d5113de76551454a728cba36b97cc67f",
    "runs/clean-ce_flip2_0.4_0.csv":
        "ec819be84f548127292ac41873776b20a6228556f761b6700f4722d5c53e065a",
    "runs/clean-ce_flip2_0.4_1.csv":
        "afca2a56ba40de4ebb711a83b6c32fb91404a9418c47eaad201830889c921179",
    "runs/clean-ce_flip2_0_0.csv":
        "d74301e04d067bbb00513103e90598b863ba041473dfee197c9fca7e3351e370",
    "runs/clean-ce_flip2_0_1.csv":
        "21c25bdffcce90403dd6c0bc6fbba893f032eb6a94496fe3724bab46c8d7b3ee",
    "runs/clean-ce_uniform_0.4_0.csv":
        "b5535b0e692772fdb083455fce989a8468622296a4f7cce11e20a671b8966566",
    "runs/clean-ce_uniform_0.4_1.csv":
        "29c4757e95bdf23eea71294d84467d730e0a36133fdee207a4f8d7a84a705f67",
    "runs/clean-ce_uniform_0_0.csv":
        "d74301e04d067bbb00513103e90598b863ba041473dfee197c9fca7e3351e370",
    "runs/clean-ce_uniform_0_1.csv":
        "21c25bdffcce90403dd6c0bc6fbba893f032eb6a94496fe3724bab46c8d7b3ee",
    "runs/noisy-ce_flip2_0.4_0.csv":
        "6a2579972f6193d8d0cd6a1eda121211a13047dfd55d37476c8d44600b9a6a4c",
    "runs/noisy-ce_flip2_0.4_1.csv":
        "8e47fa961be934af62067c5fb319ca2c1d5377db1ce869d9d6bc2e13ddf1ac37",
    "runs/noisy-ce_flip2_0_0.csv":
        "d74301e04d067bbb00513103e90598b863ba041473dfee197c9fca7e3351e370",
    "runs/noisy-ce_flip2_0_1.csv":
        "21c25bdffcce90403dd6c0bc6fbba893f032eb6a94496fe3724bab46c8d7b3ee",
    "runs/noisy-ce_uniform_0.4_0.csv":
        "a4c65e5254d74e175d526dd0926dd341ef12c9cacc33ee4e6341945bc1e47a2a",
    "runs/noisy-ce_uniform_0.4_1.csv":
        "656989479f9d8df36516e042d309b7cbbd2e9638d7242c04f7a2e3466d013b0b",
    "runs/noisy-ce_uniform_0_0.csv":
        "d74301e04d067bbb00513103e90598b863ba041473dfee197c9fca7e3351e370",
    "runs/noisy-ce_uniform_0_1.csv":
        "21c25bdffcce90403dd6c0bc6fbba893f032eb6a94496fe3724bab46c8d7b3ee",
    "runs/noisy-mae_flip2_0.4_0.csv":
        "ca5ab2a235ac03154b88141f2f57bd056564a0de5ce522d8cb7fbd22fc5b735b",
    "runs/noisy-mae_flip2_0.4_1.csv":
        "ab13829699bfcf0dca4c1c3750e98406c62ffef9d47cc268d417ae644838361b",
    "runs/noisy-mae_flip2_0_0.csv":
        "057db399540d7eb2acdb7296042db08f09cac6634954570a4f2e90725c410230",
    "runs/noisy-mae_flip2_0_1.csv":
        "57bb7ce98cc99871c6f4e34b6ce9b5152e52b7d45e932db1b8de7756739528d3",
    "runs/noisy-mae_uniform_0.4_0.csv":
        "52152fd83035bba4c6fb25d119e16c06609c65bc30beea959460282bfd72b514",
    "runs/noisy-mae_uniform_0.4_1.csv":
        "d427ac064678e18865e615354c3a71a27493dc3f9e783b6f84635a72e13fbd7a",
    "runs/noisy-mae_uniform_0_0.csv":
        "057db399540d7eb2acdb7296042db08f09cac6634954570a4f2e90725c410230",
    "runs/noisy-mae_uniform_0_1.csv":
        "57bb7ce98cc99871c6f4e34b6ce9b5152e52b7d45e932db1b8de7756739528d3",
}


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def run_grid(tmp_path, workers: int) -> dict[str, bytes]:
    """Every file one run writes, by path relative to its output directory."""
    cfg_path = tmp_path / f"golden_{workers}.cfg"
    cfg_path.write_text(CONFIG.format(workers=workers))
    out = tmp_path / f"out_{workers}"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def serial_files(tmp_path_factory):
    return run_grid(tmp_path_factory.mktemp("golden"), workers=1)


def test_every_file_matches_its_recorded_digest(serial_files):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in serial_files.items()}
    moved = [f"{name}: {digest}" for name, digest in got.items()
             if DIGESTS.get(name) != digest]
    missing = sorted(set(DIGESTS) - set(got))
    assert not moved and not missing, (
        f"outputs differ from the digests recorded with {RECORDED_WITH} "
        f"(this build: numpy {np.__version__}, {blas_build()}); new digests:\n"
        + "\n".join(moved) + "".join(f"\nno longer written: {name}" for name in missing))


def test_two_workers_write_the_same_files(serial_files, tmp_path):
    parallel = run_grid(tmp_path, workers=2)
    assert parallel.keys() == serial_files.keys()
    for name, data in serial_files.items():
        if name == "config_resolved.cfg":
            assert data.replace(b"workers = 1", b"workers = 2") == parallel[name]
        else:
            assert data == parallel[name], name
