"""Golden digests: the exact bytes of a tiny ``metareweight run`` and of the
other subcommands.

The grid below covers both noise kinds the paper's experiments use, a clean
and a noisy rate, all three variants and two seeds.  Every file the run
writes is compared by sha256 with ``DIGESTS``; ``verify --seed 1 --csv``,
a noisy ``gen-data`` and ``noise-matrix`` (flip2 to a file and stdout, flip
and uniform to stdout) with the tables after it.  All were recorded on the numpy and
BLAS build named in ``RECORDED_WITH``, on a host of the kind in
``RECORDED_HOST``: the OpenBLAS core the library picked and whether numpy
dispatches its ``X86_V4`` (AVX-512) loops.  BLAS kernels round differently
from build to build and core to core, so a mismatch on another build or host
is not by itself a defect; it still fails, and its message names both hosts.
A change that moves numbers on purpose re-records the table and says so.  The run must also
write the same files with one or two BLAS threads and with one or two
workers.
"""

import ctypes
import ctypes.util
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metareweight
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
RECORDED_HOST = {"openblas_core": "SkylakeX", "x86_v4": True}

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
        "c0f080fa5920df536b77e23aa901c3e212e48cca2d0b2430a3263fda0c6e8386",
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


VERIFY_DIGESTS = {
    "verify.csv": "e17e5886e7b05c4602f8a853c290eafe2777b7510966b9eb8012a1cef4d9fb59",
}

GEN_DATA_ARGS = ["--classes", "3", "--dim", "4", "--n-train", "40", "--n-meta", "12",
                 "--n-test", "20", "--seed", "5", "--standardize",
                 "--noise-kind", "flip2", "--noise-rate", "0.3"]

GEN_DATA_DIGESTS = {
    "meta.csv": "54503c547bad1dab0d4e973ff7c09352d60a6b1a9496fa71a3c525beeb5ba546",
    "meta_corrupted.csv": "8743ffcc10bbc5af0d663ebb7059521de7c4355d9f48a53a95a5ecf47f212ebd",
    "test.csv": "5259ec6a3a09f49fb007a8e21ffbf6bd29ff2d8c98303c30f759e5af897cc7cd",
    "train.csv": "2edc44670bfd09b64535a168eee3c686f08a5ff6e5cdcd787e850935449280a1",
    "train_corrupted.csv": "885adfc672789eaaa02e4142d706566193ff6f0f8840ea56e491e9f9e56ee8b1",
}

NOISE_MATRIX_ARGS = ["--kind", "flip2", "--rate", "0.3", "--classes", "5", "--seed", "7"]

NOISE_MATRIX_DIGESTS = {
    "matrix.csv": "5256bc07800298260fe7541c6c7b44fcf714b19c0a30d9583ae14714cbef1b16",
    "stdout": "5256bc07800298260fe7541c6c7b44fcf714b19c0a30d9583ae14714cbef1b16",
}

FLIP_MATRIX_ARGS = ["--kind", "flip", "--rate", "0.3", "--classes", "5", "--seed", "7"]

FLIP_MATRIX_DIGESTS = {
    "stdout": "5c7eac656ae27659d90134a0474222e758f411b4b1b879de7ba3b65191854fab",
}

UNIFORM_MATRIX_ARGS = ["--kind", "uniform", "--rate", "0.3", "--classes", "5", "--seed", "7"]

UNIFORM_MATRIX_DIGESTS = {
    "stdout": "9792c7fe80f00c595481b14131e6749974dc5a00ec63d2962e1b6ec70b9348b6",
}


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def bundled_openblas() -> Path | None:
    """numpy's bundled OpenBLAS library, or None where numpy has none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    return libs[0] if libs else None


def openblas_core(library: Path | None) -> str:
    """The core OpenBLAS picked in this process (``OPENBLAS_CORETYPE``
    overrides it), or ``unknown`` when the library or its
    ``scipy_openblas_get_corename64_`` is absent."""
    try:
        corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
    except (OSError, AttributeError, TypeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numpy_dispatches_x86_v4() -> bool:
    from numpy._core import _multiarray_umath as umath
    return bool(umath.__cpu_features__.get("X86_V4")) and "X86_V4" in (
        umath.__cpu_dispatch__ + umath.__cpu_baseline__)


def this_host() -> dict:
    return {"openblas_core": openblas_core(bundled_openblas()),
            "x86_v4": numpy_dispatches_x86_v4()}


def describe(host: dict) -> str:
    return (f"OpenBLAS core {host['openblas_core']}, numpy X86_V4 dispatch "
            + ("on" if host["x86_v4"] else "off"))


def files_under(out: Path) -> dict[str, bytes]:
    """Every file below ``out``, by its path relative to ``out``."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_digests(files: dict[str, bytes], table: dict[str, str]) -> None:
    got = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    moved = [f"{name}: {digest}" for name, digest in got.items()
             if table.get(name) != digest]
    missing = sorted(set(table) - set(got))
    if moved or missing:
        host = this_host()
        where = ("this host is of the recorded kind"
                 if host == RECORDED_HOST else
                 f"this host differs: {describe(host)}, whose kernels may round otherwise")
        raise AssertionError(
            f"outputs differ from the digests recorded with {RECORDED_WITH} on "
            f"{describe(RECORDED_HOST)}; {where} (this build: numpy {np.__version__}, "
            f"{blas_build()}); new digests:\n"
            + "\n".join(moved) + "".join(f"\nno longer written: {name}" for name in missing))


def write_config(tmp_path, workers: int) -> Path:
    cfg_path = tmp_path / f"golden_{workers}.cfg"
    cfg_path.write_text(CONFIG.format(workers=workers))
    return cfg_path


def run_grid(tmp_path, workers: int) -> dict[str, bytes]:
    """Every file one run writes, by path relative to its output directory."""
    out = tmp_path / f"out_{workers}"
    assert main(["run", "--config", str(write_config(tmp_path, workers)),
                 "--out", str(out)]) == 0
    return files_under(out)


@pytest.fixture(scope="module")
def serial_files(tmp_path_factory):
    return run_grid(tmp_path_factory.mktemp("golden"), workers=1)


def test_every_file_matches_its_recorded_digest(serial_files):
    check_digests(serial_files, DIGESTS)


def test_two_workers_write_the_same_files(serial_files, tmp_path):
    parallel = run_grid(tmp_path, workers=2)
    assert parallel.keys() == serial_files.keys()
    for name, data in serial_files.items():
        if name == "config_resolved.cfg":
            assert data.replace(b"workers = 1", b"workers = 2") == parallel[name]
        else:
            assert data == parallel[name], name


def test_blas_threads_write_the_same_files(tmp_path):
    cfg_path = write_config(tmp_path, workers=1)
    # OPENBLAS_NUM_THREADS and MKL_NUM_THREADS would override OMP_NUM_THREADS.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(metareweight.__file__).parents[1]), env.get("PYTHONPATH", "")])
    procs = {threads: subprocess.Popen(
        [sys.executable, "-c", "import sys; from metareweight.cli import main; "
                               "sys.exit(main(sys.argv[1:]))",
         "run", "--config", str(cfg_path), "--out", str(tmp_path / f"threads_{threads}")],
        env={**env, "OMP_NUM_THREADS": str(threads)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for threads in (1, 2)}
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    one, two = (files_under(tmp_path / f"threads_{threads}") for threads in (1, 2))
    assert one.keys() == two.keys()
    for name, data in one.items():
        assert data == two[name], name


def test_verify_csv_matches_its_recorded_digest(tmp_path, capsys):
    path = tmp_path / "verify.csv"
    assert main(["verify", "--seed", "1", "--csv", str(path)]) == 0
    check_digests({"verify.csv": path.read_bytes()}, VERIFY_DIGESTS)


def test_noisy_gen_data_matches_its_recorded_digests(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), *GEN_DATA_ARGS]) == 0
    check_digests(files_under(tmp_path), GEN_DATA_DIGESTS)


def test_noise_matrix_matches_its_recorded_digests(tmp_path, capsys):
    assert main(["noise-matrix", *NOISE_MATRIX_ARGS]) == 0
    stdout = capsys.readouterr().out.encode()
    assert main(["noise-matrix", *NOISE_MATRIX_ARGS, "--out", str(tmp_path / "matrix.csv")]) == 0
    check_digests({"matrix.csv": (tmp_path / "matrix.csv").read_bytes(), "stdout": stdout},
                  NOISE_MATRIX_DIGESTS)


def test_flip_noise_matrix_matches_its_recorded_digest(capsys):
    assert main(["noise-matrix", *FLIP_MATRIX_ARGS]) == 0
    check_digests({"stdout": capsys.readouterr().out.encode()}, FLIP_MATRIX_DIGESTS)


def test_uniform_noise_matrix_matches_its_recorded_digest(capsys):
    assert main(["noise-matrix", *UNIFORM_MATRIX_ARGS]) == 0
    check_digests({"stdout": capsys.readouterr().out.encode()}, UNIFORM_MATRIX_DIGESTS)


class TestHostNames:
    MISMATCH = ({"out.csv": b"moved"}, {"out.csv": "0" * 64})

    def test_core_reads_unknown_without_the_library_or_its_symbol(self, tmp_path):
        assert openblas_core(None) == "unknown"
        assert openblas_core(tmp_path / "missing.so") == "unknown"
        not_a_library = tmp_path / "libscipy_openblas64_.so"
        not_a_library.write_bytes(b"not ELF")
        assert openblas_core(not_a_library) == "unknown"
        libc = ctypes.util.find_library("c")
        if libc is not None:  # a library without the symbol
            assert openblas_core(libc) == "unknown"

    def test_mismatch_names_the_recorded_host_and_this_one(self):
        with pytest.raises(AssertionError) as err:
            check_digests(*self.MISMATCH)
        message = str(err.value)
        assert describe(RECORDED_HOST) in message and "out.csv: " in message
        assert ("recorded kind" if this_host() == RECORDED_HOST
                else f"this host differs: {describe(this_host())}") in message

    @pytest.mark.skipif(bundled_openblas() is None or sys.platform != "linux"
                        or os.uname().machine != "x86_64",
                        reason="needs numpy's bundled OpenBLAS on x86-64 Linux")
    def test_mismatch_under_another_core_names_it(self):
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(
            [str(Path(metareweight.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import test_golden as g\n"
                  "try:\n    g.check_digests(*g.TestHostNames.MISMATCH)\n"
                  "except AssertionError as e:\n    print(e)\n")
        out = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (f"on {describe(RECORDED_HOST)}; this host differs: OpenBLAS core Haswell, "
                f"numpy X86_V4 dispatch {'on' if numpy_dispatches_x86_v4() else 'off'}"
                ) in out.stdout
