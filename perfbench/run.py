"""Benchmark of metareweight: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Runs single-threaded BLAS in one process, closed loop: one caller, each
pass waits for the previous one.  A run does one warm-up pass, then
repeats the workload until ``--seconds`` have passed, checking every pass's
output files.  ``setup_s`` is timed in fresh interpreters started between
the passes, so that set-up and passes sample the same machine state.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer numbers instead of the end-to-end ones.  The last line of
standard output is the result as JSON; a fuller record, and the spans of a
traced run as JSONL, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set before numpy is first imported, in this process and in set-up probes.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES_PER_PASS = 2
# Passes and set-up probes rotate over the CPUs this process may use.  On a
# shared host one CPU can run 30% slower than the other for tens of seconds
# (a busy neighbour on its sibling thread); left to the scheduler, a whole run
# can land on the slow one.  Rotating makes every run sample each CPU alike.
CPUS = sorted(os.sched_getaffinity(0))
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality_acc": "ratio",
    "quality_auc": "ratio",
}
# Per-layer numbers the run measures itself: the kernel's share of an
# untraced pass (system CPU time and minor page faults, from getrusage) and
# the cost and coverage of tracing.
RUN_UNITS = {
    "process.sys_ms": "ms",
    "process.minor_faults": "count",
    "trace.overhead_s": "s",
    "trace.absent_spans": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["grid", "train-wide", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# -- environment record --------------------------------------------------------


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(load_1m: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "loadavg_1m_at_start": load_1m,
    }


# -- measurement ---------------------------------------------------------------


def pin(k: int) -> None:
    """Run this process, and the children it starts from now on, on CPU k (cyclic)."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds to import the package and build the inputs in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed),
         str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run(args) -> int:
    if not (SRC / "metareweight" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    load_1m = os.getloadavg()[0]
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import metareweight
    import tracing
    import workloads

    if not Path(metareweight.__file__).resolve().is_relative_to(SRC):
        print(f"error: metareweight imported from {metareweight.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    checks: list[tuple[str, bool]] = []
    walls = {False: [], True: []}  # traced? -> pass wall times
    usage = []  # (system CPU s, minor page faults) of each untraced timed pass
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        setups = []
        probe_ids = itertools.count()

        def probe(timed: bool = True) -> None:
            k = next(probe_ids)
            pin(k)
            t = probe_setup(args.workload, args.seed, tmp / f"setup{k}")
            if timed:
                setups.append(t)

        # An untimed first probe writes the bytecode caches of a fresh checkout.
        probe(timed=False)
        probe()
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp / "inputs")

        def one_pass(i: int, traced: bool):
            """Run and check pass ``i``: wall s, output dir, system CPU s, minor faults."""
            out = tmp / f"pass{i}"
            out.mkdir()
            # A traced run pairs each untraced pass with a traced one on one CPU.
            pin((i - 1) // (1 + args.trace))
            ctx = tracer.installed(tracing.TARGETS, run=i) if traced else contextlib.nullcontext()
            with ctx:
                before = resource.getrusage(resource.RUSAGE_SELF)
                t0 = perf_counter()
                rc = wl.run_pass(out)
                wall = perf_counter() - t0
                after = resource.getrusage(resource.RUSAGE_SELF)
            checks.extend(wl.check(out, rc))
            return (wall, out, after.ru_stime - before.ru_stime,
                    after.ru_minflt - before.ru_minflt)

        # The warm-up pass is checked but not timed; its output is the
        # reference the timed passes must reproduce byte for byte.
        first = one_pass(0, traced=False)[1]
        ok = all(passed for _, passed in checks)
        ref_digest = workloads.digest(first)
        work = wl.work(first) if ok else 0
        acc, auc = wl.quality(first) if ok else (0.0, 0.0)
        shutil.rmtree(first)

        i = 1
        start = perf_counter()
        while True:
            traced = bool(args.trace) and i % 2 == 0
            wall, out, sys_s, faults = one_pass(i, traced)
            walls[traced].append(wall)
            if not traced:
                usage.append((sys_s, faults))
            checks.append((f"pass {i} output digest matches the warm-up pass",
                           workloads.digest(out) == ref_digest))
            shutil.rmtree(out)
            for _ in range(SETUP_PROBES_PER_PASS):
                probe()
            # Stop only when every CPU has run as many passes (or pairs) as the others.
            if (perf_counter() - start >= args.seconds
                    and i % (len(CPUS) * (1 + args.trace)) == 0):
                break
            i += 1

    failed = [name for name, passed in checks if not passed]
    # Every pass does the same deterministic work, and the shared host only
    # ever slows a pass down (by up to 2x, in stretches of tens of seconds),
    # so the fastest pass is the least disturbed measure of the program.
    wall_s = min(walls[False])
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(walls[True]))
        metrics["process.sys_ms"] = 1e3 * statistics.median(u[0] for u in usage)
        metrics["process.minor_faults"] = statistics.median(u[1] for u in usage)
        metrics["trace.overhead_s"] = min(walls[True]) - wall_s
        metrics["trace.absent_spans"] = len(set(tracer.absent))
        units = {**tracing.LAYER_UNITS, **RUN_UNITS}
        tracer.write_jsonl(OUT / f"{tag}.spans.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "work_per_s": work / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "quality_acc": acc,
            "quality_auc": auc,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(load_1m),
        "digest": ref_digest,
        "work_per_pass": work,
        "setup_s": setups,
        "pass_wall_s": walls[False],
        "traced_pass_wall_s": walls[True],
        "pass_sys_s_and_minor_faults": usage,
        "error_rate": len(failed) / len(checks),
        "failed_checks": failed,
        "absent_spans": sorted(set(tracer.absent)),
        "metrics": metrics,
    }
    record_path = OUT / f"{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record_path.relative_to(ROOT).as_posix(), **{
        k: record[k] for k in ("digest", "error_rate", "failed_checks", "absent_spans",
                               "environment")}}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failed else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
