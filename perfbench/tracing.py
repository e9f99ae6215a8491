"""Runtime span tracing of metareweight's public functions, installed from outside.

The benchmark never edits the package.  For a traced pass it replaces each
target function or method with a wrapper that records a span (name, start,
end, parent span, pass id) in memory, and it puts the originals back
afterwards.  Targets that no longer exist are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    span: str                 # span name; several targets may share one
    module: str               # e.g. "metareweight.nets"
    attr: str                 # "make_blobs" or "ClassifierNet.losses_and_grads_batch"
    count_only: bool = False  # count calls without a span (cheap, adds no child)
    note: Callable | None = None  # (args, kwargs, result) -> value kept on the span


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int     # pass id
    note: object = None


class Tracer:
    """Spans and call counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # span name -> calls
        self.absent: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[target.span] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(target.span, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if target.note is not None:
                span.note = target.note(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Patch every target; a target that cannot be found is recorded as absent."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            *owner_path, name = target.attr.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, name):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            if isinstance(owner, type):
                # Patch the class that defines the method, so calls through
                # subclasses are traced too.
                definer = next(c for c in owner.__mro__ if name in c.__dict__)
                original = definer.__dict__[name]
                self._patch(definer, name, original, self._wrap(original, target))
            else:
                # A function imported by name into other modules of the
                # package is patched there as well.
                original = getattr(owner, name)
                wrapper = self._wrap(original, target)
                package = target.module.split(".")[0]
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == package
                                           or mod_name.startswith(package + ".")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets, run: int):
        self.run = run
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            covered[span.parent] += max(0.0, hi - lo)
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def has_ancestor(spans: list[Span], i: int, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def outer_total(spans: list[Span], names) -> float:
    """Summed duration of spans in ``names`` not nested inside another of them."""
    names = set(names)
    return sum(s.end - s.start for i, s in enumerate(spans)
               if s.name in names and not has_ancestor(spans, i, names))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# -- the package's layers ---------------------------------------------------


def _grad_matrix_bytes(args, kwargs, result) -> int:
    return int(result[1].nbytes)


def _blob_seed(args, kwargs, result) -> int:
    spec = args[0] if args else next(iter(kwargs.values()))
    return int(spec.seed)


def _targets():
    m = "metareweight."
    return (
        Target("nets.losses_and_grads", m + "nets", "ClassifierNet.losses_and_grads_batch",
               note=_grad_matrix_bytes),
        Target("nets.weightnet", m + "nets", "WeightNet.forward_and_grads_batch"),
        Target("nets.weightnet", m + "nets", "WeightNet.forward_batch"),
        Target("nets.eval", m + "nets", "ClassifierNet.predict_batch"),
        Target("nets.eval", m + "nets", "ClassifierNet.losses_batch"),
        # set_flat/get_flat are shared by both nets; counted, not timed, so
        # their copies stay in the self time of the step that makes them.
        Target("nets.set_flat", m + "nets", "ClassifierNet.set_flat", count_only=True),
        Target("nets.get_flat", m + "nets", "ClassifierNet.get_flat", count_only=True),
        Target("bilevel.step", m + "bilevel", "bilevel_step"),
        Target("bilevel.meta_gradient_at", m + "bilevel", "meta_gradient_at"),
        Target("bilevel.theta_update", m + "bilevel", "theta_update"),
        Target("metrics.auc", m + "metrics", "auc_noisy_detection"),
        Target("data.make_blobs", m + "data", "make_blobs", note=_blob_seed),
        Target("data.standardize", m + "data", "standardize"),
        Target("noise.corrupt", m + "noise", "corrupt"),
        Target("noise.build_transition", m + "noise", "build_transition"),
        Target("cli.run_single", m + "cli", "run_single"),
        Target("cli.write_csv", m + "bilevel", "RunReport.save_csv"),
        Target("cli.write_csv", m + "cli", "ResultTable.to_csv"),
        Target("numkit.rng", m + "numkit", "Rng.permutation"),
        Target("numkit.rng", m + "numkit", "Rng.randints"),
        Target("numkit.rng", m + "numkit", "Rng.gaussians"),
        Target("numkit.rng", m + "numkit", "Rng.uniforms"),
        Target("verify.equivalence", m + "verify", "equivalence_report"),
        Target("verify.hypergradient", m + "verify", "finite_diff_theta_grad"),
        Target("verify.variance", m + "verify", "variance_bound_check"),
        Target("verify.mc_slope", m + "verify", "mc_convergence_slope"),
    )


TARGETS = _targets()

# Per-layer metric -> unit.  "_ms" totals are milliseconds per pass, summed
# over every call in the pass; step percentiles are per step; counts are
# per pass.  A metric whose layer a workload never reaches reads 0.
LAYER_UNITS = {
    "nets.train_grads_ms": "ms",
    "nets.meta_grads_ms": "ms",
    "nets.grad_matrix_mb_per_step": "MB",
    "nets.weightnet_ms": "ms",
    "nets.eval_ms": "ms",
    "nets.set_flat_calls": "count",
    "nets.get_flat_calls": "count",
    "bilevel.step_ms_p50": "ms",
    "bilevel.step_ms_p99": "ms",
    "bilevel.step_self_ms": "ms",
    "bilevel.meta_gradient_self_ms": "ms",
    "bilevel.theta_update_ms": "ms",
    "bilevel.steps": "count",
    "metrics.auc_ms": "ms",
    "data.make_blobs_ms": "ms",
    "data.make_blobs_calls": "count",
    "data.standardize_ms": "ms",
    "data.blob_reuse_ratio": "ratio",
    "noise.corrupt_ms": "ms",
    "noise.build_transition_ms": "ms",
    "cli.run_single_ms": "ms",
    "cli.write_csv_ms": "ms",
    "numkit.rng_ms": "ms",
    "verify.equivalence_ms": "ms",
    "verify.hypergradient_ms": "ms",
    "verify.variance_ms": "ms",
    "verify.mc_slope_ms": "ms",
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers averaged over ``passes`` traced passes.

    ``nets.grad_matrix_mb_per_step`` is computed from the shapes of the
    gradient matrices the step's calls return (MB = 2**20 bytes), not
    measured memory traffic.
    """
    spans = tracer.spans

    def ms(*names) -> float:
        return 1e3 * outer_total(spans, names) / passes

    def calls(name) -> float:
        return tracer.counts[name] / passes

    train_grads = meta_grads = 0.0
    step_grad_bytes = 0
    for i, s in enumerate(spans):
        if s.name != "nets.losses_and_grads":
            continue
        if s.parent >= 0 and spans[s.parent].name == "bilevel.meta_gradient_at":
            meta_grads += s.end - s.start
        else:
            train_grads += s.end - s.start
        if has_ancestor(spans, i, {"bilevel.step"}):
            step_grad_bytes += s.note

    own = self_times(spans)
    steps = [i for i, s in enumerate(spans) if s.name == "bilevel.step"]
    step_ms = [1e3 * (spans[i].end - spans[i].start) for i in steps]
    meta_self = sum(own[i] for i, s in enumerate(spans) if s.name == "bilevel.meta_gradient_at")
    blobs = [s for s in spans if s.name == "data.make_blobs"]
    distinct_blobs = len({(s.run, s.note) for s in blobs})

    return {
        "nets.train_grads_ms": 1e3 * train_grads / passes,
        "nets.meta_grads_ms": 1e3 * meta_grads / passes,
        "nets.grad_matrix_mb_per_step": step_grad_bytes / 2**20 / len(steps) if steps else 0.0,
        "nets.weightnet_ms": ms("nets.weightnet"),
        "nets.eval_ms": ms("nets.eval"),
        "nets.set_flat_calls": calls("nets.set_flat"),
        "nets.get_flat_calls": calls("nets.get_flat"),
        "bilevel.step_ms_p50": percentile(step_ms, 50),
        "bilevel.step_ms_p99": percentile(step_ms, 99),
        "bilevel.step_self_ms": 1e3 * sum(own[i] for i in steps) / passes,
        "bilevel.meta_gradient_self_ms": 1e3 * meta_self / passes,
        "bilevel.theta_update_ms": ms("bilevel.theta_update"),
        "bilevel.steps": len(steps) / passes,
        "metrics.auc_ms": ms("metrics.auc"),
        "data.make_blobs_ms": ms("data.make_blobs"),
        "data.make_blobs_calls": len(blobs) / passes,
        "data.standardize_ms": ms("data.standardize"),
        "data.blob_reuse_ratio": distinct_blobs / len(blobs) if blobs else 0.0,
        "noise.corrupt_ms": ms("noise.corrupt"),
        "noise.build_transition_ms": ms("noise.build_transition"),
        "cli.run_single_ms": ms("cli.run_single"),
        "cli.write_csv_ms": ms("cli.write_csv"),
        "numkit.rng_ms": ms("numkit.rng"),
        "verify.equivalence_ms": ms("verify.equivalence"),
        "verify.hypergradient_ms": ms("verify.hypergradient"),
        "verify.variance_ms": ms("verify.variance"),
        "verify.mc_slope_ms": ms("verify.mc_slope"),
    }
