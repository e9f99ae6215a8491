"""Tests of the benchmark's own code: span analysis, wrapper install/removal,
output checks, and agreement between BENCHMARK.json and what run.py prints."""

import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metareweight import bilevel, cli, data, nets, verify  # noqa: E402
from metareweight.config import parse_config_text  # noqa: E402
from tracing import Span, Target, Tracer  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span("step", 0.0, 10.0, -1, 0),
        Span("grads", 1.0, 4.0, 0, 0),
        Span("meta", 5.0, 9.0, 0, 0),
        Span("grads", 6.0, 8.5, 2, 0),
        Span("step", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 2.5, 1.0])
    # Only the outermost of same-group spans counts, so nesting is not double counted.
    assert tracing.outer_total(spans, {"grads", "meta"}) == pytest.approx(7.0)
    assert tracing.has_ancestor(spans, 3, {"step"})
    assert not tracing.has_ancestor(spans, 4, {"step"})


def test_install_and_uninstall_restore_every_attribute():
    original_make_blobs = data.make_blobs
    tracer = Tracer()
    with tracer.installed(tracing.TARGETS, run=0):
        patched = list(tracer._patches)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        # A function imported by name elsewhere is wrapped, once, in every module.
        assert cli.make_blobs is data.make_blobs is not original_make_blobs
        assert {owner for owner, _, _ in patched} >= {nets._Mlp, nets.ClassifierNet,
                                                      bilevel, cli, data, verify}
    assert tracer.absent == [] and not tracer._patches
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert data.make_blobs is original_make_blobs


def test_traced_calls_record_spans_and_absent_targets_do_not_crash():
    tracer = Tracer()
    targets = tracing.TARGETS + (
        Target("gone", "metareweight.nets", "ClassifierNet.renamed_away"),
        Target("gone", "metareweight.no_such_module", "f"),
    )
    with tracer.installed(targets, run=3):
        spec = data.BlobSpec(n_train=10, n_meta=5, n_test=5, seed=9)
        data.standardize(cli.make_blobs(spec))
    assert tracer.absent == ["metareweight.nets.ClassifierNet.renamed_away",
                             "metareweight.no_such_module.f"]
    names = [s.name for s in tracer.spans]
    assert names.count("data.make_blobs") == 1 and "data.standardize" in names
    blob = next(s for s in tracer.spans if s.name == "data.make_blobs")
    assert blob.note == 9 and blob.run == 3 and blob.end >= blob.start
    metrics = tracing.layer_metrics(tracer, passes=1)
    assert metrics["data.make_blobs_calls"] == 1
    assert metrics["data.blob_reuse_ratio"] == 1.0
    assert set(metrics) == set(tracing.LAYER_UNITS)


TINY_GRID = """
[blob]
classes = 3
dim = 4
n_train = 60
n_meta = 30
n_test = 60
[noise]
rates = 0.0, 0.4
[train]
train_batch = 30
meta_batch = 15
epochs = 2
[experiment]
num_seeds = 1
seed = 4
"""


def test_grid_check_flags_a_tampered_results_csv(tmp_path):
    cfg = parse_config_text(TINY_GRID)
    out = tmp_path / "out"
    cli.run_experiment(cfg, out_dir=out)
    assert all(ok for _, ok in workloads.check_grid_output(out, cfg, rc=0, min_auc=0.0))

    results = out / "results.csv"
    lines = results.read_text().splitlines(keepends=True)
    results.write_text("".join(lines[:-1]))  # drop one (variant, rate) row
    failed = [n for n, ok in workloads.check_grid_output(out, cfg, rc=0, min_auc=0.0)
              if not ok]
    assert "one results.csv row per (variant, rate)" in failed

    rows = list(csv.DictReader(io.StringIO("".join(lines))))
    rows[0]["final_acc_mean"] = "nan"
    with open(results, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    failed = [n for n, ok in workloads.check_grid_output(out, cfg, rc=0, min_auc=0.0)
              if not ok]
    assert failed == ["results.csv accuracies finite"]


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {**tracing.LAYER_UNITS, **run.RUN_UNITS})
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
