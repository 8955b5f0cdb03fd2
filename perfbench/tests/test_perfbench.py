"""Tests of the benchmark itself: its metric contract, its inputs, its
failure accounting and its tracer. Run with
``python -m pytest perfbench/tests`` from the repository root."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import adapterqa.tables
import adapterqa.toymodel
import bench_workloads as bw
from bench_inputs import qa_corpus
from bench_trace import Instrumentation, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_catalog():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bw.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bw.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bw.WORKLOADS))
def test_short_mode_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--short"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    named = json.loads(next(line for line in lines if line.startswith('{"named"')))
    for name, unit, _ in bw.WORKLOAD_METRICS:
        assert name in named["absent"] or named["named"][name]["unit"] == unit


def test_dropped_prediction_line_counts_toward_error_rate(tmp_path):
    result = bw.run_workload("qa-data", seed=3, seconds=0.1, trace=False, workdir=tmp_path / "w",
                             short=True, corrupt="drop-pred-line")
    assert result.failed == result.ops_untraced >= bw.MIN_OPS
    assert result.named["error_rate"] == result.failed / result.attempted > 0
    assert any("eval exited 2" in p for p in result.problems)


def test_corpus_is_a_function_of_the_seed(tmp_path):
    a = qa_corpus(5, tmp_path / "a", 20, 10)
    b = qa_corpus(5, tmp_path / "b", 20, 10)
    c = qa_corpus(6, tmp_path / "c", 20, 10)
    for name in ("tables", "passages", "preds", "refs"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()
        assert getattr(a, name).read_bytes() != getattr(c, name).read_bytes()
    assert a.grid_cells == c.grid_cells  # the size profile does not depend on the seed


def test_instrumentation_reports_missing_targets_and_restores(monkeypatch):
    monkeypatch.delattr(adapterqa.toymodel, "softmax_cross_entropy")
    original = adapterqa.tables.validate_table
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        assert adapterqa.tables.validate_table is not original
        model = adapterqa.toymodel.build_toy_model(adapterqa.toymodel.ToyConfig())
    assert "not found" in inst.absent["toymodel.loss"]
    assert adapterqa.tables.validate_table is original
    names = {tracer.names[i] for i in tracer.name_id}
    assert "toymodel.build" in names
    assert "forward" in vars(model)  # the built model was wrapped per instance
