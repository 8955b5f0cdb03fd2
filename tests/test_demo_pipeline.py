"""Smoke test of the end-to-end demo ``scripts/demo_pipeline.py``."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"


def test_demo_pipeline_writes_every_artifact(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("demo_pipeline", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--work-dir", str(tmp_path)])  # exits only on failure

    names = [f"{modality}{suffix}" for modality in ("table", "text")
             for suffix in (".jsonl", "_prepared.jsonl", "_refs.txt", "_preds.txt")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    out = capsys.readouterr().out
    for modality in ("table", "text"):
        n_records = len((tmp_path / f"{modality}.jsonl").read_text(encoding="utf-8").splitlines())
        assert n_records > 0
        prepared = (tmp_path / f"{modality}_prepared.jsonl").read_text(encoding="utf-8")
        lines = prepared.splitlines()
        assert len(lines) == n_records
        assert all(json.loads(line)["input"].startswith("<question> ") for line in lines)
        # stdout holds each modality's stats and eval report.
        assert f'"n_samples": {n_records}' in out
        assert f'"n": {n_records}' in out
