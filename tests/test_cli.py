import functools
import inspect
import json
import math
from unittest import mock

import pytest

from adapterqa import cli as cli_mod
from adapterqa import toymodel
from adapterqa.adapters import MAX_STACK_LAYERS, AdapterSet
from adapterqa.cli import MAX_COPY_TASK_TOKENS, build_parser, main
from adapterqa.metrics import MAX_EVAL_LINE_CHARS
from adapterqa.toymodel import (
    GRAD_CHECK_COPIES,
    MAX_TOY_SCALARS,
    InvalidConfig,
    ToyConfig,
    TrainConfig,
    build_toy_model,
    grad_check,
    grad_check_copies,
    make_copy_task,
    train_adapters,
)

from cli_runner import run_cli_limited

TABLE_OBJ = {
    "title": "Films",
    "header_rows": [[{"text": "Year"}, {"text": "Film"}]],
    "body_rows": [[{"text": "2013"}, {"text": "Padhe Padhe"}]],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_prints_usage_and_exits_2(capsys):
    code, _out, err = run(capsys, [])
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_linearize_roundtrip(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(TABLE_OBJ), encoding="utf-8")
    out_path = tmp_path / "flat.txt"
    code, _, _ = run(capsys, ["linearize", "--in", str(table_path), "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "Year: 2013, Film: Padhe Padhe\n"


def test_linearize_validation_error_is_machine_readable(tmp_path, capsys):
    bad = {
        "title": "t",
        "header_rows": [[{"text": "a"}, {"text": "b"}]],
        "body_rows": [[{"text": "x", "colspan": 3}]],
    }
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(bad), encoding="utf-8")
    code, out, err = run(capsys, ["linearize", "--in", str(table_path)])
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().split("\n")[-1])
    assert payload["error"] == "SpanOutOfBounds"


def test_assemble_single(capsys):
    code, out, _ = run(
        capsys,
        ["assemble", "--question", "who won", "--title", "Final",
         "--context", "Year: 2013"],
    )
    assert code == 0
    assert out == "<question> who won <title> Final <context> Year: 2013\n"


def test_assemble_batch_with_budget(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        json.dumps({"question": "q one", "title": "t", "context": "c1 c2 c3 c4"}) + "\n"
        + json.dumps({"question": "q two", "context": "c"}) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["assemble", "--batch", str(batch), "--max-tokens", "7"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "<question> q one <title> t <context> c1"
    assert lines[1] == "<question> q two <title> <context> c"


def test_assemble_empty_question_exits_2(capsys):
    code, _, err = run(capsys, ["assemble", "--question", "   "])
    assert code == 2
    assert json.loads(err.strip())["error"] == "EmptyQuestion"


def test_assemble_context_file(tmp_path, capsys):
    context = tmp_path / "context.txt"
    context.write_text("Year:\n2013\n", encoding="utf-8")
    code, out, _ = run(capsys, ["assemble", "--question", "when", "--context-file", str(context)])
    assert code == 0
    assert out == "<question> when <title> <context> Year: 2013\n"


def test_eval_writes_report(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    ref = tmp_path / "ref.txt"
    pred.write_text("the cat sat\n", encoding="utf-8")
    ref.write_text("the cat sat\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, ["eval", "--pred", str(pred), "--ref", str(ref), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["rouge1"]["f"] == 1.0
    assert report["bleu"] == pytest.approx(100.0)
    assert report["n"] == 1
    assert json.loads(stdout) == report


def test_count_params_reference_default(capsys):
    code, out, err = run(capsys, ["count-params"])
    assert code == 0
    payload = json.loads(out)
    assert payload["trainable"] == 6_343_680
    assert payload["percent"] == 1.56
    assert "6,343,680" in err and "1.56" in err


def test_count_params_with_ablation(tmp_path, capsys):
    ablation = tmp_path / "ablation.json"
    ablation.write_text(
        json.dumps({"removed_encoder": list(range(0, 3)),
                    "removed_decoder": list(range(12, 15))}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["count-params", "--ablation", str(ablation)])
    assert code == 0
    payload = json.loads(out)
    assert payload["trainable"] == 4_757_760
    assert payload["percent"] == 1.17


def test_count_params_empty_ablation_lists_keep_full_budget(tmp_path, capsys):
    ablation = tmp_path / "ablation.json"
    ablation.write_text(json.dumps({"removed_encoder": [], "removed_decoder": []}),
                        encoding="utf-8")
    code, out, _ = run(capsys, ["count-params", "--ablation", str(ablation)])
    assert code == 0
    assert json.loads(out)["trainable"] == 6_343_680


@pytest.mark.parametrize(
    "obj",
    [
        {"removed_encoder": [99, 12]},   # 12 is the first decoder layer
        {"removed_encoder": "01"},
        {"removed_encoder": ["0", "1"]},
        {"removed_encoder": [True]},
        {"removed_encoder": [1.0]},
        {"removed_encoder": 3},
        {"removed_decoder": [0]},        # an encoder index
        {"removed_decoder": [12, 24]},
        {"removed_decoder": [-1]},
        {"removed_encoders": [0, 1, 2]},  # misspelt key
    ],
)
def test_count_params_rejects_bad_ablation_indices(tmp_path, capsys, obj):
    ablation = tmp_path / "ablation.json"
    ablation.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["count-params", "--ablation", str(ablation)])
    assert code == 2
    assert out == ""
    assert set(json.loads(err.strip())) == {"error", "message"}


def test_count_params_custom_dims(tmp_path, capsys):
    dims = tmp_path / "dims.json"
    dims.write_text(
        json.dumps({"d_model": 32, "bottleneck": 8, "n_encoder_layers": 2,
                    "n_decoder_layers": 2, "base_total_params": 100_000}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["count-params", "--config", str(dims)])
    assert code == 0
    payload = json.loads(out)
    assert payload["trainable"] == 4 * 2 * (2 * 32 * 8 + 8 + 32)


def test_plan_ablation_grid_jsonl(tmp_path, capsys):
    out = tmp_path / "plan.jsonl"
    code, _, _ = run(capsys, ["plan-ablation", "--mode", "grid", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 36
    first = json.loads(lines[0])
    assert first["label"] == "(0-6, 12-18)"
    assert first["trainable"] == 2_643_200


@pytest.mark.parametrize("argv", [
    ["assemble", "--question", "Who?", "--title", "T"],
    ["count-params"],
    ["plan-ablation", "--mode", "uniform"],
    ["gradcheck", "--d-model", "4", "--bottleneck", "1", "--enc-layers", "1",
     "--dec-layers", "1", "--vocab", "8", "--seq-len", "2", "--batch", "1"],
    ["train-toy", "--d-model", "4", "--bottleneck", "1", "--enc-layers", "1",
     "--dec-layers", "1", "--vocab", "8", "--seq-len", "2", "--examples", "2", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_out_file_holds_what_stdout_shows(tmp_path, capsys, argv):
    code, shown, _ = run(capsys, argv)
    assert code == 0
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, [*argv, "--out", str(out)])
    assert code == 0
    assert stdout == ""
    assert out.read_text(encoding="utf-8") == shown


def test_plan_ablation_uniform_stdout(capsys):
    code, out, _ = run(capsys, ["plan-ablation", "--mode", "uniform"])
    assert code == 0
    assert len(out.strip().split("\n")) == 12


def test_identical_invocations_are_byte_identical(capsys):
    _, out_a, _ = run(capsys, ["plan-ablation", "--mode", "grid"])
    _, out_b, _ = run(capsys, ["plan-ablation", "--mode", "grid"])
    assert out_a == out_b


def test_gradcheck_small_model(capsys):
    code, out, _ = run(
        capsys,
        ["gradcheck", "--d-model", "8", "--bottleneck", "4", "--enc-layers", "1",
         "--dec-layers", "1", "--vocab", "16", "--seq-len", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_error"] < 1e-4


def test_train_toy_copy_task(tmp_path, capsys):
    out = tmp_path / "log.json"
    code, stdout, err = run(
        capsys,
        ["train-toy", "--steps", "5", "--out", str(out)],
    )
    assert code == 0
    assert "model: 47,936 frozen + 4,416 trainable (9.21% of base)" in err
    log = json.loads(out.read_text(encoding="utf-8"))
    assert len(log["losses"]) == 5
    assert log["initial_loss"] == log["losses"][0]


def test_stats_and_prepare(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    record = {
        "id": "r1",
        "question": "what year",
        "title": "Films",
        "context": {"table": TABLE_OBJ},
        "answers": ["2013"],
    }
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")

    code, out, _ = run(capsys, ["stats", "--in", str(data), "--modality", "table"])
    assert code == 0
    stats = json.loads(out)
    assert stats["n_samples"] == 1
    assert stats["max_table_cols"] == 2

    prepared = tmp_path / "prepared.jsonl"
    code, _, _ = run(
        capsys,
        ["prepare", "--in", str(data), "--modality", "table", "--out", str(prepared)],
    )
    assert code == 0
    example = json.loads(prepared.read_text(encoding="utf-8"))
    assert example["input"].startswith("<question> what year <title> Films <context>")
    assert example["target"] == "2013"


RECORD = {"id": "r1", "question": "what year", "title": "Films",
          "context": {"table": TABLE_OBJ}, "answers": ["2013"]}
DIMS = {"d_model": 32, "bottleneck": 8, "n_encoder_layers": 2, "n_decoder_layers": 2}
PREPARE = ["prepare", "--in", "FILE", "--modality", "table"]
STATS = ["stats", "--in", "FILE", "--modality", "table"]


def rejected(argv, file_obj, id, names=None):
    """A case of ``test_rejected_inputs_exit_2_with_json_error``; the error
    message must contain ``names`` when it is given."""
    return pytest.param(argv, file_obj, names, id=id)


@pytest.mark.parametrize(
    "argv, file_obj, names",
    [
        rejected(["count-params", "--config", "FILE"], {**DIMS, "base_total_params": "x"},
                 id="count-params-string-base"),
        rejected(["count-params", "--config", "FILE"],
                 {"d_model": True, "bottleneck": True, "n_encoder_layers": 1,
                  "n_decoder_layers": 1}, id="count-params-bool-dims"),
        rejected(["count-params", "--config", "FILE"], {}, id="count-params-missing-dims"),
        rejected(["train-toy", "--steps", "0"], None, id="train-toy-steps-0"),
        rejected(["train-toy", "--steps", "-3"], None, id="train-toy-steps-neg"),
        rejected(["train-toy", "--lr", "0"], None, id="train-toy-lr-0"),
        rejected(["train-toy", "--lr", "-0.01"], None, id="train-toy-lr-neg"),
        rejected(["train-toy", "--lr", "nan"], None, id="train-toy-lr-nan"),
        rejected(["train-toy", "--lr", "inf"], None, id="train-toy-lr-inf"),
        rejected(["gradcheck", "--eps", "0"], None, id="gradcheck-eps-0"),
        rejected(["gradcheck", "--eps", "nan"], None, id="gradcheck-eps-nan"),
        rejected(["gradcheck", "--batch", "-1"], None, id="gradcheck-batch-neg"),
        rejected(["gradcheck", "--seq-len", "-1"], None, id="gradcheck-seq-len-neg"),
        rejected(["gradcheck", "--seed", "-1"], None, id="gradcheck-seed-neg",
                 names="--seed must be"),
        rejected(["train-toy", "--examples", "-1"], None, id="train-toy-examples-neg"),
        rejected(["train-toy", "--seq-len", "-3"], None, id="train-toy-seq-len-neg"),
        rejected(["train-toy", "--seed", "-1"], None, id="train-toy-seed-neg",
                 names="--seed must be"),
        # Named as the option, not as the ToyConfig field.
        rejected(["gradcheck", "--enc-layers", "0"], None, id="gradcheck-enc-layers-0",
                 names="--enc-layers must be"),
        rejected(["gradcheck", "--vocab", "0"], None, id="gradcheck-vocab-0",
                 names="--vocab must be"),
        rejected(["train-toy", "--d-model", "0"], None, id="train-toy-d-model-0",
                 names="--d-model must be"),
        rejected(["train-toy", "--bottleneck", "-1"], None, id="train-toy-bottleneck-neg",
                 names="--bottleneck must be"),
        rejected(["train-toy", "--dec-layers", str(MAX_STACK_LAYERS + 1)], None,
                 id="train-toy-dec-layers-over", names="--dec-layers must be at most"),
        rejected(["gradcheck", "--vocab", "2"], None, id="gradcheck-vocab-2",
                 names="--vocab must exceed 2"),
        rejected(["gradcheck", "--d-model", "3"], None, id="gradcheck-d-model-3",
                 names="--d-model must be divisible by the 2 attention heads"),
        rejected(["gradcheck", "--seq-len", "40"], None, id="gradcheck-seq-len-over",
                 names="--seq-len must be at most 32"),
        rejected(["train-toy", "--seq-len", "40"], None, id="train-toy-seq-len-over",
                 names="--seq-len must be at most 32"),
        rejected(["count-params", "--config", "FILE"],
                 {**DIMS, "n_decoder_layers": MAX_STACK_LAYERS + 1},
                 id="count-params-layers-over", names="n_decoder_layers must be at most"),
        rejected(["plan-ablation", "--mode", "grid", "--dims", "FILE"],
                 {**DIMS, "n_encoder_layers": MAX_STACK_LAYERS + 1},
                 id="plan-ablation-layers-over", names="n_encoder_layers must be at most"),
        rejected([*PREPARE, "--max-target-tokens", "0"], RECORD, id="prepare-target-0"),
        rejected([*PREPARE, "--max-target-tokens", "-1"], RECORD, id="prepare-target-neg"),
        # Named as the option, not as the PrepareLimits field.
        rejected([*PREPARE, "--max-tokens", "-1"], RECORD, id="prepare-max-tokens-neg",
                 names="--max-tokens must be"),
        rejected([*PREPARE, "--max-target-tokens", "0"], RECORD,
                 id="prepare-max-target-tokens-zero", names="--max-target-tokens must be"),
        rejected(["assemble", "--batch", "FILE"], {"question": 5}, id="assemble-question"),
        rejected(["assemble", "--batch", "FILE"], {"question": "q", "title": 3},
                 id="assemble-title"),
        rejected(["assemble", "--batch", "FILE"], {"question": "q", "context": ["c"]},
                 id="assemble-context"),
        # Checked before any input is read: FILE is empty here.
        rejected(["assemble", "--batch", "FILE", "--max-tokens", "-1"], None,
                 id="assemble-max-tokens-neg"),
        rejected(["assemble", "--question", "q", "--max-tokens", "0"], None,
                 id="assemble-max-tokens-zero"),
        rejected(STATS, {**RECORD, "question": 5}, id="stats-question"),
        rejected(STATS, {**RECORD, "title": 5}, id="stats-title"),
        rejected(PREPARE, {**RECORD, "question": None}, id="prepare-question"),
        rejected(PREPARE, {**RECORD, "title": ["Films"]}, id="prepare-title"),
        rejected(STATS, {**RECORD, "question": " \n "}, id="stats-empty-question"),
        rejected(["count-params", "--ablation", "FILE"], {"label": 5},
                 id="count-params-int-label"),
        rejected(["count-params", "--ablation", "FILE"], {"removed_encoder": [], "label": []},
                 id="count-params-list-label"),
    ],
)
def test_rejected_inputs_exit_2_with_json_error(tmp_path, capsys, argv, file_obj, names):
    path = tmp_path / "input.jsonl"
    path.write_text("" if file_obj is None else json.dumps(file_obj) + "\n", encoding="utf-8")
    code, out, err = run(capsys, [str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip())
    assert set(payload) == {"error", "message"}
    assert names is None or names in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["count-params", "--seed", "3"], ["gradcheck", "--d-model", "x"],
     ["train-toy", "--optimizer", "adamw"], ["train-toy", "--task", "copy"],
     ["assemble"], ["assemble", "--title", "t", "--context", "c"],
     ["assemble", "--question", "q", "--batch", "f.jsonl"],
     ["assemble", "--question", "q", "--context", "c", "--context-file", "f.txt"],
     ["assemble", "--batch", "f.jsonl", "--title", "t"],
     ["assemble", "--batch", "f.jsonl", "--context", "c"],
     ["assemble", "--batch", "f.jsonl", "--context-file", "f.txt"]],
    ids=["none", "bogus", "count-params-seed", "gradcheck-d-model", "train-toy-optimizer",
         "train-toy-task", "assemble-no-source", "assemble-no-question",
         "assemble-question-and-batch", "assemble-two-contexts", "assemble-batch-title",
         "assemble-batch-context", "assemble-batch-context-file"],
)
def test_usage_errors_exit_2_with_json_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith("usage: adapterqa")


def test_help_exits_0(capsys):
    code, out, err = run(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: adapterqa")
    assert err == ""


NESTED_ARRAYS = "[" * 100_000 + "]" * 100_000
# 120 bytes claiming a 2 x 10^6 grid.
WIDE_TABLE = {"title": "t", "header_rows": [[{"text": "h", "colspan": 10**6}]],
              "body_rows": [[{"text": "b", "colspan": 10**6}]]}
# 514 bytes within the grid bound whose text would repeat over 50,000
# positions: 20.2 MB of linearized text.
SPREAD_TABLE = {"title": "t", "header_rows": [[{"text": "h" * 200, "colspan": 50_000}]],
                "body_rows": [[{"text": "b" * 200, "colspan": 50_000}]]}
# 200 KB within the grid bound (3 x 33,333) whose two stacked header cells
# would nest into 33,333 keys of 200,002 characters: 6.7 GB of keys.
STACKED_TABLE = {"title": "t",
                 "header_rows": [[{"text": "a" * 100_000, "colspan": 33_333}],
                                 [{"text": "b" * 100_000, "colspan": 33_333}]],
                 "body_rows": [[{"text": "", "colspan": 33_333}]]}


@pytest.mark.parametrize(
    "argv, text, error",
    [
        pytest.param(["linearize", "--in", "FILE"], NESTED_ARRAYS, "SchemaError",
                     id="linearize-nested"),
        pytest.param(["count-params", "--config", "FILE"], NESTED_ARRAYS, "SchemaError",
                     id="count-params-nested"),
        pytest.param(STATS, NESTED_ARRAYS, "SchemaError", id="stats-nested"),
        pytest.param(["assemble", "--batch", "FILE"], NESTED_ARRAYS, "SchemaError",
                     id="assemble-nested"),
        pytest.param(["linearize", "--in", "FILE"], json.dumps(WIDE_TABLE), "GridTooLarge",
                     id="linearize-wide"),
        pytest.param(STATS, json.dumps({**RECORD, "context": {"table": WIDE_TABLE}}),
                     "GridTooLarge", id="stats-wide"),
        pytest.param(["linearize", "--in", "FILE"], json.dumps(SPREAD_TABLE),
                     "LinearizedTextTooLarge", id="linearize-spread"),
        pytest.param(STATS, json.dumps({**RECORD, "context": {"table": SPREAD_TABLE}}),
                     "LinearizedTextTooLarge", id="stats-spread"),
        pytest.param(PREPARE, json.dumps({**RECORD, "context": {"table": SPREAD_TABLE}}),
                     "LinearizedTextTooLarge", id="prepare-spread"),
        pytest.param(["linearize", "--in", "FILE"], json.dumps(STACKED_TABLE),
                     "LinearizedTextTooLarge", id="linearize-stacked"),
        pytest.param(STATS, json.dumps({**RECORD, "context": {"table": STACKED_TABLE}}),
                     "LinearizedTextTooLarge", id="stats-stacked"),
        pytest.param(PREPARE, json.dumps({**RECORD, "context": {"table": STACKED_TABLE}}),
                     "LinearizedTextTooLarge", id="prepare-stacked"),
    ],
)
def test_hostile_files_exit_2_with_json_error(tmp_path, capsys, argv, text, error):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error


@pytest.mark.parametrize("table", [SPREAD_TABLE, STACKED_TABLE], ids=["spread", "stacked"])
@pytest.mark.parametrize("argv", [["linearize", "--in", "FILE"], STATS, PREPARE],
                         ids=["linearize", "stats", "prepare"])
def test_oversized_tables_are_refused_under_a_memory_cap(tmp_path, argv, table):
    # Building every key of the stacked table would take 6.7 GB. Under the
    # cap, a walk that failed to stop at the bound shows as exit 1 with a
    # MemoryError in the child, not as memory taken from the host.
    path = tmp_path / "input.json"
    obj = table if argv[0] == "linearize" else {**RECORD, "context": {"table": table}}
    path.write_text(json.dumps(obj), encoding="utf-8")
    proc = run_cli_limited([str(path) if arg == "FILE" else arg for arg in argv],
                           max_bytes=1024**3)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "LinearizedTextTooLarge"


@pytest.mark.parametrize("argv, layers, max_bytes", [
    pytest.param(["count-params", "--config"], (10**8, 1), 2 * 1024**3, id="count-params"),
    pytest.param(["plan-ablation", "--mode", "grid", "--dims"], (1000, 1000), 3 * 1024**3,
                 id="plan-ablation-grid"),
    pytest.param(["plan-ablation", "--mode", "uniform", "--dims"], (3000, 3000), 1024**3,
                 id="plan-ablation-uniform"),
])
def test_layer_counts_are_bounded_under_a_memory_cap(tmp_path, argv, layers, max_bytes):
    # Unbounded, the first file builds a 10^8-element layer set and the
    # grid plan runs out of memory under these caps; the uniform plan
    # writes a 51.5 MB manifest.
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({**DIMS, "n_encoder_layers": layers[0],
                                "n_decoder_layers": layers[1]}), encoding="utf-8")
    proc = run_cli_limited([*argv, str(path)], max_bytes=max_bytes)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "InputError"
    assert f"must be at most {MAX_STACK_LAYERS}" in payload["message"]


def test_stacked_header_over_an_empty_body_builds_no_key(tmp_path):
    # With no body row the text is empty whatever the keys would be, so none
    # of the 6.7 GB of keys is built.
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**STACKED_TABLE, "body_rows": []}), encoding="utf-8")
    proc = run_cli_limited(["linearize", "--in", str(path)], max_bytes=1024**3)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


# The second body row's colspan-2 cell runs into the rowspan above it.
OVERLAPPING_TABLE = {"title": "t",
                     "header_rows": [[{"text": "a"}, {"text": "b"}, {"text": "c"}]],
                     "body_rows": [[{"text": "x"}, {"text": "y", "rowspan": 2}, {"text": "z"}],
                                   [{"text": "w", "colspan": 2}]]}


def test_linearize_and_prepare_refuse_a_bad_table_alike(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(OVERLAPPING_TABLE), encoding="utf-8")
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({**RECORD, "context": {"table": OVERLAPPING_TABLE}}) + "\n",
                       encoding="utf-8")
    payloads = []
    for argv in (["linearize", "--in", str(table)],
                 [str(records) if arg == "FILE" else arg for arg in PREPARE]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        payloads.append(json.loads(err))
    linearized, prepared = payloads
    assert linearized["error"] == prepared["error"] == "OverlappingSpans"
    assert prepared["message"] == "line 1: " + linearized["message"]


RAGGED_TABLE = {"title": "t", "header_rows": [[{"text": "a"}, {"text": "b"}]],
                "body_rows": [[{"text": "x"}]]}
BATCH = ["assemble", "--batch", "FILE"]


@pytest.mark.parametrize(
    "argv, bad_line, error",
    [
        pytest.param(STATS, {**RECORD, "context": {"table": RAGGED_TABLE}}, "RaggedGrid",
                     id="stats-ragged"),
        pytest.param(PREPARE, {**RECORD, "context": {"table": WIDE_TABLE}}, "GridTooLarge",
                     id="prepare-wide"),
        pytest.param(STATS, {**RECORD, "question": ""}, "EmptyQuestion",
                     id="stats-empty-question"),
        pytest.param(PREPARE, {k: v for k, v in RECORD.items() if k != "question"},
                     "SchemaError", id="prepare-missing-question"),
        pytest.param(STATS, {**RECORD, "title": 1}, "SchemaError", id="stats-int-title"),
        pytest.param(BATCH, {"title": "t"}, "SchemaError", id="assemble-missing-question"),
        pytest.param(BATCH, {"question": "q", "title": None}, "SchemaError",
                     id="assemble-null-title"),
        pytest.param(BATCH, {"question": "  "}, "EmptyQuestion", id="assemble-empty-question"),
        pytest.param([*BATCH, "--max-tokens", "4"], {"question": "q q"}, "BudgetTooSmall",
                     id="assemble-budget"),
        pytest.param(BATCH, "{broken", "SchemaError", id="assemble-invalid-json"),
        pytest.param([*PREPARE, "--answer-index", "1"], RECORD, "SchemaError",
                     id="prepare-answer-index"),
        pytest.param([*PREPARE, "--max-tokens", "6"], {**RECORD, "question": "what year was it"},
                     "BudgetTooSmall", id="prepare-budget"),
        pytest.param(STATS, b'{"id": "caf\xe9"}', "SchemaError", id="stats-non-utf8"),
    ],
)
def test_jsonl_input_errors_name_their_line_once(tmp_path, capsys, argv, bad_line, error):
    # Two answers, so --answer-index 1 fails only on the bad line.
    good = {**RECORD, "answers": ["2013", "2014"]} if argv[0] != "assemble" else {"question": "q"}
    if isinstance(bad_line, dict):
        bad_line = json.dumps(bad_line)
    if isinstance(bad_line, str):
        bad_line = bad_line.encode("utf-8")
    path = tmp_path / "input.jsonl"
    path.write_bytes(json.dumps(good).encode("utf-8") + b"\n\n" + bad_line + b"\n")
    code, out, err = run(capsys, [str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"].startswith("line 3: ")
    assert payload["message"].count("line 3: ") == 1


def test_failed_eval_out_write_leaves_stdout_empty(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("the cat sat\n", encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--pred", str(pred), "--ref", str(pred),
                                  "--out", str(tmp_path / "missing" / "report.json")])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_seed_and_precision_belong_to_the_toy_commands(capsys):
    for option in (["--seed", "99"], ["--precision", "single"]):
        code, out, _ = run(capsys, ["count-params", *option])
        assert code == 2
        assert out == ""
    toy = ["--d-model", "8", "--bottleneck", "4", "--enc-layers", "1", "--dec-layers", "1",
           "--vocab", "16", "--seq-len", "4", "--seed", "3"]
    code, out, _ = run(capsys, ["gradcheck", *toy])
    assert code == 0
    assert json.loads(out)["n_params_checked"] > 0
    # gradcheck audits double precision only, so --precision is train-toy's.
    code, out, err = run(capsys, ["gradcheck", *toy, "--precision", "single"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert run(capsys, ["train-toy", "--steps", "1", *toy, "--precision", "single"])[0] == 0


def test_stats_schema_error_exits_2(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text("{\"id\": \"r\"}\n", encoding="utf-8")
    code, _, err = run(capsys, ["stats", "--in", str(data), "--modality", "text"])
    assert code == 2
    assert json.loads(err.strip())["error"] == "SchemaError"


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_non_utf8_input_exits_2_with_json_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"caf\xe9\n")
    if command == "eval":
        good = tmp_path / "good.txt"
        good.write_text("cafe\n", encoding="utf-8")
        argv = ["eval", "--pred", str(bad), "--ref", str(good)]
    else:
        argv = ["stats", "--in", str(bad), "--modality", "text"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip())
    if command == "eval":
        assert payload["error"] == "UnicodeDecodeError"
        assert payload["message"]
    else:  # a JSONL line that is not UTF-8 is not JSON text either
        assert payload["error"] == "SchemaError"
        assert payload["message"].startswith("line 1: ")


@pytest.mark.parametrize("argv", [
    pytest.param(["linearize", "--in", "{missing}"], id="linearize"),
    pytest.param(["stats", "--in", "{missing}", "--modality", "table"], id="stats"),
    pytest.param(["prepare", "--in", "{missing}", "--modality", "text"], id="prepare"),
    pytest.param(["eval", "--pred", "{missing}", "--ref", "{present}"], id="eval-pred"),
    pytest.param(["eval", "--pred", "{present}", "--ref", "{missing}"], id="eval-ref"),
    pytest.param(["count-params", "--config", "{missing}"], id="count-params-config"),
    pytest.param(["count-params", "--ablation", "{missing}"], id="count-params-ablation"),
    pytest.param(["plan-ablation", "--mode", "grid", "--dims", "{missing}"],
                 id="plan-ablation-dims"),
    pytest.param(["assemble", "--batch", "{missing}"], id="assemble-batch"),
    pytest.param(["assemble", "--question", "q", "--context-file", "{missing}"],
                 id="assemble-context-file"),
])
def test_missing_file_is_internal_error(tmp_path, capsys, argv):
    """Every command reports an unreadable input file alike: exit 1 and
    the ``OSError`` subclass that names the cause."""
    present = tmp_path / "present.txt"
    present.write_text("a b\n", encoding="utf-8")
    paths = {"{missing}": str(tmp_path / "missing"), "{present}": str(present)}
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "FileNotFoundError"


@pytest.mark.parametrize("lr", ["1e4", "1e160"])
def test_diverging_training_exits_1_with_only_the_json_error(lr):
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "adapterqa", "train-toy", "--lr", lr, "--optimizer", "sgd"],
        capture_output=True, text=True, env=env, cwd=str(root),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "Divergence"


def test_memory_error_exits_1_with_only_the_json_error():
    # Within every bound, and so past the size check: 2,048 copies of 32
    # tokens (MAX_COPY_TASK_TOKENS) over a 4,096-word vocabulary give
    # logits of exactly MAX_TOY_SCALARS float64s, 2 GiB, over the cap.
    argv = ["train-toy", "--vocab", "4096", "--examples", "2048", "--seq-len", "32",
            "--steps", "1"]
    assert 2048 * 32 == MAX_COPY_TASK_TOKENS and 2048 * 32 * 4096 == MAX_TOY_SCALARS
    proc = run_cli_limited(argv, max_bytes=2 * 1024**3)
    assert proc.returncode == 1
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert "MemoryError" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--d-model", "60000"],  # asked for 26.8 GiB of weights, unbounded
    ["train-toy", "--vocab", "300000000", "--steps", "1"],  # asked for 71.5 GiB
    ["gradcheck", "--vocab", "4096", "--batch", "65", "--seq-len", "32"],  # audit copies
    ["train-toy", "--vocab", "4097", "--examples", "2048", "--seq-len", "32", "--steps", "1"],
    # 2 heads x 32 positions outgrow d_ff and vocab 16: 8 GiB of attention scores.
    ["gradcheck", "--d-model", "8", "--vocab", "16", "--batch", "16384", "--seq-len", "32"],
], ids=["gradcheck-width", "train-toy-vocab", "gradcheck-copies", "train-toy-logits",
        "gradcheck-scores"])
def test_toy_size_is_bounded_before_it_allocates(argv):
    proc = run_cli_limited(argv, max_bytes=2 * 1024**3)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "InvalidConfig"
    assert f"at most {MAX_TOY_SCALARS:,} are allowed" in payload["message"]


@pytest.mark.parametrize("batch, seq_len", [(8, 8), (2, 6)], ids=["at-the-floor", "over-it"])
def test_gradcheck_bounds_the_copies_its_audit_runs(capsys, monkeypatch, batch, seq_len):
    """``gradcheck`` refuses a toy exactly when ``check_toy_size``, given
    the copies of each of the audit's forwards, refuses it: with the bound
    at that largest activation the audit runs, and one scalar under it
    ``gradcheck`` exits 2. On 8 x 8 tokens a copy's logits hold 2,048
    scalars and the audit runs the floor's copies; on 2 x 6, 384, and it
    runs more (one pack per 42-scalar adapter)."""
    argv = ["gradcheck", "--d-model", "8", "--bottleneck", "2", "--enc-layers", "1",
            "--dec-layers", "1", "--vocab", "32", "--batch", str(batch), "--seq-len", str(seq_len)]
    cfg = ToyConfig(d_model=8, bottleneck=2, n_encoder_layers=1, n_decoder_layers=1,
                    vocab_size=32)
    copies = grad_check_copies(cfg, batch, seq_len)
    assert (copies == GRAD_CHECK_COPIES) == (batch == 8)
    ran = []
    copy_losses = toymodel.ToyModel._copy_losses

    def counted(self, *args):
        losses = copy_losses(self, *args)
        ran.append(losses.size)
        return losses

    monkeypatch.setattr(toymodel.ToyModel, "_copy_losses", counted)
    assert run(capsys, argv)[0] == 0
    assert max(ran) == copies
    activation = batch * seq_len * 32 * copies  # the logits: vocab 32 is the widest axis
    monkeypatch.setattr(toymodel, "MAX_TOY_SCALARS", activation)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(toymodel, "MAX_TOY_SCALARS", activation - 1)
    ran.clear()
    code, out, err = run(capsys, argv)
    assert (code, out, ran) == (2, "", [])
    assert f"x {copies} copies, would hold {activation:,} scalars" in json.loads(err)["message"]


@pytest.mark.parametrize("adapter_set", [None, AdapterSet.empty()], ids=["full", "none"])
@pytest.mark.parametrize("command", ["gradcheck", "train-toy"])
def test_library_calls_bound_the_batch_as_the_cli_does(capsys, monkeypatch, command,
                                                       adapter_set):
    """``grad_check`` and ``train_adapters`` called directly refuse a batch
    exactly when the CLI refuses it, with the CLI's message and before any
    forward, also on a model with nothing trainable. The toy is built
    first, under the real bound; the bound then sits at the largest
    activation (the logits: vocab 32 is the widest axis) and one scalar
    under it."""
    batch, seq_len = (2, 6) if command == "gradcheck" else (8, 16)
    size = ["--batch", str(batch)] if command == "gradcheck" else [
        "--examples", str(batch), "--steps", "2"]
    argv = [command, "--d-model", "8", "--bottleneck", "2", "--enc-layers", "1",
            "--dec-layers", "1", "--vocab", "32", "--seq-len", str(seq_len), *size]
    cfg = ToyConfig(d_model=8, bottleneck=2, n_encoder_layers=1, n_decoder_layers=1,
                    vocab_size=32, adapter_set=adapter_set)
    model = build_toy_model(cfg)
    source, target = make_copy_task(n_examples=batch, seq_len=seq_len, vocab_size=32)
    if command == "gradcheck":
        copies = grad_check_copies(cfg, batch, seq_len)
        call = functools.partial(grad_check, model, source, target)
    else:
        copies = 1
        call = functools.partial(train_adapters, model, source, target, TrainConfig(steps=2))
    activation = batch * seq_len * 32 * copies
    forwards = []
    for method in ("prefix", "forward"):
        original = getattr(toymodel.ToyModel, method)

        def counted(self, *args, _original=original):
            forwards.append(args)
            return _original(self, *args)

        monkeypatch.setattr(toymodel.ToyModel, method, counted)
    monkeypatch.setattr(toymodel, "MAX_TOY_SCALARS", activation)
    call()
    assert forwards or (command, adapter_set) == ("gradcheck", AdapterSet.empty())
    monkeypatch.setattr(toymodel, "MAX_TOY_SCALARS", activation - 1)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    forwards.clear()
    with pytest.raises(InvalidConfig) as refused:
        call()
    assert str(refused.value) == json.loads(err)["message"]
    assert f"would hold {activation:,} scalars" in str(refused.value)
    assert forwards == []


@pytest.mark.parametrize("usage, valid", [
    ([], ["count-params"]),
    (["assemble", "--question", "q", "--batch", "b.jsonl"], ["assemble", "--question", "q"]),
    (["train-toy", "--optimizer", "rmsprop"],
     ["train-toy", "--d-model", "8", "--bottleneck", "2", "--enc-layers", "1",
      "--dec-layers", "1", "--vocab", "16", "--seq-len", "4", "--examples", "2",
      "--steps", "2"]),
], ids=["no-command", "assemble", "train-toy"])
def test_a_usage_error_leaves_the_cached_parser_as_built(capsys, usage, valid):
    """``main`` builds its parser once per process. A usage error and then a
    valid command, run one after the other on that parser, give the exit
    codes, stdout and stderr each gives alone on a parser built afresh."""
    alone = []
    for argv in (usage, valid):
        build_parser.cache_clear()
        alone.append(run(capsys, argv))
    build_parser.cache_clear()
    together = [run(capsys, argv) for argv in (usage, valid)]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0]


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--d-model", "60000"],
    ["train-toy", "--vocab", "300000000", "--steps", "1"],
    ["gradcheck", "--bottleneck", str(10**9)],
    ["gradcheck", "--enc-layers", str(10**8)],
    ["gradcheck", "--batch", str(10**9)],
    ["train-toy", "--examples", str(10**9), "--steps", "1"],
    ["train-toy", "--seq-len", str(10**6), "--steps", "1"],
], ids=lambda argv: argv[0] + argv[1])
def test_oversized_toy_options_exit_2_before_they_allocate(argv):
    proc = run_cli_limited(argv, max_bytes=2 * 1024**3, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert set(json.loads(proc.stderr)) == {"error", "message"}


@pytest.mark.parametrize("eps", ["1e200", "1e308"])
def test_overflowing_audit_step_fails_the_audit_without_warnings(eps):
    # The perturbed copies overflow; the NaN error fails the audit by rule.
    proc = run_cli_limited(["gradcheck", "--eps", eps], max_bytes=2 * 1024**3, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert math.isnan(json.loads(proc.stdout)["max_rel_error"])
    assert proc.stderr.startswith("checked 4416 trainable scalars, max relative error nan")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--d-model", "0"],
    ["gradcheck", "--bottleneck", "0"],
    ["gradcheck", "--enc-layers", "0"],
    ["train-toy", "--dec-layers", "0"],
    ["gradcheck", "--vocab", "0"],
    ["train-toy", "--seed", "-1"],
    ["gradcheck", "--seq-len", "0"],
    ["gradcheck", "--batch", "0"],
    ["train-toy", "--examples", "0"],
    ["train-toy", "--lr", "0"],
    ["train-toy", "--steps", "0"],
    ["gradcheck", "--eps", "0"],
    ["assemble", "--question", "q", "--max-tokens", "0"],
    ["prepare", "--in", "FILE", "--modality", "text", "--max-tokens", "0"],
    ["prepare", "--in", "FILE", "--modality", "text", "--max-target-tokens", "0"],
], ids=lambda argv: argv[0] + argv[-2])
def test_every_option_with_a_library_rule_names_itself(tmp_path, capsys, argv):
    path = tmp_path / "records.jsonl"
    path.write_text("", encoding="utf-8")
    code, out, err = run(capsys, [str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert out == ""
    assert json.loads(err)["message"].startswith(f"{argv[-2]} must ")


@pytest.mark.parametrize("length, code", [(MAX_EVAL_LINE_CHARS, 0),
                                           (MAX_EVAL_LINE_CHARS + 1, 2), (3 * 10**6, 2)])
def test_eval_line_length_is_bounded_before_scoring(tmp_path, length, code):
    # Unbounded, a pair of 3 MB lines runs ROUGE-L's LCS for minutes.
    line = ("a b " * length)[:length]
    pred, ref = tmp_path / "pred.txt", tmp_path / "ref.txt"
    pred.write_text(f"x\n{line}\n", encoding="utf-8")
    ref.write_text(f"x\n{line}\n", encoding="utf-8")
    proc = run_cli_limited(["eval", "--pred", str(pred), "--ref", str(ref)],
                           max_bytes=1024**3, timeout=30)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        payload = json.loads(proc.stderr)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "LineTooLong"
        assert payload["message"].startswith(f"{pred}: line 2 holds {length:,} characters")


def test_copy_task_is_bounded_before_it_allocates():
    # Unbounded, 10^8 six-token examples ask for 4.47 GiB of ids and exit 1
    # under this cap.
    proc = run_cli_limited(["train-toy", "--examples", "100000000", "--steps", "1"],
                           max_bytes=2 * 1024**3)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "InputError"
    assert f"must be at most {MAX_COPY_TASK_TOKENS}" in payload["message"]


def test_copy_task_bound_is_inclusive(capsys):
    examples = MAX_COPY_TASK_TOKENS // 32
    # At the bound, the run gets as far as the step count.
    code, out, err = run(capsys, ["train-toy", "--examples", str(examples), "--seq-len", "32",
                                  "--steps", "0"])
    assert code == 2
    assert json.loads(err)["message"].startswith("--steps must be")
    code, out, err = run(capsys, ["train-toy", "--examples", str(examples + 1),
                                  "--seq-len", "32", "--steps", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"


def test_a_bad_training_option_is_refused_before_the_model_is_built(capsys, monkeypatch):
    # A width-256 toy over a 2048 x 32 copy task: built first, it would
    # take its weights and ids before --steps 0 was refused.
    monkeypatch.setattr(cli_mod, "build_toy_model",
                        mock.Mock(side_effect=AssertionError("the model was built")))
    for option in (["--steps", "0"], ["--lr", "0"], ["--lr", "nan"]):
        code, out, err = run(capsys, ["train-toy", "--vocab", "4096", "--d-model", "256",
                                      "--examples", "2048", "--seq-len", "32", *option])
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"{option[0]} must be")
    cli_mod.build_toy_model.assert_not_called()


def test_module_entry_point_runs():
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "adapterqa", "count-params"],
        capture_output=True, text=True, env=env, cwd=str(root),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trainable"] == 6_343_680


@pytest.mark.parametrize("seed", [21, 159])
def test_gradcheck_default_step_passes_where_1e_5_crossed_a_kink(capsys, seed):
    """At eps 1e-5 these seeds report 0.22 and 0.97: a copy crosses a
    rectifier kink. The default step of 1e-6 stays on one side."""
    code, out, _ = run(capsys, ["gradcheck", "--seed", str(seed)])
    assert code == 0
    report = json.loads(out)
    assert report["eps"] == 1e-6
    assert report["max_rel_error"] < 1e-4


def test_toy_option_defaults_are_the_library_defaults():
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    parser = build_parser()
    gradcheck = parser.parse_args(["gradcheck"])
    train_toy = parser.parse_args(["train-toy"])
    assert gradcheck.seq_len == train_toy.seq_len == default(make_copy_task, "seq_len")
    assert train_toy.examples == default(make_copy_task, "n_examples")
    assert gradcheck.eps == default(grad_check, "eps")
