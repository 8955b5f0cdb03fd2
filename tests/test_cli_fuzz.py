"""Property test of the CLI error contract on generated input files.

Every file-reading command is run through ``cli.main`` on arbitrary bytes
and on small JSON documents shaped like tables, records, dims and ablation
configs, and ``gradcheck`` and ``train-toy`` on arbitrary option values.
Whatever the input, ``main`` returns 0, 1 or 2 without raising, and a
failure prints exactly one ``{"error", "message"}`` object on stderr. The
toy commands' sizes set their cost, so they are capped from above (width
8, 2 layers a side, length 4, 2 steps) and range over negative values.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa.adapters import MAX_STACK_LAYERS
from adapterqa.cli import main

sizes = st.integers(-1000, 1000)
short_text = st.text(max_size=12)
leaves = st.none() | st.booleans() | sizes | st.floats() | short_text
any_json = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(short_text, children, max_size=4),
    max_leaves=12,
)


def shaped(fields: dict) -> st.SearchStrategy:
    """Objects with any subset of ``fields``, each value well-typed or any JSON."""
    return st.fixed_dictionaries(
        {}, optional={key: value | any_json for key, value in fields.items()})


cells = shaped({"text": short_text, "colspan": sizes | st.integers(1, 3),
                "rowspan": sizes | st.integers(1, 3)})
rows = st.lists(st.lists(cells, max_size=4), max_size=4)
tables = shaped({"title": short_text, "header_rows": rows, "body_rows": rows})
records = shaped({
    "id": short_text,
    "question": short_text,
    "title": short_text,
    "answers": st.lists(short_text, max_size=3),
    "context": shaped({"table": tables, "passage": short_text}),
})
# Mostly small layer counts, which keep a grid plan cheap, and counts at
# and past the bound that refuses a larger plan.
layers = st.integers(-2, 48) | st.sampled_from([MAX_STACK_LAYERS, MAX_STACK_LAYERS + 1, 10**8])
dims = shaped({"d_model": sizes, "bottleneck": sizes, "n_encoder_layers": layers,
               "n_decoder_layers": layers, "adapters_per_layer": sizes,
               "base_total_params": sizes})
ablations = shaped({"removed_encoder": st.lists(sizes, max_size=4),
                    "removed_decoder": st.lists(sizes, max_size=4), "label": short_text})


def json_file(shape) -> st.SearchStrategy:
    return st.one_of(st.binary(max_size=64), (shape | any_json).map(
        lambda obj: json.dumps(obj).encode()))


def jsonl_file(shape) -> st.SearchStrategy:
    return st.one_of(st.binary(max_size=64), st.lists(shape | any_json, max_size=3).map(
        lambda objs: "".join(json.dumps(obj) + "\n" for obj in objs).encode()))


text_file = st.binary(max_size=64) | st.lists(short_text, max_size=4).map(
    lambda lines: "".join(line + "\n" for line in lines).encode())
modality = st.sampled_from(["table", "text"])


def option(name: str, values) -> st.SearchStrategy:
    """``[name, value]`` or nothing."""
    return st.just([]) | values.map(lambda value: [name, str(value)])


TOY_OPTIONS = {
    "--d-model": st.integers(-2, 8),
    "--bottleneck": st.integers(-2, 4),
    "--enc-layers": st.integers(-1, 2),
    "--dec-layers": st.integers(-1, 2),
    "--vocab": st.integers(-1, 40),
    "--seq-len": st.integers(-3, 4),
    "--seed": st.integers(-3, 2**40),
}
GRADCHECK_OPTIONS = {
    "--batch": st.integers(-3, 3),
    # 1e200 and 1e308 pass the step rule but overflow the perturbed copies.
    "--eps": st.sampled_from([1e-6, 1e-5, 1e200, 1e308, 0.0, -1.0, float("nan"),
                              float("inf")]),
}
TRAIN_TOY_OPTIONS = {
    "--examples": st.integers(-3, 4),
    "--steps": st.integers(-1, 2),
    "--lr": st.sampled_from([1e-2, 10.0, 1e160, 0.0, -1.0, float("nan")]),
    "--optimizer": st.sampled_from(["adam", "sgd"]),
    "--precision": st.sampled_from(["single", "double"]),
}


@st.composite
def invocations(draw):
    """``(argv, files)``: ``argv`` names each file by its key in ``files``."""
    command = draw(st.sampled_from(
        ["linearize", "assemble", "stats", "prepare", "eval", "count-params", "plan-ablation",
         "gradcheck", "train-toy"]))
    files = {}
    if command in ("gradcheck", "train-toy"):
        # The defaults are a width-32 model and 200 steps, so the sizes are
        # always given.
        own = GRADCHECK_OPTIONS if command == "gradcheck" else TRAIN_TOY_OPTIONS
        argv = [command, "--d-model", "8", "--bottleneck", "4", "--enc-layers", "2",
                "--dec-layers", "2", "--seq-len", "4",
                "--steps" if command == "train-toy" else "--batch", "2"]
        for name, values in {**TOY_OPTIONS, **own}.items():
            argv += draw(option(name, values))
    elif command == "linearize":
        files["IN"] = draw(json_file(tables))
        argv = ["linearize", "--in", "IN"]
    elif command == "assemble":
        files["IN"] = draw(jsonl_file(shaped(
            {"question": short_text, "title": short_text, "context": short_text})))
        argv = ["assemble", "--batch", "IN", *draw(option("--max-tokens", sizes))]
    elif command in ("stats", "prepare"):
        files["IN"] = draw(jsonl_file(records))
        argv = [command, "--in", "IN", "--modality", draw(modality)]
        if command == "prepare":
            for name in ("--max-tokens", "--max-target-tokens", "--answer-index"):
                argv += draw(option(name, sizes))
    elif command == "eval":
        files["PRED"], files["REF"] = draw(text_file), draw(text_file)
        argv = ["eval", "--pred", "PRED", "--ref", "REF"]
    elif command == "count-params":
        argv = ["count-params"]
        if draw(st.booleans()):
            files["DIMS"] = draw(json_file(dims))
            argv += ["--config", "DIMS"]
        if draw(st.booleans()):
            files["ABL"] = draw(json_file(ablations))
            argv += ["--ablation", "ABL"]
    else:
        files["DIMS"] = draw(json_file(dims))
        argv = ["plan-ablation", "--mode", draw(st.sampled_from(["uniform", "grid"])),
                "--dims", "DIMS"]
    if draw(st.booleans()):
        argv += ["--out", "OUT"]
    return argv, files


WIDE_TABLE = {"title": "t", "header_rows": [[{"text": "h", "colspan": 10**6}]],
              "body_rows": [[{"text": "b", "colspan": 10**6}]]}
SPREAD_TABLE = {"title": "t", "header_rows": [[{"text": "h" * 200, "colspan": 50_000}]],
                "body_rows": [[{"text": "b" * 200, "colspan": 50_000}]]}


@settings(deadline=None, max_examples=150)
@given(invocations())
@example((["linearize", "--in", "IN"], {"IN": b"[" * 100_000 + b"]" * 100_000}))
@example((["stats", "--in", "IN", "--modality", "table"],
          {"IN": b"[" * 100_000 + b"]" * 100_000}))
@example((["linearize", "--in", "IN"], {"IN": json.dumps(WIDE_TABLE).encode()}))
@example((["linearize", "--in", "IN"], {"IN": json.dumps(SPREAD_TABLE).encode()}))
@example((["stats", "--in", "IN", "--modality", "table"],
          {"IN": json.dumps({"id": "r", "question": "q", "answers": ["a"],
                             "context": {"table": WIDE_TABLE}}).encode()}))
# An unpaired surrogate in the output, which the drawn shapes rarely reach.
@example((["linearize", "--in", "IN", "--out", "OUT"],
          {"IN": b'{"header_rows": [[{"text": "a\\ud800"}]], "body_rows": [[{"text": "b"}]]}'}))
@example((["assemble", "--batch", "IN", "--out", "OUT"],
          {"IN": b'{"question": "q", "context": "c\\ud800"}\n'}))
@example((["gradcheck", "--d-model", "8", "--batch", "-1"], {}))
@example((["gradcheck", "--d-model", "8", "--seq-len", "-1"], {}))
@example((["gradcheck", "--d-model", "8", "--seed", "-1"], {}))
@example((["gradcheck", "--d-model", "8", "--seq-len", "4", "--eps", "1e308"], {}))
@example((["train-toy", "--d-model", "8", "--steps", "2", "--examples", "-1"], {}))
@example((["train-toy", "--d-model", "8", "--steps", "2", "--seq-len", "-3"], {}))
@example((["train-toy", "--d-model", "8", "--steps", "2", "--seed", "-1"], {}))
def test_every_generated_invocation_keeps_the_error_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp, key)) for key in [*files, "OUT"]}
        for key, data in files.items():
            Path(paths[key]).write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    if code != 0:
        payload = json.loads(stderr.getvalue())
        assert isinstance(payload, dict) and set(payload) == {"error", "message"}
