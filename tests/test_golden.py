"""Golden hashes of the toy model's numerical outputs.

Refactors of the model code must keep training logs, logits, freeze
reports and gradient audits bit-identical, and rewrites of the metrics
must keep the ``eval`` report bit-identical, and rewrites of the table
linearizer must keep its text and the ``prepare`` output bit-identical.
These SHA-256 digests pin them for float64, and one train log for float32,
on the reference numpy/OpenBLAS build; a different BLAS may round matrix
products differently and then needs its own digests, taken from a commit
whose outputs are known good.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adapterqa.ablation import apply_ablation, grid_ablation_plan
from adapterqa.adapters import AdapterSet, ModelDims
from adapterqa.cli import main
from adapterqa.linearize import linearize
from adapterqa.metrics import evaluate_pairs
from adapterqa.toymodel import (
    ToyConfig,
    TrainConfig,
    build_toy_model,
    freeze_report,
    grad_check,
    make_copy_task,
    train_adapters,
)
from gen_tables import random_table
from table_oracles import resolve

TRAIN_STEPS = 25

# (train log, final logits) per optimizer.
GOLDEN_TRAIN = {
    "adam": ("600b27283e0ee716f250faf0bafb053aeea79ba1753a6bc328fcfdaef8960f82",
             "8c3c4d15d1cd28d2790e98a8a08784363b0b5349d6f51af9ddc999f75e1ac987"),
    "sgd": ("f5738a978be7e1aeccccd6a483be7ab40f9954adab434de08665667627675748",
            "bbf35f1fadb99033fd19806c0ad198ada189073144f24708fb2f94c66833a788"),
}
# (train log, final logits) of TRAIN_STEPS_SINGLE Adam steps in float32; the
# same under one and two OpenBLAS threads and under three row shards.
TRAIN_STEPS_SINGLE = 20
GOLDEN_TRAIN_SINGLE = (
    "d7095a39bcbce6876857f8a44b11c6b15a2a000d1606b15bf22d25169e50eafb",
    "b20a48650f4a00f059cce387381ceddbf922e7534e333e4e12d34a9dc11350f9")
GOLDEN_FREEZE_REPORT = "f193937031e14c805a97427994b042f2ec72f9af30528be90678b92605c80177"
GOLDEN_GRAD_CHECK = "02e698766a4bf75ba487c6db9541450b604157e25fb3f8d123841125b49a57eb"
# (Adam train log, grad_check report) for the other rows of the toy grid
# plan: 1 is decoder-only, 2 encoder-only, 3 has no adapters at all.
GOLDEN_GRID_ROWS = {
    1: ("12029dbcf5a5972eb123251941d897158281eb71b984c173454fae2126194fbe",
        "d06e23486bfdad44a13c374ca2ebe18fe77a2364b80e7cbd8b2760c8d9db17bb"),
    2: ("c239df6932b92a1fd3bb70ba185e8173c14ce8d932306029bb0b089b00e97a69",
        "7165e016d3f1c166414e5b92a1f1d954df224806b802485b7e99a7d795d6b4d1"),
    3: ("1b87e36344e2ceaf7545ead3a0f7d96963f4bcaee979e837837985db93c528d3",
        "1337a7c0a6fad92309985821e13083ad833829636d2b5e6520be0def21855f21"),
}

GOLDEN_METRIC_REPORT = "f2149871ffef9e1195938ce5beaf7b0330babf6166ae8895f698cff7f4167442"

# ``linearize`` text and pair count over seeded random span tables, and the
# ``prepare --max-tokens 48`` output of a seeded table record file.
GOLDEN_LINEARIZE = "efc758c12863715794c950f6f61ea8eade9856181ee11ca00eeb6e1c77b2e65b"
GOLDEN_PREPARE = "13105769ee31ccac693f68e2a5ea092f21a37bcf9c54fc7ccef8a1f39ec25ff6"


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_copy_task_train_log_and_logits_are_pinned(optimizer):
    cfg = ToyConfig()
    model = build_toy_model(cfg)
    source, target = make_copy_task(vocab_size=cfg.vocab_size, seed=cfg.seed)
    log = train_adapters(model, source, target,
                         TrainConfig(steps=TRAIN_STEPS, optimizer=optimizer))
    _, logits = model.forward(source, target)
    log_hash = sha256_json(log.to_json_dict())
    logits_hash = hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
    assert (log_hash, logits_hash) == GOLDEN_TRAIN[optimizer]


def test_single_precision_copy_task_train_log_and_logits_are_pinned():
    cfg = ToyConfig(precision="single")
    model = build_toy_model(cfg)
    source, target = make_copy_task(vocab_size=cfg.vocab_size, seed=cfg.seed)
    log = train_adapters(model, source, target, TrainConfig(steps=TRAIN_STEPS_SINGLE))
    _, logits = model.forward(source, target)
    assert logits.dtype == np.float32
    log_hash = sha256_json(log.to_json_dict())
    logits_hash = hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
    assert (log_hash, logits_hash) == GOLDEN_TRAIN_SINGLE


def test_freeze_report_is_pinned():
    report = freeze_report(build_toy_model(ToyConfig()))
    assert sha256_json(report.to_json_dict()) == GOLDEN_FREEZE_REPORT


def test_grad_check_on_toy_grid_row_is_pinned():
    dims = ModelDims(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4)
    row = grid_ablation_plan(dims)[0]
    cfg = ToyConfig(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4,
                    n_heads=2, vocab_size=16, max_len=8, seed=6,
                    adapter_set=apply_ablation(AdapterSet.full(dims), row))
    model = build_toy_model(cfg)
    model.randomize_adapters(seed=7)
    rng = np.random.default_rng(8)
    source = rng.integers(2, cfg.vocab_size, size=(2, 4))
    target = rng.integers(2, cfg.vocab_size, size=(2, 4))
    report = grad_check(model, source, target, eps=1e-6)
    assert report.n_params_checked > 0
    assert sha256_json(report.to_json_dict()) == GOLDEN_GRAD_CHECK


def grid_row_model(row_index: int):
    dims = ModelDims(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4)
    row = grid_ablation_plan(dims)[row_index]
    cfg = ToyConfig(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4,
                    n_heads=2, vocab_size=16, max_len=8, seed=6,
                    adapter_set=apply_ablation(AdapterSet.full(dims), row))
    return build_toy_model(cfg)


@pytest.mark.parametrize("row_index", sorted(GOLDEN_GRID_ROWS))
def test_train_log_and_grad_check_on_other_grid_rows_are_pinned(row_index):
    model = grid_row_model(row_index)
    source, target = make_copy_task(n_examples=4, seq_len=6, vocab_size=model.cfg.vocab_size,
                                    seed=model.cfg.seed)
    log = train_adapters(model, source, target, TrainConfig(steps=TRAIN_STEPS))

    model = grid_row_model(row_index)
    model.randomize_adapters(seed=7)
    rng = np.random.default_rng(8)
    source = rng.integers(2, model.cfg.vocab_size, size=(2, 4))
    target = rng.integers(2, model.cfg.vocab_size, size=(2, 4))
    report = grad_check(model, source, target, eps=1e-6)
    assert (sha256_json(log.to_json_dict()), sha256_json(report.to_json_dict())) \
        == GOLDEN_GRID_ROWS[row_index]


# Words that exercise both tokenizers: repeats, case, digits with periods,
# commas and dashes (kept together only between digits), other ASCII
# punctuation, and non-ASCII letters.
METRIC_WORDS = ["the", "The", "cat", "sat", "on", "mat", "a", "a", "of", "of",
                "3.50", "pp.", "4-5", "1,000", "2,5", "-", ",", ".", "x-ray",
                "e.g.", "U.S.", "(a)", '"q"', "50%", "$3", "--", "end.", "n't",
                "café", "naïve", "Größe", "東京", "Ω", "–", "…"]


def metric_corpus(n_pairs: int = 300, seed: int = 2022) -> tuple[list[str], list[str]]:
    """Seeded answer pairs of 0-80 words; most hypotheses perturb their reference."""
    rng = random.Random(seed)

    def words(n: int) -> list[str]:
        return [rng.choice(METRIC_WORDS) for _ in range(n)]

    hyps, refs = [], []
    for _ in range(n_pairs):
        share = rng.random()
        ref = words(0 if share < 0.05 else 1 if share < 0.2 else rng.randint(2, 80))
        if rng.random() < 0.2:
            hyp = words(rng.randint(0, 80))
        else:
            hyp = [rng.choice(METRIC_WORDS) if rng.random() < 0.2 else w
                   for w in ref if rng.random() < 0.9]
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    return hyps, refs


def test_eval_report_on_seeded_corpus_is_pinned():
    hyps, refs = metric_corpus()
    assert sha256_json(evaluate_pairs(hyps, refs).to_json_dict()) == GOLDEN_METRIC_REPORT


def seeded_tables(n_tables: int, seed: int):
    rng = random.Random(seed)
    return [random_table(rng, max_width=6, max_header_rows=3, max_body_rows=6)
            for _ in range(n_tables)]


def test_linearize_on_seeded_tables_is_pinned():
    tables = seeded_tables(2000, seed=2022)
    # The corpus covers what the pin is meant to guard.
    assert any(not t.body_rows for t in tables)
    assert any(len(t.header_rows) == 3 for t in tables)
    flats = [linearize(resolve(t)) for t in tables]
    assert sha256_json([[f.text, f.pair_count] for f in flats]) == GOLDEN_LINEARIZE


def test_prepare_with_token_budget_is_pinned(tmp_path, capsys):
    rng = random.Random(2023)
    records = tmp_path / "records.jsonl"
    prepared = tmp_path / "prepared.jsonl"
    records.write_text("".join(
        json.dumps({"id": f"r{i}",
                    "question": " ".join(rng.choice(METRIC_WORDS)
                                         for _ in range(rng.randint(1, 6))),
                    "title": f"table {i}",
                    "context": {"table": table.to_json_dict()},
                    "answers": [f"c{i}"]}) + "\n"
        for i, table in enumerate(seeded_tables(60, seed=2023))
    ), encoding="utf-8")
    argv = ["prepare", "--in", str(records), "--modality", "table", "--max-tokens", "48",
            "--out", str(prepared)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(prepared.read_bytes()).hexdigest() == GOLDEN_PREPARE


@pytest.mark.usefixtures("three_shards")
class TestThreeShards:
    """The model pins above, with every batch split into up to three row
    shards: the same digests, bit for bit."""

    test_copy_task_train_log_and_logits_are_pinned = staticmethod(
        test_copy_task_train_log_and_logits_are_pinned)
    test_single_precision_copy_task_train_log_and_logits_are_pinned = staticmethod(
        test_single_precision_copy_task_train_log_and_logits_are_pinned)
    test_grad_check_on_toy_grid_row_is_pinned = staticmethod(
        test_grad_check_on_toy_grid_row_is_pinned)
    test_train_log_and_grad_check_on_other_grid_rows_are_pinned = staticmethod(
        test_train_log_and_grad_check_on_other_grid_rows_are_pinned)


# The model pins above, by name within this module or ``TestThreeShards``.
MODEL_PINS = {
    "adam": "test_copy_task_train_log_and_logits_are_pinned[adam]",
    "sgd": "test_copy_task_train_log_and_logits_are_pinned[sgd]",
    "single": "test_single_precision_copy_task_train_log_and_logits_are_pinned",
    "grad-check": "test_grad_check_on_toy_grid_row_is_pinned",
    **{f"row-{row}": f"test_train_log_and_grad_check_on_other_grid_rows_are_pinned[{row}]"
       for row in sorted(GOLDEN_GRID_ROWS)},
}

# Runs pytest on the node ids in argv[2:] in a process where the C library
# has no mallopt, and writes each node's outcome and keep_freed_heap's
# result to argv[1].
DEFAULT_HEAP_SCRIPT = """
import json, sys
import pytest
from adapterqa import workers
workers._mallopt = lambda: None

class Outcomes:
    def __init__(self):
        self.of = {}
    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.of[report.nodeid] = report.outcome

outcomes = Outcomes()
pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]], plugins=[outcomes])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump([outcomes.of, workers._heap_kept], handle)
"""


def pin_node(shards: int, pin: str) -> str:
    return f"tests/test_golden.py::{'TestThreeShards::' if shards == 3 else ''}{MODEL_PINS[pin]}"


@pytest.fixture(scope="module")
def default_heap_run(tmp_path_factory) -> tuple[dict[str, str], bool | None, str]:
    """Each model pin's outcome, ``keep_freed_heap``'s result and pytest's
    output, from one fresh process that keeps glibc's default heap policy:
    in this process the first ``train_adapters`` has set it for good."""
    result = tmp_path_factory.mktemp("default_heap") / "result.json"
    root = Path(__file__).resolve().parents[1]
    nodes = [pin_node(shards, pin) for shards in (1, 3) for pin in MODEL_PINS]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", DEFAULT_HEAP_SCRIPT, str(result), *nodes],
                          capture_output=True, text=True, env=env, cwd=str(root), timeout=300)
    assert result.exists(), proc.stdout + proc.stderr
    return (*json.loads(result.read_text(encoding="utf-8")), proc.stdout)


@pytest.mark.parametrize("pin", MODEL_PINS)
@pytest.mark.parametrize("shards", [1, 3])
def test_model_pins_hold_under_the_default_heap_policy(default_heap_run, shards, pin):
    """Each model pin, at one row shard and at three, gives the same digest
    where malloc keeps its default policy, as where the C library has no
    ``mallopt``: the heap policy changes speed only."""
    outcomes, heap_kept, output = default_heap_run
    assert outcomes.get(pin_node(shards, pin)) == "passed", output
    assert heap_kept is False  # the run trained, and found no mallopt
