"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from adapterqa.ablation import (
    apply_ablation,
    cost_plan,
    grid_ablation_plan,
    uniform_ablation_plan,
)
from adapterqa.adapters import AdapterSet, REFERENCE_DIMS, count_adapter_params
from adapterqa.linearize import flatten_headers, linearize
from adapterqa.metrics import (
    lcs_length,
    rouge_l,
    rouge_n,
    sacrebleu_corpus,
)
from adapterqa.toymodel import (
    ToyConfig,
    TrainConfig,
    build_toy_model,
    grad_check,
    make_copy_task,
    train_adapters,
)

from gen_tables import linearize_oracle, random_table
from metric_oracles import lcs_exhaustive
from table_oracles import Cell, HierarchicalTable, resolve


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_parameter_table_reproduction(tmp_path, capsys):
    import json

    from adapterqa.cli import main as cli_main

    start = time.monotonic()
    rows = [
        ((), (), 6_343_680, 1.56),
        (range(0, 3), range(12, 15), 4_757_760, 1.17),
        (range(0, 5), range(12, 17), 3_700_480, 0.91),
        (range(0, 7), range(12, 19), 2_643_200, 0.65),
        (range(0, 9), range(12, 21), 1_585_920, 0.39),
        (range(0, 11), range(12, 23), 528_640, 0.13),
        (range(0, 12), range(12, 23), 264_320, 0.07),
    ]
    for removed_enc, removed_dec, expected_count, expected_percent in rows:
        active = AdapterSet(
            encoder_layers=frozenset(range(12)) - set(removed_enc),
            decoder_layers=frozenset(range(12, 24)) - set(removed_dec),
        )
        count, percent = count_adapter_params(REFERENCE_DIMS, active)
        assert count == expected_count, (removed_enc, removed_dec)
        assert percent == expected_percent, (removed_enc, removed_dec)
        # same row through the count-params CLI surface
        ablation_path = tmp_path / "ablation.json"
        ablation_path.write_text(
            json.dumps({"removed_encoder": list(removed_enc),
                        "removed_decoder": list(removed_dec)}),
            encoding="utf-8",
        )
        assert cli_main(["count-params", "--ablation", str(ablation_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trainable"] == expected_count
        assert payload["percent"] == expected_percent
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"all 7 reference parameter rows exact (library and CLI) in {elapsed:.3f}s")


def test_criterion_2_worked_header_flattening():
    start = time.monotonic()
    table = HierarchicalTable(
        title="t",
        header_rows=[
            [Cell("a", colspan=2), Cell("b", rowspan=2), Cell("e")],
            [Cell("d", colspan=2), Cell("f")],
        ],
        body_rows=[],
    )
    keys = list(flatten_headers(resolve(table)))
    assert keys == ["a(d)", "a(d)", "b", "e(f)"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"worked header flattens to {keys} in {elapsed:.3f}s")


def test_criterion_3_ablation_enumeration():
    start = time.monotonic()
    uniform = uniform_ablation_plan()
    grid = grid_ablation_plan()
    assert len(uniform) == 12
    assert len(grid) == 36
    assert grid[0].label == "(0-6, 12-18)"
    per_layer = REFERENCE_DIMS.params_per_layer
    for config in grid:
        remaining = apply_ablation(AdapterSet.full(REFERENCE_DIMS), config)
        count, _ = count_adapter_params(REFERENCE_DIMS, remaining)
        closed_form = per_layer * (
            24 - len(config.removed_encoder) - len(config.removed_decoder)
        )
        assert count == closed_form, config.label
    costed = cost_plan(grid)
    assert len(costed) == 36
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(3, f"12 uniform + 36 grid configs, closed-form costs, in {elapsed:.3f}s")


def test_criterion_4_linearizer_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(6)
    for i in range(1000):
        table = random_table(rng, max_width=6, max_header_rows=3, max_body_rows=6)
        resolved = resolve(table)
        flat = linearize(resolved)
        assert flat.text == linearize_oracle(table, resolved.width), f"table {i}"
        assert flat.pair_count == resolved.n_body_rows * resolved.width, f"table {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(4, f"1000 random tables match the occupancy oracle in {elapsed:.2f}s")


def test_criterion_5_metric_correctness():
    start = time.monotonic()

    identical = ["the cat sat on the mat", "another full sentence of tokens"]
    assert sacrebleu_corpus(identical, list(identical)) == pytest.approx(100.0)
    for text in identical:
        assert rouge_n(text, text, 1).f1 == 1.0
        assert rouge_n(text, text, 2).f1 == 1.0
        assert rouge_l(text, text).f1 == 1.0

    assert rouge_n("the cat sat", "the cat sat on the mat", 2).f1 == pytest.approx(
        4 / 7, abs=1e-4
    )
    assert rouge_l("the cat", "the cat sat").f1 == pytest.approx(0.8, abs=1e-9)

    # oracle for the BLEU pair: hand-counted modified precisions
    oracle = 100.0 * math.exp(
        sum(math.log(p) for p in (5 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4
    )
    got = sacrebleu_corpus(["the cat sat on the mat"], ["the cat sat on a mat"])
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(53.73, abs=0.01)

    rng = random.Random(6)
    alphabet = ["a", "b", "c"]
    for i in range(500):
        left = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        right = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        assert lcs_length(left, right) == lcs_exhaustive(left, right), f"pair {i}"

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(5, f"hand examples, identity scores, and 500 LCS pairs in {elapsed:.2f}s")


def test_criterion_6_adapter_numerics():
    start = time.monotonic()

    # zero-init identity, bit exact
    adapted = build_toy_model(ToyConfig(seed=6))
    base = build_toy_model(ToyConfig(seed=6, adapter_set=AdapterSet.empty()))
    rng = np.random.default_rng(6)
    source = rng.integers(2, 64, size=(4, 6))
    target = rng.integers(2, 64, size=(4, 6))
    _, logits_adapted = adapted.forward(source, target)
    _, logits_base = base.forward(source, target)
    assert logits_adapted.tobytes() == logits_base.tobytes()

    # gradient check on the default toy configuration, double precision
    model = build_toy_model(ToyConfig(seed=6))
    model.randomize_adapters(seed=7)
    check = grad_check(model, source[:2], target[:2], eps=1e-5)
    assert check.max_rel_error < 1e-4

    # freezing contract across 200 training steps + copy-task overfit
    model = build_toy_model(ToyConfig(seed=6))
    frozen_before = {
        p.name: p.value.tobytes() for p in model.parameters() if not p.trainable
    }
    copy_source, copy_target = make_copy_task(
        n_examples=32, seq_len=6, vocab_size=64, seed=6
    )
    model.forward_backward(copy_source, copy_target)
    for param in model.parameters():
        if not param.trainable:
            assert param.grad is None, param.name
    log = train_adapters(
        model, copy_source, copy_target,
        TrainConfig(learning_rate=1e-2, steps=200, optimizer="adam"),
    )
    for param in model.parameters():
        if not param.trainable:
            assert param.value.tobytes() == frozen_before[param.name], param.name
    assert log.final_loss < 0.1 * log.initial_loss

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        6,
        f"identity bit-exact, grad error {check.max_rel_error:.2e}, frozen intact, "
        f"copy loss {log.initial_loss:.3f}->{log.final_loss:.4f} in {elapsed:.1f}s",
    )


def test_criterion_7_full_scale_scores_excluded():
    # Reproducing the published evaluation scores and ablation score surfaces
    # requires full-scale pretrained training runs; the toolkit deliberately
    # ships no path for that, and criteria 1-6 stand in for it.
    import adapterqa

    assert not hasattr(adapterqa, "load_pretrained")
    report(7, "full-scale score reproduction is out of scope by design (criteria 1-6 substitute)")
