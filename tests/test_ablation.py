import json

import pytest

from adapterqa.ablation import (
    AblationConfig,
    apply_ablation,
    cost_plan,
    grid_ablation_plan,
    manifest_lines,
    uniform_ablation_plan,
)
from adapterqa.adapters import AdapterSet, ModelDims, REFERENCE_DIMS, count_adapter_params
from adapterqa.errors import InputError

PER_LAYER = REFERENCE_DIMS.params_per_layer


def test_uniform_plan_has_twelve_entries():
    plan = uniform_ablation_plan()
    assert len(plan) == 12
    assert plan[0].removed_encoder == (0,)
    assert plan[0].removed_decoder == (12,)
    assert plan[0].label == "(0-0, 12-12)"


def test_uniform_plan_last_entry_removes_everything():
    plan = uniform_ablation_plan()
    last = plan[-1]
    assert last.removed_encoder == tuple(range(12))
    assert last.removed_decoder == tuple(range(12, 24))
    remaining = apply_ablation(AdapterSet.full(REFERENCE_DIMS), last)
    assert count_adapter_params(REFERENCE_DIMS, remaining) == (0, 0.0)


def test_uniform_plan_counts_strictly_decrease():
    counts = [row["trainable"] for row in cost_plan(uniform_ablation_plan())]
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_grid_plan_shape_and_first_element():
    plan = grid_ablation_plan()
    assert len(plan) == 36
    first = plan[0]
    assert first.label == "(0-6, 12-18)"
    assert first.removed_encoder == tuple(range(0, 7))
    assert first.removed_decoder == tuple(range(12, 19))
    # row-major: encoder removal deepens first
    assert plan[1].label == "(0-7, 12-18)"
    assert plan[6].label == "(0-6, 12-19)"


def test_grid_plan_closed_form_costs():
    for row in cost_plan(grid_ablation_plan()):
        n_enc_removed = len(row["removed_encoder"])
        n_dec_removed = len(row["removed_decoder"])
        assert row["trainable"] == PER_LAYER * (24 - n_enc_removed - n_dec_removed)


@pytest.mark.parametrize(
    "label,count,percent",
    [
        ("(0-6, 12-18)", 2_643_200, 0.65),
        ("(0-8, 12-20)", 1_585_920, 0.39),
        ("(0-10, 12-22)", 528_640, 0.13),
        ("(0-11, 12-22)", 264_320, 0.07),
        ("(0-11, 12-23)", 0, 0.0),
    ],
)
def test_specific_grid_costs(label, count, percent):
    rows = {row["label"]: row for row in cost_plan(grid_ablation_plan())}
    assert rows[label]["trainable"] == count
    assert rows[label]["percent"] == percent


def test_apply_ablation_is_idempotent():
    config = grid_ablation_plan()[5]
    full = AdapterSet.full(REFERENCE_DIMS)
    once = apply_ablation(full, config)
    twice = apply_ablation(once, config)
    assert once == twice


def test_uniform_requires_symmetric_modules():
    dims = ModelDims(d_model=8, bottleneck=2, n_encoder_layers=2, n_decoder_layers=3)
    with pytest.raises(InputError):
        uniform_ablation_plan(dims)


def test_plans_scale_to_toy_dims():
    dims = ModelDims(d_model=32, bottleneck=8, n_encoder_layers=2, n_decoder_layers=2)
    assert len(uniform_ablation_plan(dims)) == 2
    grid = grid_ablation_plan(dims)
    assert len(grid) == 1
    assert grid[0].label == "(0-1, 2-3)"


def test_cost_plan_refuses_a_plan_for_other_dims():
    """A reference plan costed against a 4+4-layer toy would remove layers
    the toy lacks; its last row would claim every adapter gone yet count
    trainable scalars."""
    with pytest.raises(InputError, match="decoder layer indices out of range"):
        cost_plan(uniform_ablation_plan(REFERENCE_DIMS), ModelDims(8, 2, 4, 4))
    # Decoder layers 4..23 cover the plan's 12..23; encoder layers 0..3 do not.
    with pytest.raises(InputError, match="encoder layer indices out of range"):
        cost_plan(grid_ablation_plan(REFERENCE_DIMS), ModelDims(8, 2, 4, 20))


def test_manifest_lines_are_deterministic_jsonl():
    rows = cost_plan(grid_ablation_plan())
    text_a = manifest_lines(rows)
    text_b = manifest_lines(cost_plan(grid_ablation_plan()))
    assert text_a == text_b
    lines = text_a.strip().split("\n")
    assert len(lines) == 36
    parsed = json.loads(lines[0])
    assert set(parsed) == {"label", "removed_encoder", "removed_decoder", "trainable", "percent"}


def test_empty_range_label():
    config = AblationConfig.make(range(0, 0), range(12, 15))
    assert config.label == "(-, 12-14)"
    assert config.removed_encoder == ()
