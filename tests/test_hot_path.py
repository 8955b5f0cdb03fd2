"""Exact tests of the toy model's hot path.

The row reductions, the shared causal mask, the fused Adam pass and the
cache-free copy forwards each replace a simpler path; each is checked
here bit for bit against the path it replaces. Training runs the frozen
work below the lowest adapter once, in a prefix that stores no cache;
a test of the caches left after training pins where that work ends.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adapterqa.ablation import apply_ablation, grid_ablation_plan
from adapterqa import toymodel
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    ADAM_RUN_SCALARS,
    ToyConfig,
    TrainConfig,
    _causal_mask,
    _row_max,
    _row_mean,
    _row_sum,
    build_toy_model,
    grad_check,
    train_adapters,
)
from test_trainability import DIMS, FULL, batch, build, reference_train

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def rows(draw):
    """float64 or float32 arrays of 1-3 rows of width 1-300, any values
    including -0.0, infinities and NaN."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 300)))
    width = 64 if dtype is np.float64 else 32
    elements = st.floats(width=width) | st.sampled_from(SPECIAL)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(deadline=None, max_examples=200)
@given(rows())
@example(np.array([[-0.0, -0.0, -0.0]]))
@example(np.array([[np.inf, -np.inf, 1.0]], dtype=np.float32))
@example(np.array([[np.nan, 2.0], [-0.0, np.inf]]))
@example(np.full((2, 300), 0.1, dtype=np.float32))
@example(np.full((1, 7), np.finfo(np.float64).max))
def test_row_reductions_equal_ndarray_methods(x):
    for fast, method in ((_row_mean, x.mean), (_row_sum, x.sum), (_row_max, x.max)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = fast(x), method(axis=-1, keepdims=True)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), fast.__name__


def test_causal_mask_is_shared_and_read_only():
    for t in (1, 2, 5):
        mask = _causal_mask(t)
        assert mask is _causal_mask(t)
        assert mask.tobytes() == np.tril(np.ones((t, t), dtype=bool)).tobytes()
        with pytest.raises(ValueError):
            mask[0, -1] = True


def build_single(adapter_set: AdapterSet):
    return build_toy_model(ToyConfig(
        d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
        n_encoder_layers=DIMS.n_encoder_layers, n_decoder_layers=DIMS.n_decoder_layers,
        n_heads=2, vocab_size=16, max_len=8, seed=6, adapter_set=adapter_set,
        precision="single",
    ))


GRID_ROWS = [apply_ablation(FULL, row) for row in grid_ablation_plan(DIMS)]
GRID_ROW_3 = GRID_ROWS[3]


@pytest.mark.parametrize("run_scalars", [ADAM_RUN_SCALARS, 20, 7, 1])
@pytest.mark.parametrize("adapter_set", [
    FULL, AdapterSet.of(decoder_layers=[5]), AdapterSet.of(encoder_layers=[0, 2]), GRID_ROW_3,
], ids=["full", "decoder-5", "encoder-0-2", "grid-row-3"])
def test_fused_adam_matches_per_tensor_adam_in_single_precision(adapter_set, run_scalars):
    """The per-tensor oracle keeps its moments in the parameters' float32;
    flat moments of any other dtype would round each update differently.
    At the default slice size one slice holds every scalar of this toy; at
    20, 7 and 1 scalars the slice boundaries fall inside tensors."""
    source, target = batch()
    cfg = TrainConfig(learning_rate=0.05, steps=6)
    model, reference = build_single(adapter_set), build_single(adapter_set)
    with mock.patch.object(toymodel, "ADAM_RUN_SCALARS", run_scalars):
        log = train_adapters(model, source, target, cfg)
    losses, final_loss = reference_train(reference, source, target, cfg)
    assert (log.losses, log.final_loss) == (losses, final_loss)
    trained = model.trainable_parameters()
    for mine, theirs in zip(trained, reference.trainable_parameters(), strict=True):
        assert mine.value.dtype == np.float32
        assert mine.value.tobytes() == theirs.value.tobytes(), mine.name
    if adapter_set == GRID_ROW_3:
        assert trained == [] and len(set(log.losses)) == 1
    else:
        assert log.final_loss < log.initial_loss


def modules(model):
    for layer in [*model.encoder, *model.decoder]:
        for block in layer.blocks:
            yield from (m for m in (block.sublayer, block.norm, block.adapter) if m is not None)


def cached_arrays(module):
    cache = module._cache
    return [cache] if isinstance(cache, np.ndarray) else [
        a for a in cache or () if isinstance(a, np.ndarray)]


def audit_model():
    model = build_toy_model(ToyConfig(
        d_model=4, bottleneck=3, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=16, max_len=8, seed=6))
    model.randomize_adapters(seed=7)
    return model


def test_audit_copy_forwards_store_no_caches():
    """Every cache left after the audit is from its one unperturbed
    forward, of batch ``B``; none has the copy batch ``2 * chunk * B``
    (``GRAD_CHECK_CHUNK`` scalars per chunk)."""
    source, target = batch()
    model = audit_model()
    grad_check(model, source, target, eps=1e-6)
    arrays = [a for m in modules(model) for a in cached_arrays(m)]
    assert len(arrays) > 0
    assert {a.shape[0] for a in arrays} == {source.shape[0]}


def test_prefix_keeps_the_caches_of_an_earlier_forward():
    source, target = batch()
    model = audit_model()
    model.forward(source, target)
    before = [(m, m._cache) for m in modules(model)]
    for start in range(model.n_layers + 1):
        model.prefix(source[:, :4], target[:, :4], start)
    assert all(m._cache is cache for m, cache in before)


@pytest.mark.parametrize("adapter_set, bottoms", [
    (FULL, (0, 0)),
    (AdapterSet.of(encoder_layers=DIMS.encoder_layer_indices()), (0, 0)),
    (AdapterSet.of(decoder_layers=DIMS.decoder_layer_indices()), (None, 0)),
    (GRID_ROWS[0], (3, 0)),
    (GRID_ROWS[1], (None, 3)),
    (GRID_ROWS[2], (3, 0)),
    (GRID_ROW_3, (None, None)),
], ids=["full", "encoder-only", "decoder-only", "grid-row-0", "grid-row-1", "grid-row-2",
        "grid-row-3"])
def test_training_caches_nothing_below_the_lowest_adapter(adapter_set, bottoms):
    """After ``train_adapters`` on a fresh model, block 0's sublayer and
    norm in the bottom layer of each stack that runs (``bottoms``, the
    encoder's and the decoder's; None when no layer of that stack runs),
    and every layer below it, hold no cache: that work ran once, in the
    prefix, and never backward. Every block above holds one. Grid row 3
    has no adapters, so nothing holds a cache."""
    model = build(adapter_set, randomize=False)
    train_adapters(model, *batch(), TrainConfig(steps=2))
    for stack, bottom in zip((model.encoder, model.decoder), bottoms, strict=True):
        bottom = len(stack) if bottom is None else bottom
        for index, layer in enumerate(stack):
            for block_index, block in enumerate(layer.blocks):
                below = index < bottom or (index == bottom and block_index == 0)
                for module in (block.sublayer, block.norm):
                    assert (module._cache is None) == below, (layer.name, block_index)
                assert block.adapter is None or block.adapter._cache is not None
