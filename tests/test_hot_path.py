"""Exact tests of the toy model's hot path.

The row reductions, the shared causal mask, the fused Adam pass and the
cache-free copy forwards each replace a simpler path; each is checked
here bit for bit against the path it replaces. Training runs the frozen
work below the lowest adapter once, in a prefix that stores no cache;
a test of the caches left after training pins where that work ends.

Each training activation is held once: an adapter caches only its
bottleneck activation and is handed its input in backward, recomputed
from the norm below it or read from the prefix its forward began at. Tests
pin that saving, bit for bit and by a traced memory bound, and check
that the tails written in place never write into an input, a returned
array or a cache.
"""

import tracemalloc
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
    AdapterModule,
    Attention,
    LayerNorm,
    Linear,
    ToyConfig,
    TrainConfig,
    _bottleneck,
    _causal_mask,
    _row_max,
    _row_mean,
    _row_sum,
    build_toy_model,
    grad_check,
    make_copy_task,
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


# Every adapted set of the 4+4 toy that the saving tests run on, with the
# bottom layer of each stack, in which a prefix at the lowest adapter ends
# the stream after block 0's add&norm.
ADAPTED = [
    (FULL, (0, 0)),
    (AdapterSet.of(encoder_layers=DIMS.encoder_layer_indices()), (0, 0)),
    (AdapterSet.of(decoder_layers=DIMS.decoder_layer_indices()), (None, 0)),
    (GRID_ROWS[0], (3, 0)),
    (GRID_ROWS[1], (None, 3)),
    (GRID_ROWS[2], (3, 0)),
]
ADAPTED_IDS = ["full", "encoder-only", "decoder-only", "grid-row-0", "grid-row-1", "grid-row-2"]
over_adapted_sets = pytest.mark.parametrize(
    "adapter_set", [adapter_set for adapter_set, _ in ADAPTED], ids=ADAPTED_IDS)


@pytest.mark.parametrize("adapter_set, bottoms", [*ADAPTED, (GRID_ROW_3, (None, None))],
                         ids=[*ADAPTED_IDS, "grid-row-3"])
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


@over_adapted_sets
def test_no_adapter_caches_the_stream_it_reads(adapter_set):
    """After a cached forward, full or from a prefix, each adapter holds
    only its (batch, length, bottleneck) activation, never a
    (batch, length, d_model) array."""
    assert DIMS.bottleneck != DIMS.d_model
    model = build(adapter_set)
    source, target = batch()
    for prefix in (None, model.prefix(source, target, model.lowest_trainable)):
        model.forward(source, target, prefix)
        for _, _, adapter in model.adapters():
            shapes = [a.shape for a in cached_arrays(adapter)]
            assert [(s[0], s[-1]) for s in shapes] == [(source.shape[0], DIMS.bottleneck)]


@over_adapted_sets
@pytest.mark.parametrize("precision", ["double", "single"])
def test_each_adapter_input_is_recomputed_bit_for_bit(adapter_set, precision):
    """The stream ``ToyModel.adapter_input`` gives each adapter is
    byte-equal to the array the last forward handed it: a forward from
    layer 0, then one from the default prefix, then one from layer 0
    again, so neither a stale norm cache nor a stale prefix array is read."""
    model = build_single(adapter_set) if precision == "single" else build(adapter_set)
    model.randomize_adapters(seed=7)
    source, target = batch()
    prefix = model.prefix(source, target, 0)
    forward = AdapterModule.forward
    handed = {}

    def recording(self, x, cache=True):
        handed[id(self)] = x.copy()
        return forward(self, x, cache)

    for run_prefix in (prefix, None, prefix):
        handed.clear()
        with mock.patch.object(AdapterModule, "forward", recording):
            model.forward(source, target, run_prefix)
        adapters = list(model.adapters())
        assert len(handed) == len(adapters) > 0
        for index, block, adapter in adapters:
            got, want = model.adapter_input(index, block), handed[id(adapter)]
            assert got.dtype == want.dtype == model.theta.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("adapter_set, bottoms", ADAPTED, ids=ADAPTED_IDS)
def test_a_resumed_bottom_block_reads_the_prefix_array(adapter_set, bottoms):
    """In the bottom layer of each stack where the prefix at the lowest
    adapter ends the stream, block 0's adapter is handed the prefix's own
    array, not a copy of it; the truncated backward then matches a full
    one (test_trainability)."""
    model = build(adapter_set)
    source, target = batch()
    prefix = model.prefix(source, target, model.lowest_trainable)
    model.forward_backward(source, target, prefix)
    resumed = 0
    for offset, bottom, stream in zip((0, DIMS.n_encoder_layers), bottoms,
                                      (prefix.enc, prefix.dec), strict=True):
        if bottom is not None:
            assert model.adapter_input(offset + bottom, 0) is stream
            resumed += 1
    assert resumed > 0


# Traced peak of ``train_adapters`` (3 Adam steps, batch 8 x 16) on a width-64,
# 2+2-layer toy, in MB, as this tree gives it with numpy 2.4 on Python 3.11.
# The grid-row sets keep the layers that rows 0-2 of the 4+4 grid keep: the
# top layer of both stacks, of the decoder, of the encoder. Before adapters
# stopped caching their input and the loss its extra logit-sized arrays
# the peaks were 3.52, 3.05, 2.58, 2.73, 1.41 and 2.50 MB.
TRACED_PEAK_MB = [
    (AdapterSet.of([0, 1], [2, 3]), 2.97),
    (AdapterSet.of([0, 1], []), 2.69),
    (AdapterSet.of([], [2, 3]), 2.23),
    (AdapterSet.of([1], [3]), 2.37),
    (AdapterSet.of([], [3]), 1.18),
    (AdapterSet.of([1], []), 2.27),
]
PEAK_MARGIN = 1.04  # below every earlier peak, above this tree's by 4%


@pytest.mark.parametrize("adapter_set, peak_mb", TRACED_PEAK_MB, ids=ADAPTED_IDS)
def test_training_peak_stays_under_its_traced_bound(adapter_set, peak_mb):
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=64, max_len=16, seed=6, adapter_set=adapter_set))
    source, target = make_copy_task(n_examples=8, seq_len=16, vocab_size=64, seed=3)
    tracemalloc.start()
    try:
        train_adapters(model, source, target, TrainConfig(steps=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= peak_mb * PEAK_MARGIN * 1e6


@st.composite
def streams(draw):
    """Random inputs for the sublayers and the adapter formula: a
    (copies * batch, length, width) stream, as the audit's copy forwards
    fold their copies into the batch axis, in float64 or float32."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    copies, b, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n_heads, d_head = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng, dtype, copies, (b, t, n_heads * d_head), n_heads


def assert_leaves_alone(fn, *arrays):
    """Call ``fn`` and check it left every array byte-identical; returns
    its result."""
    before = [a.tobytes() for a in arrays]
    out = fn()
    assert [a.tobytes() for a in arrays] == before
    return out


@settings(deadline=None, max_examples=60)
@given(streams(), st.booleans(), st.booleans())
def test_in_place_tails_leave_their_inputs_alone(case, cache, causal):
    """The sublayers and the adapter formula write their elementwise tails
    into arrays of their own: every input and weight stays byte-identical,
    with and without a cache, and a cached norm's output never shares
    memory with its cache."""
    rng, dtype, copies, (b, t, d), n_heads = case

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x, other = draw(copies * b, t, d), draw(copies * b, t + 1, d)
    linear = Linear("l", draw(d, d + 1), draw(d + 1))
    assert_leaves_alone(lambda: linear.forward(x), x, linear.w.value, linear.b.value)

    norm = LayerNorm("n", d)
    norm.gamma.value, norm.beta.value = draw(d), draw(d)
    out = assert_leaves_alone(lambda: norm.forward(x, cache), x, norm.gamma.value,
                              norm.beta.value)
    if cache:
        assert not np.shares_memory(out, norm._cache[0])
        assert norm.output().tobytes() == out.tobytes()

    attention = Attention("a", d, n_heads, rng, causal)
    for p in attention.parameters():
        p.value = p.value.astype(dtype)
    weights = [p.value for p in attention.parameters()]
    assert_leaves_alone(lambda: attention.forward(x, x, cache), x, *weights)
    if not causal:
        assert_leaves_alone(lambda: attention.forward(x, other, cache), x, other, *weights)

    h = draw(b, t, d)
    adapter = [draw(d, 2), draw(2), draw(2, d), draw(d)]
    assert_leaves_alone(lambda: _bottleneck(h, *adapter), h, *adapter)
    for which, value in enumerate(adapter):
        stacked = draw(2 * copies, *(1,) * (h.ndim - value.ndim), *value.shape)
        weights = [*adapter[:which], stacked, *adapter[which + 1:]]
        assert_leaves_alone(lambda: _bottleneck(h, *weights), h, *weights)


@over_adapted_sets
def test_returned_logits_and_cached_arrays_are_never_written(adapter_set):
    """The logits a forward returns survive its backward and the next
    forward, and a forward's caches survive every ``prefix()``."""
    model = build(adapter_set)
    source, target = batch()
    prefix = model.prefix(source, target, model.lowest_trainable)
    for run_prefix in (None, prefix):
        _, logits = model.forward(source, target, run_prefix)
        snapshot = logits.tobytes()
        model.backward()
        model.forward(source, target, run_prefix)
        assert logits.tobytes() == snapshot
    cached = [a for m in modules(model) for a in cached_arrays(m)]
    before = [a.tobytes() for a in cached]
    for start in range(model.n_layers + 1):
        model.prefix(source, target, start)
    assert [a.tobytes() for a in cached] == before
