"""Exact tests of the toy model's hot path.

The row reductions, the shared causal mask, the fused Adam pass and the
tape-free copy forwards each replace a simpler path; each is checked
here bit for bit against the path it replaces. Training runs the frozen
work below the lowest adapter once, in a prefix that tapes nothing; a
test of what training tapes pins where that work ends.

Each training activation is held once: an adapter tapes only its
bottleneck activation and is handed its input in backward, recomputed
from the norm's entry below it or read from the prefix its forward began
at. Tests pin that saving, bit for bit and by a traced memory bound, and
check that the tails written in place never write into an input, a
returned array or a taped cache.
"""

import contextlib
import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adapterqa.ablation import apply_ablation, grid_ablation_plan
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    MANY_ROWS,
    SHORT_ROW_WIDTH,
    AdapterModule,
    Attention,
    FeedForward,
    LayerNorm,
    Linear,
    ToyConfig,
    ToyModel,
    TrainConfig,
    _bottleneck,
    _future_mask,
    _row_max,
    _row_mean,
    _row_sum,
    build_toy_model,
    grad_check,
    make_copy_task,
    train_adapters,
)
from step_shards import step_shards
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


# A quiet NaN of each sign, and one with a payload bit set, as bit patterns.
NAN_BITS = {np.float64: (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001),
            np.float32: (0x7FC00000, 0xFFC00000, 0x7FC00001)}


def nans(dtype, *kinds: int) -> np.ndarray:
    bits = np.uint64 if dtype is np.float64 else np.uint32
    return np.array([NAN_BITS[dtype][kind] for kind in kinds], bits).view(dtype)


@st.composite
def many_short_rows(draw):
    """float64 or float32 arrays of 256-4,000 rows of 1-64 scalars, on both
    sides of ``_row_max``'s width bound: normal draws, all negative in
    some arrays so that a +0.0/-0.0 tie is the maximum, with zeros of
    both signs, infinities and NaNs of three bit patterns scattered in."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = (draw(st.integers(MANY_ROWS, 4000)),
             draw(st.integers(1, 2 * SHORT_ROW_WIDTH)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape).astype(dtype)
    if draw(st.booleans()):
        np.negative(np.abs(x), out=x)
    for value, rate in ((0.0, 0.05), (-0.0, 0.05), (np.inf, 0.01), (-np.inf, 0.01)):
        x[rng.random(shape) < draw(st.sampled_from([0.0, rate]))] = value
    for kind in draw(st.sets(st.integers(0, 2))):
        x[rng.random(shape) < 0.01] = nans(dtype, kind)[0]
    return x


def signed_zero_ties(width: int, dtype) -> np.ndarray:
    """Rows of negatives whose maximum is a tie of -0.0 and +0.0 at two
    neighbouring places, met in either order."""
    x = np.full((MANY_ROWS, width), -1.0, dtype)
    rows = np.arange(MANY_ROWS)
    x[rows, rows % width] = np.where(rows % 2, 0.0, -0.0)
    x[rows, (rows + 1) % width] = np.where(rows % 2, -0.0, 0.0)
    return x


def mixed_nans(width: int, dtype) -> np.ndarray:
    """Rows that each hold two NaNs of opposite sign, in either order."""
    x = np.arange(MANY_ROWS * width, dtype=dtype).reshape(-1, width)
    x[:, [0, -1]] = nans(dtype, 0, 1)
    x[1::2, [0, -1]] = nans(dtype, 1, 0)
    return x


@settings(deadline=None, max_examples=60)
@given(many_short_rows())
@example(signed_zero_ties(16, np.float64))
@example(signed_zero_ties(17, np.float32))
@example(signed_zero_ties(512, np.float64))
@example(mixed_nans(6, np.float64))
@example(mixed_nans(32, np.float32))
@example(mixed_nans(512, np.float32))
def test_row_max_of_many_short_rows_equals_ndarray_max(x):
    """Arrays of many short rows take the copy with the rows' axis
    leading; its result must be the bytes of ``ndarray.max`` even where a
    signed-zero tie or a NaN makes the order of the maxima show."""
    got, want = _row_max(x), x.max(axis=-1, keepdims=True)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_future_mask_is_shared_and_read_only():
    for t in (1, 2, 5):
        mask = _future_mask(t)
        assert mask is _future_mask(t)
        assert mask.tobytes() == (~np.tril(np.ones((t, t), dtype=bool))).tobytes()
        with pytest.raises(ValueError):
            mask[0, -1] = False


def build_single(adapter_set: AdapterSet):
    return build_toy_model(ToyConfig(
        d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
        n_encoder_layers=DIMS.n_encoder_layers, n_decoder_layers=DIMS.n_decoder_layers,
        n_heads=2, vocab_size=16, max_len=8, seed=6, adapter_set=adapter_set,
        precision="single",
    ))


GRID_ROWS = [apply_ablation(FULL, row) for row in grid_ablation_plan(DIMS)]
GRID_ROW_3 = GRID_ROWS[3]


@pytest.mark.parametrize("adapter_set", [
    FULL, AdapterSet.of(decoder_layers=[5]), AdapterSet.of(encoder_layers=[0, 2]), GRID_ROW_3,
], ids=["full", "decoder-5", "encoder-0-2", "grid-row-3"])
def test_fused_adam_matches_per_tensor_adam_in_single_precision(adapter_set):
    """The per-tensor oracle keeps its moments in the parameters' float32;
    flat moments of any other dtype would round each update differently."""
    source, target = batch()
    cfg = TrainConfig(learning_rate=0.05, steps=6)
    model, reference = build_single(adapter_set), build_single(adapter_set)
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


@contextlib.contextmanager
def taped():
    """Record every forward of a sublayer, norm or adapter made inside:
    the module, its input's batch rows, and the entry it taped, or None
    when it was handed no tape."""
    records = []
    with contextlib.ExitStack() as stack:
        for cls in (Attention, FeedForward, LayerNorm, AdapterModule):
            forward = cls.forward
            signature = inspect.signature(forward)

            def recording(self, *args, _forward=forward, _signature=signature, **kwargs):
                tape = _signature.bind(self, *args, **kwargs).arguments.get("tape")
                out = _forward(self, *args, **kwargs)
                records.append((self, args[0].shape[0], None if tape is None else tape[-1]))
                return out

            stack.enter_context(mock.patch.object(cls, "forward", recording))
        yield records


def taped_arrays(step):
    """Every array on the tapes of ``step``."""
    return [a for tape in step._tapes for entry in tape
            for a in (entry if isinstance(entry, tuple) else (entry,)) if isinstance(a, np.ndarray)]


def audit_model():
    model = build_toy_model(ToyConfig(
        d_model=4, bottleneck=3, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=16, max_len=8, seed=6))
    model.randomize_adapters(seed=7)
    return model


def test_audit_copy_forwards_store_no_caches():
    """Only the audit's one unperturbed forward tapes, on batch ``B``; no
    forward on a copy batch (``grad_check_copies`` copies of ``B`` rows)
    is handed a tape, and the audit's backward takes the tapes off its
    step."""
    source, target = batch()
    model = audit_model()
    forward, steps = ToyModel.forward, []

    def recording(self, *args):
        steps.append(forward(self, *args))
        return steps[-1]

    with taped() as records, mock.patch.object(ToyModel, "forward", recording):
        grad_check(model, source, target, eps=1e-6)
    assert {rows for _, rows, entry in records if entry is not None} == {source.shape[0]}
    assert {rows for _, rows, _ in records} > {source.shape[0]}
    assert [step._tapes for step in steps] == [None]


def test_prefix_keeps_the_caches_of_an_earlier_forward():
    """``prefix()`` tapes nothing and leaves the tapes of a step as they
    were."""
    source, target = batch()
    model = audit_model()
    step = model.forward(source, target)
    before = [list(tape) for tape in step._tapes]
    with taped() as records:
        for start in range(model.n_layers + 1):
            model.prefix(source[:, :4], target[:, :4], start)
    assert records and all(entry is None for _, _, entry in records)
    assert len(step._tapes) == len(before)
    for tape, kept in zip(step._tapes, before, strict=True):
        assert len(tape) == len(kept) and all(a is b for a, b in zip(tape, kept))


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
    """During ``train_adapters`` on a fresh model, block 0's sublayer and
    norm in the bottom layer of each stack that runs (``bottoms``, the
    encoder's and the decoder's; None when no layer of that stack runs),
    and every layer below it, tape nothing: that work ran once, in the
    prefix, and never backward. Every block above tapes its caches. Grid
    row 3 has no adapters, so nothing tapes a cache."""
    model = build(adapter_set, randomize=False)
    with taped() as records:
        train_adapters(model, *batch(), TrainConfig(steps=2))
    cached = {id(module) for module, _, entry in records if entry is not None}
    for stack, bottom in zip((model.encoder, model.decoder), bottoms, strict=True):
        bottom = len(stack) if bottom is None else bottom
        for index, layer in enumerate(stack):
            for block_index, block in enumerate(layer.blocks):
                below = index < bottom or (index == bottom and block_index == 0)
                for module in (block.sublayer, block.norm):
                    assert (id(module) not in cached) == below, (layer.name, block_index)
                assert block.adapter is None or id(block.adapter) in cached


@over_adapted_sets
def test_no_adapter_caches_the_stream_it_reads(adapter_set):
    """In a forward, full or from a prefix, each adapter tapes only its
    (batch, length, bottleneck) activation, never a (batch, length,
    d_model) array."""
    assert DIMS.bottleneck != DIMS.d_model
    model = build(adapter_set)
    source, target = batch()
    for prefix in (None, model.prefix(source, target, model.lowest_trainable)):
        with taped() as records:
            model.forward(source, target, prefix)
        adapters = {id(adapter) for _, _, adapter in model.adapters()}
        entries = [entry for module, _, entry in records if id(module) in adapters]
        assert len(entries) == len(adapters)
        assert all(isinstance(entry, np.ndarray) for entry in entries)
        assert {(e.shape[0], e.shape[-1]) for e in entries} == {(source.shape[0], DIMS.bottleneck)}


@over_adapted_sets
@pytest.mark.parametrize("precision", ["double", "single"])
def test_each_adapter_input_is_recomputed_bit_for_bit(adapter_set, precision):
    """The input ``backward()`` returns for each adapter is byte-equal to
    the array its forward handed that adapter: a forward from layer 0,
    then one from the default prefix, then one from layer 0 again, so
    neither a stale norm cache nor a stale prefix array is read. The norms
    get random scales and shifts first, so a norm's output differs from
    its normalized input. Each is bound to an array of its own, since the
    identity it starts as is shared and read-only."""
    model = build_single(adapter_set) if precision == "single" else build(adapter_set)
    model.randomize_adapters(seed=7)
    rng = np.random.default_rng(9)
    for layer in [*model.encoder, *model.decoder]:
        for block in layer.blocks:
            for param in block.norm.parameters():
                param.value = rng.standard_normal(param.value.shape).astype(param.value.dtype)
    source, target = batch()
    prefix = model.prefix(source, target, 0)
    forward = AdapterModule.forward
    handed = {}

    def recording(self, x, tape=None):
        handed[id(self)] = x.copy()
        return forward(self, x, tape)

    for run_prefix in (prefix, None, prefix):
        handed.clear()
        with mock.patch.object(AdapterModule, "forward", recording):
            step = model.forward(source, target, run_prefix)
        inputs = model.backward(step)
        adapters = list(model.adapters())
        assert len(handed) == len(inputs) == len(adapters) > 0
        for _, _, adapter in adapters:
            got, want = inputs[adapter], handed[id(adapter)]
            assert got.dtype == want.dtype == model.theta.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("adapter_set, bottoms", ADAPTED, ids=ADAPTED_IDS)
def test_a_resumed_bottom_block_reads_the_prefix_array(adapter_set, bottoms):
    """On one row shard, in the bottom layer of each stack where the prefix
    at the lowest adapter ends the stream, block 0's adapter is handed a
    view of the prefix's own array, not a copy of it; the truncated
    backward then matches a full one (test_trainability)."""
    model = build(adapter_set)
    source, target = batch()
    prefix = model.prefix(source, target, model.lowest_trainable)
    returned = model.backward(model.forward(source, target, prefix))
    assert step_shards(model) == {1}
    inputs = {(index, block): returned[adapter] for index, block, adapter in model.adapters()}
    resumed = 0
    for offset, bottom, stream in zip((0, DIMS.n_encoder_layers), bottoms,
                                      (prefix.enc, prefix.dec), strict=True):
        if bottom is not None and (offset + bottom, 0) in inputs:
            assert np.shares_memory(inputs.pop((offset + bottom, 0)), stream)
            resumed += 1
    assert resumed > 0
    assert not any(np.shares_memory(x, stream) for x in inputs.values()
                   for stream in (prefix.enc, prefix.dec))


# Traced peak of ``train_adapters`` (3 Adam steps, batch 8 x 16) on a width-64,
# 2+2-layer toy, in MB, as this tree gives it with numpy 2.4 on Python 3.11.
# The grid-row sets keep the layers that rows 0-2 of the 4+4 grid keep: the
# top layer of both stacks, of the decoder, of the encoder. While attention
# taped its q and its key/value input the peaks were those of
# ``Q_TAPED_PEAK_MB``, and while it taped its k and v those of
# ``KV_TAPED_PEAK_MB``; while it taped its probabilities the bounds were
# 2.97, 2.69, 2.23, 2.37, 1.18 and 2.27 MB; and before adapters stopped
# caching their input and the loss its extra logit-sized arrays the peaks
# were 3.52, 3.05, 2.58, 2.73, 1.41 and 2.50 MB.
TRACED_PEAK_MB = [
    (AdapterSet.of([0, 1], [2, 3]), 1.76),
    (AdapterSet.of([0, 1], []), 1.50),
    (AdapterSet.of([], [2, 3]), 1.25),
    (AdapterSet.of([1], [3]), 1.33),
    (AdapterSet.of([], [3]), 0.86),
    (AdapterSet.of([1], []), 1.25),
]
Q_TAPED_PEAK_MB = [2.12, 1.83, 1.44, 1.62, 0.92, 1.44]
KV_TAPED_PEAK_MB = [2.68, 2.39, 1.85, 2.12, 1.05, 1.93]
PEAK_MARGIN = 1.04  # below every earlier peak, above this tree's by 4%


def test_each_traced_bound_sits_below_what_earlier_tapes_cost():
    """Each bound, with its margin, sits below the peak of the tape that
    held q and the query input, which sat below that of the tape that held
    k and v."""
    assert all(peak * PEAK_MARGIN < q_taped < kv_taped for (_, peak), q_taped, kv_taped
               in zip(TRACED_PEAK_MB, Q_TAPED_PEAK_MB, KV_TAPED_PEAK_MB, strict=True))


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


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("adapter_set", [TRACED_PEAK_MB[0][0], TRACED_PEAK_MB[4][0]],
                         ids=[ADAPTED_IDS[0], ADAPTED_IDS[4]])
def test_a_training_step_starts_with_only_the_prefix_and_the_moments_alive(adapter_set,
                                                                          optimizer):
    """On the toy of the traced-peak bounds, the arrays alive when each step
    of ``train_adapters`` begins are the same as at the first step: its
    prefix's streams and, for Adam alone, its two moment vectors, within a
    slack below one ``theta``. No step's temporaries, and no moments for
    SGD, outlive the update. Only the array data numpy allocates is summed,
    so the growing log's Python floats do not count."""
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=64, max_len=16, seed=6, adapter_set=adapter_set))
    source, target = make_copy_task(n_examples=8, seq_len=16, vocab_size=64, seed=3)
    forward_backward, live, prefixes = ToyModel.forward_backward, [], []
    numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def recording(self, *args):
        traces = tracemalloc.take_snapshot().filter_traces(numpy_data).traces
        live.append(sum(trace.size for trace in traces))
        prefixes.append(args[-1])
        return forward_backward(self, *args)

    tracemalloc.start()
    try:
        with mock.patch.object(ToyModel, "forward_backward", recording):
            train_adapters(model, source, target, TrainConfig(steps=4, optimizer=optimizer))
    finally:
        tracemalloc.stop()
    assert len(live) == 4 and len(set(live)) == 1, live
    prefix = prefixes[0]
    theta = model.theta.nbytes
    moments = 2 * theta if optimizer == "adam" else 0
    assert prefix.enc.nbytes + prefix.dec.nbytes + moments <= live[0]
    assert live[0] < prefix.enc.nbytes + prefix.dec.nbytes + moments + theta // 2


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
    with and without a tape, and a taping norm's output never shares
    memory with its taped cache."""
    rng, dtype, copies, (b, t, d), n_heads = case

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x, other = draw(copies * b, t, d), draw(copies * b, t + 1, d)
    linear = Linear("l", draw(d, d + 1), draw(d + 1))
    assert_leaves_alone(lambda: linear.forward(x), x, linear.w.value, linear.b.value)

    norm = LayerNorm("n", d)
    norm.gamma.value, norm.beta.value = draw(d), draw(d)
    tape = [] if cache else None
    out = assert_leaves_alone(lambda: norm.forward(x, tape), x, norm.gamma.value,
                              norm.beta.value)
    if cache:
        assert not np.shares_memory(out, tape[0][0])
        assert norm.output(tape[0]).tobytes() == out.tobytes()

    attention = Attention("a", n_heads, [draw(d, d) for _ in range(4)], causal)
    for p in attention.parameters():
        p.value = p.value.astype(dtype)
    weights = [p.value for p in attention.parameters()]
    assert_leaves_alone(lambda: attention.forward(x, x, [] if cache else None), x, *weights)
    if not causal:
        assert_leaves_alone(lambda: attention.forward(x, other, [] if cache else None),
                            x, other, *weights)

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
    forward, and a forward's taped caches survive every ``prefix()``."""
    model = build(adapter_set)
    source, target = batch()
    prefix = model.prefix(source, target, model.lowest_trainable)
    for run_prefix in (None, prefix):
        step = model.forward(source, target, run_prefix)
        snapshot = step.logits.tobytes()
        model.backward(step)
        later = model.forward(source, target, run_prefix)
        assert step.logits.tobytes() == snapshot
    cached = taped_arrays(later)
    before = [a.tobytes() for a in cached]
    for start in range(model.n_layers + 1):
        model.prefix(source, target, start)
    assert [a.tobytes() for a in cached] == before
