"""Attention probabilities rebuilt in backward.

A taped attention forward tapes its probabilities' row maxima and row sums
in their place, and ``Attention.backward`` rebuilds them from the taped q
and k by the forward's own product and ufuncs. The rebuilt probabilities
must be the forward's, bit for bit, and a training step must peak below
what taping the probabilities cost.
"""

import contextlib
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa import toymodel
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    make_copy_task,
    train_adapters,
)
from step_shards import step_shards
from test_hot_path import PEAK_MARGIN, TRACED_PEAK_MB
from test_shards import DIMS


def attention_entries(step) -> list[tuple]:
    """The attention entries on the tapes of ``step``: (q, k, v, row
    maxima, row sums, scale). A norm tapes a pair, and the other modules
    an array."""
    return [entry for tape in step._tapes for entry in tape
            if isinstance(entry, tuple) and len(entry) > 2]


@contextlib.contextmanager
def probabilities():
    """Each attention's scores arrays made inside, with the attention
    that made them. Forward and backward turn them into probabilities in
    place, so once either returns they hold its probabilities."""
    made = []
    scores = toymodel.Attention._scores

    def recording(self, q, k, inv_sqrt):
        out = scores(self, q, k, inv_sqrt)
        made.append((self, out))
        return out

    with mock.patch.object(toymodel.Attention, "_scores", recording):
        yield made


@st.composite
def cases(draw):
    """An encoder-only, decoder-only or mixed adapter set of the 2+2 toy,
    a batch whose source and target lengths differ, a precision and the
    number of heads."""
    kind = draw(st.sampled_from(["encoder", "decoder", "mixed"]))
    encoder = st.frozensets(st.sampled_from(DIMS.encoder_layer_indices()), min_size=1)
    decoder = st.frozensets(st.sampled_from(DIMS.decoder_layer_indices()), min_size=1)
    adapter_set = AdapterSet(draw(encoder) if kind != "decoder" else frozenset(),
                             draw(decoder) if kind != "encoder" else frozenset())
    source_len = draw(st.integers(1, 8))
    target_len = draw(st.integers(1, 8).filter(lambda n: n != source_len))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    source = rng.integers(2, 16, size=(rows, source_len))
    target = rng.integers(2, 16, size=(rows, target_len))
    cfg = ToyConfig(d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
                    n_encoder_layers=DIMS.n_encoder_layers,
                    n_decoder_layers=DIMS.n_decoder_layers, n_heads=draw(st.sampled_from([1, 2, 4])),
                    vocab_size=16, max_len=8, seed=6,
                    precision=draw(st.sampled_from(["double", "single"])),
                    adapter_set=adapter_set)
    return cfg, source, target


@pytest.mark.parametrize("shards", [1, 3])
@settings(deadline=None, max_examples=25)
@given(cases())
def test_backward_rebuilds_the_forward_probabilities_bit_for_bit(request, shards, case):
    """Every taped attention block tapes its row statistics, never its
    probabilities, and backward rebuilds each block's probabilities once,
    byte for byte those of its forward, on one row shard and under
    ``three_shards``. Backward leaves every taped array as it was."""
    if shards == 3:
        request.getfixturevalue("three_shards")
    cfg, source, target = case
    model = ToyModel(cfg)
    model.randomize_adapters(seed=3)
    with probabilities() as forward:
        step = model.forward(source, target)
    entries = attention_entries(step)
    for q, k, v, row_max, row_sum, inv_sqrt in entries:
        assert row_max.shape == row_sum.shape == q.shape[:3] + (1,)
    cached = [a for entry in entries for a in entry if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in cached]
    with probabilities() as rebuilt:
        model.backward(step)
    assert [a.tobytes() for a in cached] == before
    assert len(rebuilt) == len(entries) > 0
    made = Counter((id(attention), p.tobytes()) for attention, p in forward)
    assert Counter((id(attention), p.tobytes()) for attention, p in rebuilt) <= made
    assert step_shards(model) == {min(shards, source.shape[0])}


# Traced peak of ``train_adapters`` (3 Adam steps) on the toy of
# ``TRACED_PEAK_MB``, with its first adapter set, at batch 8 x 32: 16,384
# probabilities per attention block. In MB, as this tree gives it on one row
# shard with numpy 2.4 on Python 3.11; and the peak the same step gave while
# attention taped its probabilities.
LONG_TRACED_PEAK_MB = 5.19
TAPED_PROBABILITIES_PEAK_MB = 5.55


def test_training_at_32_tokens_peaks_below_what_taped_probabilities_cost():
    """The bound sits below the peak the probability tape gave, by more
    than ``PEAK_MARGIN`` allows."""
    assert LONG_TRACED_PEAK_MB * PEAK_MARGIN < TAPED_PROBABILITIES_PEAK_MB
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=64, max_len=32, seed=6, adapter_set=TRACED_PEAK_MB[0][0]))
    source, target = make_copy_task(n_examples=8, seq_len=32, vocab_size=64, seed=3)
    with mock.patch.object(toymodel, "_usable_cpus", lambda: 1):
        tracemalloc.start()
        try:
            train_adapters(model, source, target, TrainConfig(steps=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= LONG_TRACED_PEAK_MB * PEAK_MARGIN * 1e6
