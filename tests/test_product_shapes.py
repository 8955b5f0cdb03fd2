"""A ledger of the toy model's matrix products.

BLAS may round a product differently when its operand shapes change, so
every fast path that claims bit-identical outputs (row shards, attention's
q, k, v and probabilities rebuilt in backward) must keep each product's
per-slice shape. numpy runs a batched product as one product per batch
slice, so the shapes BLAS sees are each call's per-slice (m, k, n), as many
times as the call has slices. A stand-in for the module's ``np`` records them, and these tests
compare the records of the paths that must agree.
"""

import contextlib
import math
import threading
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa import toymodel
from adapterqa.toymodel import ToyConfig, ToyModel
from step_shards import step_shards
from test_recompute import attention_entries
from test_shards import DIMS, adapter_sets, host


class Ledger:
    """numpy, except that ``matmul`` counts each call's per-slice (m, k, n)
    and dtype, once per batch slice, before calling numpy's own."""

    def __init__(self):
        self.slices: Counter = Counter()
        self._lock = threading.Lock()  # shard threads record at once

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *args, **kwargs):
        (*outer_a, m, k), (*outer_b, _, n) = a.shape, b.shape
        count = math.prod(np.broadcast_shapes(tuple(outer_a), tuple(outer_b)))
        with self._lock:
            self.slices[(m, k, n, np.result_type(a, b).name)] += count
        return np.matmul(a, b, *args, **kwargs)


@contextlib.contextmanager
def recorded():
    """The per-slice shapes of every product ``toymodel`` makes inside."""
    ledger = Ledger()
    with mock.patch.object(toymodel, "np", ledger):
        yield ledger.slices


def step_ledgers(cfg: ToyConfig, source, target) -> tuple[Counter, Counter, Counter, Counter]:
    """The products of one forward (its prefix included) and of its
    backward, on a model with random adapters; then, counted from the
    forward's taped attention blocks, their scores products and their q,
    k and v projections. A block's key/value input is its query input, or
    for a cross-attention the taped encoder output."""
    model = ToyModel(cfg)
    model.randomize_adapters(seed=3)
    with recorded() as forward:
        step = model.forward(source, target)
    scores, projections = Counter(), Counter()
    d = cfg.d_model
    for x_kv, row_max, *_ in attention_entries(step):
        b, h, t_q, _ = row_max.shape
        t_kv, dtype = t_q if x_kv is None else x_kv.shape[1], row_max.dtype.name
        scores[(t_q, d // h, t_kv, dtype)] += b * h
        projections[(t_q, d, d, dtype)] += b
        projections[(t_kv, d, d, dtype)] += 2 * b
    with recorded() as backward:
        model.backward(step)
    assert step_shards(model) == {len(step._rows)}
    return forward, backward, scores, projections


@settings(deadline=None, max_examples=40)
@given(adapter_sets, st.integers(1, 7), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([1, 2, 4]), st.sampled_from(["double", "single"]), st.integers(0, 2**16))
def test_shards_keep_every_product_shape(adapter_set, rows, source_len, target_len, n_heads,
                                         precision, seed):
    """A step at one row shard and at three (as under ``three_shards``)
    records the same products, slice by slice; backward repeats, per taped
    attention block, the forward's q, k and v projection slices to rebuild
    its q, k and v, and its scores slices to rebuild its probabilities."""
    cfg = ToyConfig(d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
                    n_encoder_layers=DIMS.n_encoder_layers,
                    n_decoder_layers=DIMS.n_decoder_layers, n_heads=n_heads, vocab_size=16,
                    max_len=8, seed=6, precision=precision, adapter_set=adapter_set)
    rng = np.random.default_rng(seed)
    source = rng.integers(2, 16, size=(rows, source_len))
    target = rng.integers(2, 16, size=(rows, target_len))
    runs = {}
    for cpus in (1, 3):
        with host(cpus=cpus):
            runs[cpus] = step_ledgers(cfg, source, target)
    assert runs[3] == runs[1]
    forward, backward, scores, projections = runs[1]
    assert scores + projections <= forward
    assert scores + projections <= backward
    assert (sum(backward.values()) > 0) == (adapter_set.n_active_layers > 0)


@settings(deadline=None, max_examples=40)
@given(adapter_sets, st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([1, 2, 4]), st.sampled_from(["double", "single"]), st.integers(1, 5),
       st.data())
def test_an_audit_copy_forward_keeps_each_copys_products(adapter_set, rows, source_len,
                                                         target_len, n_heads, precision, copies,
                                                         data):
    """A copy forward of the audit (``_copy_losses``) with every tensor of
    one adapter stacked per copy records, per copy, the products of a
    one-copy forward from that adapter: the same per-slice shapes and
    dtypes, as many times. The one exception is the other side's stream
    that the copies share: below an encoder adapter, the decoder's layer-0
    adapter runs once on the prefix's stream, which is then tiled. Every
    product of the one-copy forward is one a full forward makes too."""
    cfg = ToyConfig(d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
                    n_encoder_layers=DIMS.n_encoder_layers,
                    n_decoder_layers=DIMS.n_decoder_layers, n_heads=n_heads, vocab_size=16,
                    max_len=8, seed=6, precision=precision, adapter_set=adapter_set)
    model = ToyModel(cfg)
    adapters = list(model.adapters())
    if not adapters:
        return
    model.randomize_adapters(seed=3)
    rng = np.random.default_rng(rows)
    source = rng.integers(2, 16, size=(rows, source_len))
    target = rng.integers(2, 16, size=(rows, target_len))
    prefix = model.prefix(source, target, model.lowest_trainable)
    with recorded() as forward:
        step = model.forward(source, target, prefix)
    inputs = model.backward(step)
    copy_prefix = model._copy_prefix(prefix)
    index, block, adapter = data.draw(st.sampled_from(adapters))
    h = inputs[adapter]

    def stacked(n: int) -> list[np.ndarray]:
        return [np.repeat(p.value[None], n, axis=0).reshape(n, *(1,) * (h.ndim - p.value.ndim),
                                                            *p.value.shape)
                for p in adapter.parameters()]

    with recorded() as shared:
        if index < DIMS.n_encoder_layers:
            model._resume(model.decoder, 0, copy_prefix.dec)
    with recorded() as one:
        model._copy_losses(copy_prefix, index, block, h, stacked(1))
    with recorded() as many:
        model._copy_losses(copy_prefix, index, block, h, stacked(copies))
    many.update({shape: (copies - 1) * n for shape, n in shared.items()})  # as if unshared
    assert many == Counter({shape: copies * n for shape, n in one.items()})
    assert one <= forward
