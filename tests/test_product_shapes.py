"""A ledger of the toy model's matrix products.

BLAS may round a product differently when its operand shapes change, so
every fast path that claims bit-identical outputs (row shards, attention
probabilities rebuilt in backward) must keep each product's per-slice shape. numpy
runs a batched product as one product per batch slice, so the shapes BLAS
sees are each call's per-slice (m, k, n), as many times as the call has
slices. A stand-in for the module's ``np`` records them, and these tests
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


def step_ledgers(cfg: ToyConfig, source, target) -> tuple[Counter, Counter, Counter]:
    """The products of one forward (its prefix included) and of its
    backward, on a model with random adapters; then the scores products of
    the forward's taped attention blocks, counted from their taped q and
    k."""
    model = ToyModel(cfg)
    model.randomize_adapters(seed=3)
    with recorded() as forward:
        step = model.forward(source, target)
    scores = Counter()
    for q, k, *_ in attention_entries(step):
        b, h, t_q, d_head = q.shape
        scores[(t_q, d_head, k.shape[2], q.dtype.name)] += b * h
    with recorded() as backward:
        model.backward(step)
    assert step_shards(model) == {len(step._rows)}
    return forward, backward, scores


@settings(deadline=None, max_examples=40)
@given(adapter_sets, st.integers(1, 7), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([1, 2, 4]), st.sampled_from(["double", "single"]), st.integers(0, 2**16))
def test_shards_keep_every_product_shape(adapter_set, rows, source_len, target_len, n_heads,
                                         precision, seed):
    """A step at one row shard and at three (as under ``three_shards``)
    records the same products, slice by slice; backward repeats, per taped
    attention block, the forward's scores slices to rebuild its
    probabilities."""
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
    forward, backward, scores = runs[1]
    assert scores <= forward
    assert scores <= backward
    assert (sum(backward.values()) > 0) == (adapter_set.n_active_layers > 0)
