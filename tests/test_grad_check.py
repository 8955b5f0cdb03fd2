"""Differential and state tests of the batched gradient audit.

``grad_check`` evaluates a pack of perturbed copies of one adapter per
forward, its scalars taken from any of the adapter's tensors. Its report
must equal that of the per-scalar audit it replaced
(``model_oracles.grad_check_per_scalar``) exactly, for any adapter set,
batch, length, floor (``GRAD_CHECK_CHUNK``) and budget
(``GRAD_CHECK_BUDGET``): 1-scalar packs, packs that cross from one tensor
to the next, and one pack per adapter. It reads the adapters' input
streams from the forward caches, so it must also leave nothing behind
that changes a later audit or training run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa import toymodel
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    GRAD_CHECK_BUDGET,
    GRAD_CHECK_CHUNK,
    ToyConfig,
    TrainConfig,
    build_toy_model,
    grad_check,
    make_copy_task,
    train_adapters,
)
from model_oracles import grad_check_per_scalar

ENCODER_ONLY, DECODER_ONLY, FULL, EMPTY = "encoder", "decoder", "full", "empty"


@st.composite
def audits(draw):
    """``(config kwargs, batch, length, chunk, budget)`` on a width-2 to
    width-6 toy. A budget of 0 gives packs of ``chunk`` scalars, and 2**40
    one pack per adapter."""
    n_enc, n_dec = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    layers = draw(st.sampled_from([ENCODER_ONLY, DECODER_ONLY, FULL, EMPTY])
                  | st.frozensets(st.integers(0, n_enc + n_dec - 1)))
    if layers == ENCODER_ONLY:
        layers = range(n_enc)
    elif layers == DECODER_ONLY:
        layers = range(n_enc, n_enc + n_dec)
    elif layers == FULL:
        layers = range(n_enc + n_dec)
    elif layers == EMPTY:
        layers = ()
    adapter_set = AdapterSet.of([i for i in layers if i < n_enc], [i for i in layers if i >= n_enc])
    cfg = dict(d_model=draw(st.sampled_from([2, 4, 6])), bottleneck=draw(st.integers(1, 3)),
               n_encoder_layers=n_enc, n_decoder_layers=n_dec, n_heads=2, vocab_size=12,
               max_len=4, seed=draw(st.integers(0, 2**16)), adapter_set=adapter_set)
    chunk = draw(st.sampled_from([1, 3, GRAD_CHECK_CHUNK, 64]))
    budget = draw(st.sampled_from([0, 2**9, GRAD_CHECK_BUDGET, 2**40]))
    return cfg, draw(st.integers(1, 3)), draw(st.integers(1, 4)), chunk, budget


def audit(cfg: dict, batch: int, length: int, check):
    model = build_toy_model(ToyConfig(**cfg))
    model.randomize_adapters(seed=cfg["seed"] + 1)
    rng = np.random.default_rng(cfg["seed"] + 2)
    source = rng.integers(2, cfg["vocab_size"], size=(batch, length))
    target = rng.integers(2, cfg["vocab_size"], size=(batch, length))
    before = [p.value.copy() for p in model.parameters()]
    report = check(model, source, target, eps=1e-6)
    assert all(np.array_equal(p.value, b) for p, b in zip(model.parameters(), before))
    return report


def named(layers, batch: int, length: int, chunk: int = GRAD_CHECK_CHUNK,
          budget: int = GRAD_CHECK_BUDGET):
    """An example on a width-4, bottleneck-3, 2+2-layer toy: its tensors
    of 12, 3, 12 and 4 scalars are not all multiples of the chunk. At the
    default budget each adapter's 31 scalars take one pack."""
    adapter_set = AdapterSet.of([i for i in layers if i < 2], [i for i in layers if i >= 2])
    cfg = dict(d_model=4, bottleneck=3, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
               vocab_size=12, max_len=4, seed=6, adapter_set=adapter_set)
    return example((cfg, batch, length, chunk, budget))


@settings(deadline=None, max_examples=25)
@given(audits())
@named([0, 1], 2, 3)
@named([2, 3], 2, 3)
@named([0, 1, 2, 3], 2, 3)
@named([], 2, 3)
@named([0, 3], 1, 1)
@named([1, 2], 1, 4, chunk=7, budget=0)  # packs 7-13 and 14-20 cross b_down
@named([0, 1, 2, 3], 3, 1, chunk=1, budget=0)  # 1-scalar packs
@named([0, 1, 2, 3], 2, 3, chunk=3, budget=0)  # packs that end where each tensor ends
@named([0, 1, 2, 3], 3, 4, chunk=1, budget=2**40)  # one pack per adapter
def test_batched_audit_equals_per_scalar_audit(case):
    cfg, batch, length, chunk, budget = case
    with (mock.patch.object(toymodel, "GRAD_CHECK_CHUNK", chunk),
          mock.patch.object(toymodel, "GRAD_CHECK_BUDGET", budget)):
        batched = audit(cfg, batch, length, grad_check)
    oracle = audit(cfg, batch, length, grad_check_per_scalar)
    assert batched.to_json_dict() == oracle.to_json_dict()
    # The types match too (np.float64 or the float 0.0), so reprs agree.
    assert repr(batched) == repr(oracle)


@pytest.mark.parametrize("layers", [FULL, ENCODER_ONLY, DECODER_ONLY, EMPTY])
def test_audit_leaves_no_state_behind(layers):
    """The audit reads its streams from the forward caches and leaves
    copy-forward caches behind; neither may change a later audit or a
    later training run."""
    encoder, decoder = {FULL: ([0, 1], [2, 3]), ENCODER_ONLY: ([0, 1], []),
                        DECODER_ONLY: ([], [2, 3]), EMPTY: ([], [])}[layers]

    def fresh():
        model = build_toy_model(ToyConfig(
            d_model=4, bottleneck=3, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
            vocab_size=12, max_len=5, seed=6, adapter_set=AdapterSet.of(encoder, decoder)))
        model.randomize_adapters(seed=7)
        return model

    source, target = make_copy_task(n_examples=3, seq_len=4, vocab_size=12, seed=8)
    other_source, other_target = make_copy_task(n_examples=2, seq_len=5, vocab_size=12, seed=9)
    audited = fresh()
    first = repr(grad_check(audited, source, target, eps=1e-6))
    assert repr(grad_check(audited, source, target, eps=1e-6)) == first
    audited.forward_backward(other_source, other_target)
    assert repr(grad_check(audited, source, target, eps=1e-6)) == first

    twin = fresh()
    train = TrainConfig(learning_rate=1e-2, steps=5)
    assert (train_adapters(audited, source, target, train).to_json_dict()
            == train_adapters(twin, source, target, train).to_json_dict())
    assert all(a.value.tobytes() == b.value.tobytes()
               for a, b in zip(audited.parameters(), twin.parameters(), strict=True))
