"""Spare arrays: each row shard of the toy model writes its training
arrays into spares kept from step to step (``toymodel._Spares``).

A steady-state step takes its tape, the streams and the gradients passed
between blocks from the arrays of the first step, so it faults in no
fresh pages. An array that leaves the model is never a spare, so the next
steps never write into it. ``train_adapters`` drops the spares with the
tapes, leaving the model about the size of its parameters. The pinned
outputs under spares are checked in ``test_golden`` and
``test_trainability`` (``TestRecycled``, ``TestThreeShardsRecycled``).
"""

import sys
import tracemalloc

import numpy as np
import pytest

from adapterqa import toymodel
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    ForwardNeeded,
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    make_copy_task,
    train_adapters,
)
from test_hot_path import taped_arrays
from test_shards import DIMS, batch, config, host

FLOAT = np.dtype(np.float64)


def width_64_toy() -> tuple[ToyModel, np.ndarray, np.ndarray]:
    """A 2+2-layer, width-64 toy with adapters on every layer and a 16 x 16
    copy batch: 16,384 stream elements, enough for spares on up to four
    shards."""
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=64, max_len=16, seed=6))
    return (model, *make_copy_task(n_examples=16, seq_len=16, vocab_size=64, seed=3))


def test_spares_hand_out_each_array_once_and_only_their_own():
    spares = toymodel._Spares()
    made = spares.take((2, 3), FLOAT)
    spares.give(made, made[1:], None, np.empty((2, 3)))
    assert spares.take((2, 3), FLOAT) is made
    assert spares.take((2, 3), FLOAT) is not made  # given back once, not twice
    assert spares.take((3, 2), FLOAT).shape == (3, 2)


@pytest.mark.parametrize("rows, kept", [(2, False), (512, True)])
def test_a_shard_keeps_spares_from_recycle_min_stream(rows, kept):
    """Below ``RECYCLE_MIN_STREAM`` stream elements a shard keeps none, so
    the smallest toys pay nothing for the bookkeeping."""
    source, target = batch(rows)
    assert (rows * source.shape[1] * DIMS.d_model >= toymodel.RECYCLE_MIN_STREAM) == kept
    with host(cpus=1):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        model.forward_backward(source, target)
    assert [spares is not None for spares in model._spares] == [kept]


@pytest.mark.usefixtures("recycled")
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_third_forward_tapes_only_arrays_of_the_first_step(cpus):
    with host(cpus=cpus):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        model.randomize_adapters(seed=3)
        source, target = batch(6)
        model.forward_backward(source, target)
        first = [a for spares in model._spares for a in spares._made.values()]
        model.forward_backward(source, target)
        model.forward(source, target)
    taped = taped_arrays(model)
    assert len(model._rows) == cpus and len(taped) > 40
    assert all(any(np.shares_memory(a, b) for b in first) for a in taped)


@pytest.mark.usefixtures("recycled")
def test_spares_hold_arrays_of_the_last_batch_shape_only():
    with host(cpus=1):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        for rows in (6, 4, 4):
            model.forward_backward(*batch(rows))
    shapes = {a.shape[0] for spares in model._spares for a in spares._made.values()}
    assert shapes == {4}


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_steady_steps_fault_in_few_fresh_pages():
    """Steps 3-5 fault in fewer than a tenth of the pages the spares span.
    The first step's own count is no fixed reference: a process that ran
    other tests first may hold free pages that it fills without faults."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("getrusage reports no minor page faults here")
    model, source, target = width_64_toy()
    prefix = model.prefix(source, target, model.lowest_trainable)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward_backward(source, target, prefix)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    pages = sum(a.nbytes for spares in model._spares for a in spares._made.values())
    pages //= resource.getpagesize()
    assert pages > 500
    assert all(steady < 0.1 * pages for steady in faults[2:]), (faults, pages)


@pytest.mark.usefixtures("recycled")
@pytest.mark.parametrize("cpus", [1, 3])
def test_arrays_that_leave_the_model_are_never_reused(cpus):
    """The logits, every adapter input, the prefix's streams and a copy of
    the gradients survive five further steps byte-identical."""
    with host(cpus=cpus):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        model.randomize_adapters(seed=3)
        source, target = batch(6)
        prefix = model.prefix(source, target, model.lowest_trainable)
        _, logits = model.forward(source, target, prefix)
        inputs = [model.adapter_input(index, block) for index, block, _ in model.adapters()]
        model.backward()
        left = [logits, *inputs, prefix.enc, prefix.dec, model.theta_grad.copy()]
        before = [a.tobytes() for a in left]
        for _ in range(5):
            model.forward_backward(source, target, prefix)
    assert len(model._rows) == cpus
    assert [a.tobytes() for a in left] == before


def test_training_leaves_the_model_about_the_size_of_its_parameters():
    """``train_adapters`` drops the tapes, the prefix and the spares of its
    last forward: what stays traced is the model's parameters, and a
    ``backward()`` after it needs a forward of its own."""
    tracemalloc.start()
    try:
        model, source, target = width_64_toy()
        train_adapters(model, source, target, TrainConfig(steps=3))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = sum(p.value.nbytes for p in model.parameters()) + model.theta_grad.nbytes
    assert params <= held < 1.1 * params
    assert peak > 1.5 * params  # the spares and tapes were there during training
    with pytest.raises(ForwardNeeded):
        model.backward()
    with pytest.raises(ForwardNeeded):
        model.adapter_input(0, 0)
