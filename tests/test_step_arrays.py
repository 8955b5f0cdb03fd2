"""The arrays of the toy model's training steps.

Every step allocates its arrays anew, and ``train_adapters`` first has
malloc keep freed blocks in the heap (``workers.keep_freed_heap``), so a
steady-state step reuses the last step's pages instead of faulting in
fresh ones. No array that leaves the model is written by a later step.
The model keeps no step state: a forward's tapes and prefix go with the
``Step`` it returns, so once ``train_adapters`` or the audit returns, the
model is about the size of its parameters.
"""

import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import numpy.random  # noqa: F401  numpy imports it on first use, which would be traced
import pytest

from adapterqa import toymodel, workers
from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    grad_check,
    make_copy_task,
    train_adapters,
)
from step_shards import step_shards
from test_shards import DIMS, batch, config, host


def width_64_toy() -> tuple[ToyModel, np.ndarray, np.ndarray]:
    """A 2+2-layer, width-64 toy with adapters on every layer and a 16 x 16
    copy batch: 16,384 stream elements."""
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=2, n_decoder_layers=2, n_heads=2,
        vocab_size=64, max_len=16, seed=6))
    return (model, *make_copy_task(n_examples=16, seq_len=16, vocab_size=64, seed=3))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_steady_steps_fault_in_few_fresh_pages():
    """With the heap policy set, steps 3-5 fault in fewer than a tenth of
    the pages one step's arrays peak at. The first steps' own counts are no
    fixed reference: a process that ran other tests first may hold free
    pages that it fills without faults."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("getrusage reports no minor page faults here")
    if not workers.keep_freed_heap():
        pytest.skip("this C library's malloc takes no heap policy")
    model, source, target = width_64_toy()
    prefix = model.prefix(source, target, model.lowest_trainable)
    tracemalloc.start()
    try:
        model.forward_backward(source, target, prefix)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward_backward(source, target, prefix)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    pages = step_peak // resource.getpagesize()
    assert pages > 500
    assert all(steady < 0.1 * pages for steady in faults[2:]), (faults, pages)


@pytest.mark.parametrize("cpus", [1, 3])
def test_arrays_that_leave_the_model_are_never_reused(cpus):
    """The logits, every adapter input, the prefix's streams and a copy of
    the gradients survive five further steps byte-identical."""
    with host(cpus=cpus):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        model.randomize_adapters(seed=3)
        source, target = batch(6)
        prefix = model.prefix(source, target, model.lowest_trainable)
        step = model.forward(source, target, prefix)
        inputs = model.backward(step)
        assert len(inputs) == len(list(model.adapters()))
        left = [step.logits, *inputs.values(), prefix.enc, prefix.dec, model.theta_grad.copy()]
        before = [a.tobytes() for a in left]
        for _ in range(5):
            model.forward_backward(source, target, prefix)
    assert step_shards(model) == {cpus}
    assert [a.tobytes() for a in left] == before


@pytest.mark.parametrize("cpus", [1, 3])
def test_training_leaves_the_model_about_the_size_of_its_parameters(cpus):
    """Each step of ``train_adapters``, on every row shard, goes with its
    tapes and prefix: what stays traced is the model's parameters. The
    build starts from a cold base cache, so it draws its base inside the
    traced window whichever test built the same toy before, and numpy's
    random module is imported before the window, whichever test ran first."""
    toymodel._frozen_base.cache_clear()
    tracemalloc.start()
    try:
        with host(cpus=cpus):
            model, source, target = width_64_toy()
            train_adapters(model, source, target, TrainConfig(steps=3))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert step_shards(model) == {cpus}
    params = sum(p.value.nbytes for p in model.parameters()) + model.theta_grad.nbytes
    assert params <= held < 1.1 * params
    assert peak > 1.5 * params  # the tapes were there during training


@pytest.mark.parametrize("cpus", [1, 3])
def test_backward_and_the_audit_drop_the_prefix_their_forward_ran_from(cpus):
    """The model keeps no ``Prefix``: once a step that ran backward is
    dropped, the prefix it ran from is gone, and so is the prefix of
    ``grad_check``'s own step once the audit returns."""
    model = ToyModel(config(AdapterSet.full(DIMS)))
    model.randomize_adapters(seed=3)
    source, target = batch(3)
    forward, streams = ToyModel.forward, []

    def recording(self, *args):
        step = forward(self, *args)
        streams.append(weakref.ref(step._prefix.enc))
        return step

    with host(cpus=cpus), mock.patch.object(ToyModel, "forward", recording):
        model.backward(model.forward(source, target))
        assert streams[0]() is None
        grad_check(model, source, target)
    assert step_shards(model) == {cpus}
    assert len(streams) == 2
    assert streams[1]() is None


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_model_holds_no_step_state(cpus):
    """A forward, on one shard or three, and then its backward leave the
    model holding the same attributes, bound to the same objects, as when
    it was built."""
    with host(cpus=cpus):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        built = dict(vars(model))
        step = model.forward(*batch(6))
        after_forward = dict(vars(model))
        model.backward(step)
    assert step_shards(model) == {cpus}
    for held in (after_forward, vars(model)):
        assert held.keys() == built.keys()
        assert all(held[name] is value for name, value in built.items())


@pytest.mark.usefixtures("three_shards")
def test_each_adapter_lets_its_operands_go_as_it_joins():
    """Under ``three_shards``, the round that joins the adapters' shards
    (``_set_grads`` through ``in_threads``) grows traced memory by at most
    three adapters' joined operands, one per shard thread, on a toy with
    16 adapters: each adapter drops its shards' operands as it joins, so the
    joined inputs it returns take their place."""
    model = build_toy_model(ToyConfig(
        d_model=64, bottleneck=16, n_encoder_layers=4, n_decoder_layers=4, n_heads=2,
        vocab_size=64, max_len=16, seed=6))
    model.randomize_adapters(seed=3)
    source, target = make_copy_task(n_examples=12, seq_len=16, vocab_size=64, seed=3)
    in_threads, growth = toymodel.in_threads, []

    def joining(calls):
        if calls[0].func is not toymodel._set_grads:
            return in_threads(calls)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        joined = in_threads(calls)
        growth.append(tracemalloc.get_traced_memory()[1] - start)
        return joined

    step = model.forward(source, target)
    tracemalloc.start()
    try:
        with mock.patch.object(toymodel, "in_threads", joining):
            model.backward(step)
    finally:
        tracemalloc.stop()
    assert step_shards(model) == {3}
    # hidden, d_out, x and d_hidden of every row of one adapter
    operands = source.size * 2 * (64 + 16) * model.theta.itemsize
    assert len(growth) == 1
    assert growth[0] <= 3 * operands
