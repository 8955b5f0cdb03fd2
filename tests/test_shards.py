"""Row shards of the toy model's forward and backward.

``shard_count`` splits a batch across the CPUs that BLAS leaves idle, and
every result must equal the one-shard result bit for bit: train logs,
adapter values, logits and gradient audits. Every shard runs the model's
own layers, each on a tape of its own, so the layers hold no per-call
state. Worker threads see the caller's numpy error state, and their
errors surface in the caller.
"""

import contextlib
import contextvars
import gc
import os
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa import toymodel, workers
from adapterqa.adapters import AdapterSet, ModelDims
from adapterqa.toymodel import (
    Divergence,
    ToyConfig,
    ToyModel,
    TrainConfig,
    grad_check,
    shard_count,
    train_adapters,
)
from step_shards import step_shards

DIMS = ModelDims(d_model=8, bottleneck=2, n_encoder_layers=2, n_decoder_layers=2)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def host(cpus: int, blas: dict[str, str] | None = None, min_stream: int = 1):
    """A host with ``cpus`` usable CPUs and the BLAS thread variables
    ``blas`` (one-thread OpenBLAS by default); ``SHARD_MIN_STREAM`` is
    ``min_stream``, so even a one-row toy batch may shard."""
    blas = {"OPENBLAS_NUM_THREADS": "1"} if blas is None else blas
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    with mock.patch.object(toymodel, "SHARD_MIN_STREAM", min_stream), \
            mock.patch.object(toymodel, "_usable_cpus", lambda: cpus), \
            mock.patch.dict(os.environ, {**environ, **blas}, clear=True):
        yield


def config(adapter_set: AdapterSet, precision: str = "double") -> ToyConfig:
    return ToyConfig(d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
                     n_encoder_layers=DIMS.n_encoder_layers,
                     n_decoder_layers=DIMS.n_decoder_layers, n_heads=2, vocab_size=16,
                     max_len=8, seed=6, precision=precision, adapter_set=adapter_set)


def batch(rows: int, seed: int = 8) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(2, 16, size=(rows, 5)), rng.integers(2, 16, size=(rows, 4))


def outputs(cfg: ToyConfig, source, target, train_cfg: TrainConfig,
            prepare=lambda model: None) -> tuple:
    """Train log, adapter bytes, final loss and logits of a training run,
    then the gradient audit of the model with random adapters (double
    only), and the model; ``prepare`` sees the model first."""
    model = ToyModel(cfg)
    prepare(model)
    log = train_adapters(model, source, target, train_cfg)
    loss, logits = model.forward(source, target)
    report = None
    if cfg.precision == "double":
        model.randomize_adapters(seed=3)
        report = grad_check(model, source, target).to_json_dict()
    return log.to_json_dict(), model.theta.tobytes(), loss, logits.tobytes(), report, model


adapter_sets = st.builds(
    AdapterSet,
    st.frozensets(st.sampled_from(DIMS.encoder_layer_indices())),
    st.frozensets(st.sampled_from(DIMS.decoder_layer_indices())),
)


@settings(deadline=None, max_examples=30)
@given(adapter_sets, st.integers(1, 7), st.integers(2, 3), st.sampled_from(["double", "single"]),
       st.sampled_from(["adam", "sgd"]))
def test_sharded_runs_equal_one_shard(adapter_set, rows, cpus, precision, optimizer):
    cfg = config(adapter_set, precision)
    source, target = batch(rows)
    train_cfg = TrainConfig(learning_rate=0.05, steps=3, optimizer=optimizer)
    with host(cpus=1):
        *alone, _ = outputs(cfg, source, target, train_cfg)
    with host(cpus=cpus):
        *sharded, model = outputs(cfg, source, target, train_cfg)
    assert step_shards(model) == {min(rows, cpus)}
    assert sharded == alone


@pytest.mark.parametrize("blas, shards", [
    ({}, 1),  # OpenBLAS runs one thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # OpenBLAS's own first
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),  # unset below 1
    ({"OPENBLAS_NUM_THREADS": "x"}, 1),
])
def test_shards_take_only_the_cpus_blas_leaves_idle(blas, shards):
    with host(cpus=2, blas=blas):
        assert shard_count(16, 32, 128) == shards
    with host(cpus=2, blas=blas, min_stream=toymodel.SHARD_MIN_STREAM):
        assert shard_count(16, 32, 128) == shards
        assert shard_count(1, 32, 128) == 1  # a row is never split
        # Each shard carries at least SHARD_MIN_STREAM stream elements.
        assert shard_count(2, 2, toymodel.SHARD_MIN_STREAM // 4) == 1
        assert shard_count(2, 4, toymodel.SHARD_MIN_STREAM // 4) == shards


def test_without_blas_variables_no_worker_thread_starts():
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(7)
    with host(cpus=2, blas={}), \
            mock.patch.object(threading, "Thread", side_effect=AssertionError("a thread started")):
        model = ToyModel(cfg)
        train_adapters(model, source, target, TrainConfig(steps=2))
        model.forward_backward(source, target)


def test_a_sharded_divergence_raises_it_and_no_warning():
    """Worker threads run in a copy of the caller's context, so they keep
    the error state ``train_adapters`` sets: an overflowing run ends in
    ``Divergence``, and no ``RuntimeWarning`` (an error under this suite's
    warning filter) is raised on the way."""
    source, target = batch(6)
    with host(cpus=3):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        with pytest.raises(Divergence):
            train_adapters(model, source, target,
                           TrainConfig(learning_rate=1e160, steps=5, optimizer="sgd"))
        assert step_shards(model) == {3}


def test_workers_run_under_the_callers_numpy_error_state(monkeypatch):
    """numpy 1 keeps its error state per thread, outside the context, so
    each worker enters the caller's state itself. An empty context stands
    in for numpy 1 here: a copied one would carry numpy 2's state alone."""
    monkeypatch.setattr(contextvars, "copy_context", contextvars.Context)
    with np.errstate(over="ignore", divide="raise", invalid="warn", under="ignore"):
        want = np.geterr()
        states = workers.in_threads([np.geterr] * 3)
    assert want != np.geterr()
    assert states == [want] * 3


@pytest.mark.parametrize("cpu_count, shards", [(3, 3), (None, 1)])
def test_without_sched_getaffinity_every_cpu_is_usable(monkeypatch, cpu_count, shards):
    """``os.sched_getaffinity`` is Linux-only. Elsewhere every CPU counts
    as usable, and a host that cannot count its CPUs runs one shard."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(toymodel, "SHARD_MIN_STREAM", 1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    source, target = batch(5)
    with host(cpus=1):
        want = ToyModel(config(AdapterSet.full(DIMS))).forward(source, target).loss
    model = ToyModel(config(AdapterSet.full(DIMS)))
    assert model.forward_backward(source, target) == want
    assert step_shards(model) == {shards}


def layer_parts(model: ToyModel) -> list:
    """Every layer of the model, the output projection, and every block,
    sublayer, norm, adapter and projection below them."""
    parts, stack = [], [*model.encoder, *model.decoder, model.out_proj]
    while stack:
        part = stack.pop()
        parts.append(part)
        for value in vars(part).values():
            for item in value if isinstance(value, list) else [value]:
                if hasattr(item, "__dict__") and type(item).__module__ == toymodel.__name__:
                    stack.append(item)
    return parts


@pytest.mark.parametrize("cpus", [1, 3])
def test_layers_hold_no_per_call_state(cpus):
    """A forward and a backward, on one shard or three, leave every layer,
    block and sublayer holding the same attributes, bound to the same
    objects, as when the model was built."""
    with host(cpus=cpus):
        model = ToyModel(config(AdapterSet.full(DIMS)))
        built = [(part, dict(vars(part))) for part in layer_parts(model)]
        assert len(built) > 50
        model.forward_backward(*batch(6))
        assert step_shards(model) == {cpus}
    for part, held in built:
        assert vars(part).keys() == held.keys(), type(part).__name__
        assert all(vars(part)[name] is value for name, value in held.items()), type(part).__name__


def fail_once_off_the_calling_thread(method: str):
    """Patch ``FeedForward.<method>`` to raise on the first call made by
    a worker thread; returns the patcher."""
    original = getattr(toymodel.FeedForward, method)
    failed = []

    def failing(self, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread() and not failed:
            failed.append(True)
            raise ValueError("worker failed")
        return original(self, *args, **kwargs)

    return mock.patch.object(toymodel.FeedForward, method, failing)


@pytest.mark.parametrize("method", ["forward", "backward"])
def test_a_worker_error_surfaces_and_the_next_step_is_unchanged(method):
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(5)
    with host(cpus=1):
        reference = ToyModel(cfg)
        reference.randomize_adapters(seed=3)
        want = reference.forward_backward(source, target), reference.theta_grad.tobytes()
    with host(cpus=3):
        model = ToyModel(cfg)
        model.randomize_adapters(seed=3)
        model.forward_backward(source, target)  # the twins and their caches exist
        with fail_once_off_the_calling_thread(method), pytest.raises(ValueError, match="worker"):
            model.forward_backward(source, target)
        model.theta_grad[...] = np.nan
        loss = model.forward_backward(source, target)
    assert (loss, model.theta_grad.tobytes()) == want


def test_joins_hold_with_more_shards_than_cores_and_forced_switches():
    """Four shards on two cores, with the interpreter switching threads
    every microsecond: a shard's parts lost before the join would leave an
    adapter's gradients NaN, and a part joined out of order would change
    them."""
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(7)
    with host(cpus=1):
        reference = ToyModel(cfg)
        reference.randomize_adapters(seed=3)
        want = reference.forward_backward(source, target), reference.theta_grad.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with host(cpus=4):
            model = ToyModel(cfg)
            model.randomize_adapters(seed=3)
            for _ in range(30):
                model.theta_grad[...] = np.nan
                loss = model.forward_backward(source, target)
                assert (loss, model.theta_grad.tobytes()) == want
    finally:
        sys.setswitchinterval(interval)
    assert step_shards(model) == {4}


def instrument(model: ToyModel, calls: list) -> int:
    """Wrap, per instance as the benchmark's tracer does, the ``forward``,
    ``backward`` and ``output`` of the model, each layer and each object
    below it; each wrapper records the thread it ran on. Returns how many
    methods were wrapped."""
    wrapped = 0
    seen = set()

    def wrap(obj):
        nonlocal wrapped
        if id(obj) in seen:
            return
        seen.add(id(obj))
        for method in ("forward", "backward", "output"):
            bound = getattr(obj, method, None)
            if callable(bound):
                def traced(*args, _bound=bound, **kwargs):
                    calls.append(threading.get_ident())
                    return _bound(*args, **kwargs)
                setattr(obj, method, traced)
                wrapped += 1
        for child in list(vars(obj).values()):
            for item in child if isinstance(child, list) else [child]:
                if type(item).__module__ == toymodel.__name__ and hasattr(item, "__dict__"):
                    wrap(item)

    wrap(model)
    return wrapped


def test_wrappers_on_the_model_run_for_every_shard():
    """Every shard runs the model's own layers, so a wrapper set on one of
    their instances runs on the worker threads as well as on the calling
    thread, and the outputs are unchanged."""
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(7)
    train_cfg = TrainConfig(steps=3)
    with host(cpus=1):
        *want, _ = outputs(cfg, source, target, train_cfg)
    calls: list[int] = []
    wrapped = []
    with host(cpus=3):
        *got, model = outputs(cfg, source, target, train_cfg,
                              lambda model: wrapped.append(instrument(model, calls)))
    assert got == want
    assert wrapped[0] > 50
    assert step_shards(model) == {3}
    assert {ident == threading.get_ident() for ident in calls} == {True, False}


def test_a_failed_sharded_backward_leaks_nothing_into_the_next():
    """Shard 1 fails in its first feed-forward backward, after that
    block's adapter has handed in its parts; they are dropped with that
    backward, so a one-shard backward after it gets its own gradients and
    not a join with the failed round's rows."""
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(6)
    with host(cpus=1):
        reference = ToyModel(cfg)
        reference.randomize_adapters(seed=3)
        want = reference.forward_backward(source, target), reference.theta_grad.tobytes()
    model = ToyModel(cfg)
    model.randomize_adapters(seed=3)
    with host(cpus=2), fail_once_off_the_calling_thread("backward"), \
            pytest.raises(ValueError, match="worker"):
        model.forward_backward(source, target)
    with host(cpus=1):
        model.theta_grad[...] = np.nan
        assert (model.forward_backward(source, target), model.theta_grad.tobytes()) == want


@st.composite
def arrivals(draw):
    """A pause before each hand-in of each of three shards, from a yield
    to a millisecond, and at times a (shard, hand-in) at which that shard
    raises instead."""
    pauses = st.lists(st.sampled_from([0.0, 0.0001, 0.001]), min_size=8, max_size=8)
    schedule = draw(st.lists(pauses, min_size=3, max_size=3))
    failure = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(0, 7)))
    return schedule, failure


@pytest.mark.usefixtures("three_shards")
@settings(deadline=None, max_examples=30)
@given(arrivals())
def test_any_arrival_order_joins_as_one_shard(arrival):
    """Under ``three_shards``, each shard pauses before each of its 8
    hand-ins as drawn, so the shards reach each adapter in any order: every
    gradient and every returned input is byte for byte the one-shard one.
    A shard that raises at a hand-in re-raises through ``in_threads``,
    and once the error is dropped no join of that backward, nor any
    operand handed in to it, is left alive. The interpreter switches
    threads every 10 us meanwhile, so the shards also interleave inside a
    hand-in."""
    schedule, failure = arrival
    cfg = config(AdapterSet.full(DIMS))
    source, target = batch(6)
    with host(cpus=1):
        reference = ToyModel(cfg)
        reference.randomize_adapters(seed=3)
        joined = reference.backward(reference.forward(source, target))
        want = reference.theta_grad.tobytes(), [joined[a].tobytes()
                                                for _, _, a in reference.adapters()]
    model = ToyModel(cfg)
    model.randomize_adapters(seed=3)
    hand_in, handed, alive = toymodel._Joins.hand_in, [0, 0, 0], []

    def scheduled(self, shard, adapter, operands):
        count, handed[shard] = handed[shard], handed[shard] + 1
        alive.extend(weakref.ref(a) for a in (self, *operands))
        if (shard, count) == failure:
            raise ValueError("shard failed")
        time.sleep(schedule[shard][count])
        return hand_in(self, shard, adapter, operands)

    step = model.forward(source, target)
    model.theta_grad[...] = np.nan
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(toymodel._Joins, "hand_in", scheduled):
            joined = model.backward(step)
    except ValueError:
        assert failure is not None
    else:
        assert failure is None and handed == [8, 8, 8]
        got = model.theta_grad.tobytes(), [joined[a].tobytes() for _, _, a in model.adapters()]
        assert got == want
    finally:
        sys.setswitchinterval(interval)
    del step, joined
    gc.collect()
    assert alive and not any(ref() is not None for ref in alive)
    assert step_shards(model) == {3}
