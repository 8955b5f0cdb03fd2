"""The frozen identity tensors, skipped while they are shared constants.

Every frozen bias starts as a read-only zero, and every norm's gamma and
beta as read-only ones and zeros, shared by every model of that width and
dtype; ``Linear`` and ``LayerNorm`` skip each op by one while the tensor
is still that array. The exact oracle is the same model with each of them
bound to a writable copy of its own values, so that every add and
multiply runs: the two must agree byte for byte. A norm whose affine is
skipped hands on the very array it tapes, so a step must write into no
taped array and into no stream of the ``Prefix`` it ran from.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa.toymodel import (
    LayerNorm,
    Linear,
    ToyModel,
    TrainConfig,
    grad_check,
    train_adapters,
)
from step_shards import step_shards
from test_shared_base import toy_configs

IDENTITIES = (".b", ".gamma", ".beta")


@st.composite
def cases(draw):
    """A small toy of any seed, sizes, precision and adapter set, and a
    batch of 1-4 rows whose source and target lengths may differ."""
    cfg = draw(toy_configs())
    rows = draw(st.integers(1, 4))
    lengths = st.integers(1, cfg.max_len)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    source = rng.integers(2, cfg.vocab_size, size=(rows, draw(lengths)))
    target = rng.integers(2, cfg.vocab_size, size=(rows, draw(lengths)))
    return cfg, source, target


def identities(model: ToyModel) -> list:
    """The frozen biases and the norms' gamma and beta."""
    return [p for p in model.parameters() if not p.trainable and p.name.endswith(IDENTITIES)]


def outcomes(model: ToyModel, source: np.ndarray, target: np.ndarray) -> list:
    """The log and ``theta`` of 3 Adam steps; then, on random adapters, a
    forward's loss and logits, the adapter inputs its backward returns in
    ``adapters()`` order, the gradients and, in double precision, the
    gradient audit's report."""
    log = train_adapters(model, source, target, TrainConfig(steps=3))
    out = [log.to_json_dict(), model.theta.tobytes()]
    model.randomize_adapters(seed=5)
    step = model.forward(source, target)
    out += [step.loss, step.logits.tobytes()]
    inputs = model.backward(step)
    out += [inputs[adapter].tobytes() for _, _, adapter in model.adapters()]
    out.append(model.theta_grad.tobytes())
    if model.cfg.precision == "double":
        out.append(grad_check(model, source, target).to_json_dict())
    return out


@pytest.mark.parametrize("shards", [1, 3])
@settings(deadline=None, max_examples=40)
@given(cases())
def test_skipped_identities_equal_applied_copies_byte_for_byte(request, shards, case):
    """A model as built, whose identity tensors are the shared read-only
    constants, against the same model with each bound to a writable copy
    of its own values: byte-equal train logs, ``theta``, logits, returned
    adapter inputs, gradients and audit reports, on one row shard and
    under ``three_shards``, in both precisions."""
    if shards == 3:
        request.getfixturevalue("three_shards")
    cfg, source, target = case
    built, applied = ToyModel(cfg), ToyModel(cfg)
    for param in identities(applied):
        param.value = param.value.copy()
    assert not any(p.value.flags.writeable for p in identities(built))
    assert all(p.value.flags.writeable for p in identities(applied))
    assert outcomes(built, source, target) == outcomes(applied, source, target)
    assert step_shards(built) == step_shards(applied) == {min(shards, source.shape[0])}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_an_identity_is_handed_on_and_a_rebound_tensor_is_applied(dtype):
    """A norm with an identity affine outputs its taped array itself, and a
    projection adds no bias; a tensor bound to other values is applied by
    the same ufuncs as before, byte for byte."""
    rng = np.random.default_rng(2)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = draw(2, 3, 4)
    linear = Linear("l", draw(4, 5))
    product = np.matmul(x, linear.w.value)
    assert linear.forward(x).tobytes() == product.tobytes()
    linear.b.value = draw(5)
    assert linear.forward(x).tobytes() == (product + linear.b.value).tobytes()

    norm = LayerNorm("n", 4, dtype)
    tape = []
    out = norm.forward(x, tape)
    assert out is tape[0][0] and norm.output(tape[0]) is out and out.dtype == dtype
    norm.gamma.value = draw(4)
    assert norm.output(tape[0]).tobytes() == (out * norm.gamma.value).tobytes()
    norm.beta.value = draw(4)
    want = out * norm.gamma.value + norm.beta.value
    assert norm.output(tape[0]).tobytes() == want.tobytes()
    assert norm.forward(x).tobytes() == want.tobytes()


def snapshot(entry) -> list:
    """The bytes of each array of a tape entry, and its other items."""
    items = entry if isinstance(entry, tuple) else (entry,)
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in items]


class CheckedTape(list):
    """A shard's tape, snapshotted once its forward has returned: each
    entry must come off as it went on when backward takes it."""

    def __init__(self, entries: list):
        super().__init__(entries)
        self.snapshots = [snapshot(entry) for entry in entries]

    def pop(self):
        entry = super().pop()
        assert snapshot(entry) == self.snapshots.pop(), "a step wrote into a taped array"
        return entry


@contextlib.contextmanager
def checked_steps():
    """Every step made inside runs back on ``CheckedTape``s; yields each
    step's tapes and the bytes of its ``Prefix``'s streams at its forward."""
    steps = []
    forward = ToyModel.forward

    def checking(self, *args, **kwargs):
        step = forward(self, *args, **kwargs)
        step._tapes = [CheckedTape(tape) for tape in step._tapes]
        prefix = step._prefix
        steps.append((step._tapes, prefix, prefix.enc.tobytes() + prefix.dec.tobytes()))
        return step

    with mock.patch.object(ToyModel, "forward", checking):
        yield steps


@pytest.mark.parametrize("shards", [1, 3])
@settings(deadline=None, max_examples=40)
@given(cases(), st.booleans())
def test_a_step_writes_into_no_taped_array_and_no_prefix_stream(request, shards, case,
                                                                 rebind_norms):
    """Through training steps and a backward that returns the adapters'
    inputs, every tape entry comes off byte for byte as its forward left
    it, and every ``Prefix`` stream is as it was: with the norms' affine
    skipped, so that each norm hands on its taped array, and with it bound
    to random values."""
    if shards == 3:
        request.getfixturevalue("three_shards")
    cfg, source, target = case
    model = ToyModel(cfg)
    model.randomize_adapters(seed=5)
    if rebind_norms:
        rng = np.random.default_rng(3)
        for param in identities(model):
            if not param.name.endswith(".b"):
                param.value = rng.standard_normal(param.value.shape).astype(param.value.dtype)
    with checked_steps() as steps:
        train_adapters(model, source, target, TrainConfig(steps=2))
        model.backward(model.forward(source, target))
    ran_back = steps[:-2] + steps[-1:]  # train_adapters' final forward runs no backward
    if model.lowest_trainable == model.n_layers:
        ran_back = []
    for tapes, _, _ in ran_back:
        assert all(len(tape) == 0 for tape in tapes)
    for _, prefix, streams in steps:
        assert prefix.enc.tobytes() + prefix.dec.tobytes() == streams
