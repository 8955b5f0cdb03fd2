"""Differential tests of the trainability-aware paths of the toy model.

Every forward runs from a ``Prefix``, by default the one at the lowest
adapter, which ends each side's stream after the add&norm of the bottom
layer's block 0, and ``ToyModel.backward`` stops there again. Each is
checked bit for bit against the simple path it replaces, written out here:
a forward that runs and tapes every layer, a reverse loop over every
block of every layer, and a training loop built from those two.
"""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa.ablation import apply_ablation, grid_ablation_plan, uniform_ablation_plan
from adapterqa.adapters import AdapterSet, ModelDims
from adapterqa.errors import InputError
from adapterqa.toymodel import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BOS_ID,
    Divergence,
    GradCheckReport,
    Layer,
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    grad_check,
    softmax_cross_entropy,
    train_adapters,
)
from step_shards import step_shards

DIMS = ModelDims(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4)
N_LAYERS = DIMS.n_encoder_layers + DIMS.n_decoder_layers
FULL = AdapterSet.full(DIMS)

# Every row of the toy-scaled uniform and grid plans, plus the named shapes.
NAMED_SETS = [
    AdapterSet.empty(),
    AdapterSet.of(encoder_layers=[1, 2]),
    AdapterSet.of(decoder_layers=[5]),
    AdapterSet.of(encoder_layers=[0, 2], decoder_layers=[5, 7]),
    FULL,
    *(apply_ablation(FULL, row) for row in uniform_ablation_plan(DIMS) + grid_ablation_plan(DIMS)),
]

adapter_sets = st.builds(
    AdapterSet,
    st.frozensets(st.sampled_from(DIMS.encoder_layer_indices())),
    st.frozensets(st.sampled_from(DIMS.decoder_layer_indices())),
)


def over_adapter_sets(test):
    """Run ``test`` on every named set and on arbitrary ones."""
    test = settings(deadline=None, max_examples=25)(given(adapter_sets)(test))
    for adapter_set in NAMED_SETS:
        test = example(adapter_set)(test)
    return test


def build(adapter_set: AdapterSet, randomize: bool = True):
    model = build_toy_model(ToyConfig(
        d_model=DIMS.d_model, bottleneck=DIMS.bottleneck,
        n_encoder_layers=DIMS.n_encoder_layers, n_decoder_layers=DIMS.n_decoder_layers,
        n_heads=2, vocab_size=16, max_len=8, seed=6, adapter_set=adapter_set,
    ))
    if randomize:
        model.randomize_adapters(seed=7)
    return model


def batch():
    rng = np.random.default_rng(8)
    return rng.integers(2, 16, size=(3, 6)), rng.integers(2, 16, size=(3, 5))


def full_forward(model, source, target):
    """The loss of a forward that runs and tapes every layer, as before
    prefixes, with the logits gradient, each stack's embedded input and
    the tape that ``full_backward`` needs."""

    def embed(ids):
        return model.tok_emb.value[ids] + model.pos_emb.value[: ids.shape[1]][None, :, :]

    tape = []
    enc = enc_in = embed(source)
    for layer in model.encoder:
        enc = layer.forward(enc, tape=tape)
    dec = dec_in = embed(np.concatenate([np.full((len(target), 1), BOS_ID), target[:, :-1]],
                                        axis=1))
    for layer in model.decoder:
        dec = layer.forward(dec, enc, tape)
    loss, d_logits = softmax_cross_entropy(model.out_proj.forward(dec), target)
    return loss, d_logits, enc_in, dec_in, tape


def full_backward(model, d_logits, enc_in, dec_in, tape):
    """The reverse pass through every layer, as before truncation, after
    ``full_forward``. Each layer is handed the stream below it: the layer
    below's output, recomputed from its last block's entries, and at the
    bottom of each stack its embedded input. Each adapter's weight
    gradients are set from the operands its backward hands in."""
    d = model.out_proj.backward(d_logits)
    d_enc_total = np.zeros(enc_in.shape, dtype=d_logits.dtype)

    def hand_in(adapter, operands):
        adapter.set_grads(*operands)

    for stack, stack_in, d_memory in ((model.decoder, dec_in, d_enc_total),
                                      (model.encoder, enc_in, None)):
        for index in reversed(range(len(stack))):
            below = stack[index - 1].blocks[-1].output if index else lambda tape: stack_in
            d = stack[index].backward(d, tape, hand_in, below, d_memory)
        d = d_enc_total


def reference_train(model, source, target, cfg: TrainConfig):
    """``train_adapters`` on full forwards and full backwards."""
    params = model.trainable_parameters()
    adam_m = [np.zeros_like(p.value) for p in params]
    adam_v = [np.zeros_like(p.value) for p in params]
    losses = []
    for step in range(cfg.steps):
        loss, *grad_inputs = full_forward(model, source, target)
        full_backward(model, *grad_inputs)
        losses.append(loss)
        if cfg.optimizer == "sgd":
            for p in params:
                p.value -= cfg.learning_rate * p.grad
        else:
            t = step + 1
            for p, m, v in zip(params, adam_m, adam_v):
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * p.grad
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * (p.grad * p.grad)
                m_hat = m / (1 - ADAM_BETA1 ** t)
                v_hat = v / (1 - ADAM_BETA2 ** t)
                p.value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return losses, full_forward(model, source, target)[0]


@over_adapter_sets
def test_forward_from_any_prefix_matches_full_forward(adapter_set):
    model = build(adapter_set)
    source, target = batch()
    full_loss, full_logits = model.forward(source, target)
    for start in range(N_LAYERS + 1):
        loss, logits = model.forward(source, target, model.prefix(source, target, start))
        assert loss == full_loss
        assert logits.tobytes() == full_logits.tobytes()


@over_adapter_sets
def test_truncated_backward_matches_full_reverse_pass(adapter_set):
    """A backward after a forward from the default prefix, or from any
    prefix at or below the lowest adapter, stops where that forward began
    and gives the gradients of a reverse pass through every layer."""
    truncated, full = build(adapter_set), build(adapter_set)
    source, target = batch()
    _, *grad_inputs = full_forward(full, source, target)
    full_backward(full, *grad_inputs)
    for start in (None, *range(truncated.lowest_trainable + 1)):
        truncated.theta_grad[...] = np.nan
        prefix = None if start is None else truncated.prefix(source, target, start)
        truncated.forward_backward(source, target, prefix)
        for mine, theirs in zip(truncated.parameters(), full.parameters()):
            if mine.trainable:
                assert mine.grad.tobytes() == theirs.grad.tobytes(), (start, mine.name)
            else:
                assert mine.grad is None and theirs.grad is None, mine.name


@over_adapter_sets
def test_train_logs_match_full_forward_and_backward_loop(adapter_set):
    source, target = batch()
    for cfg in (TrainConfig(steps=4), TrainConfig(learning_rate=0.5, steps=4, optimizer="sgd")):
        model, reference = build(adapter_set, randomize=False), build(adapter_set, randomize=False)
        log = train_adapters(model, source, target, cfg)
        losses, final_loss = reference_train(reference, source, target, cfg)
        assert (log.losses, log.final_loss) == (losses, final_loss)
        for mine, theirs in zip(model.trainable_parameters(), reference.trainable_parameters()):
            assert mine.value.tobytes() == theirs.value.tobytes(), mine.name


@pytest.mark.parametrize("shards", [1, 3])
@over_adapter_sets
def test_two_steps_alive_at_once_run_back_as_each_alone(request, shards, adapter_set):
    """Forward A, forward B on other ids, then backward B and backward A,
    on one row shard or under ``three_shards``: each step holds its own
    tapes, so each backward gives the loss, gradients and adapter inputs
    of its batch's forward and backward run alone."""
    if shards == 3:
        request.getfixturevalue("three_shards")
    model = build(adapter_set)
    rng = np.random.default_rng(9)
    batches = (batch(), (rng.integers(2, 16, size=(4, 5)), rng.integers(2, 16, size=(4, 3))))

    def run_back(step):
        inputs = model.backward(step)
        adapters = [adapter for _, _, adapter in model.adapters()]
        return step.loss, model.theta_grad.tobytes(), [inputs[a].tobytes() for a in adapters]

    alone = [run_back(model.forward(*ids)) for ids in batches]
    step_a = model.forward(*batches[0])
    step_b = model.forward(*batches[1])
    assert run_back(step_b) == alone[1]
    assert run_back(step_a) == alone[0]
    assert step_shards(model) == {shards}


def test_lowest_trainable_layer_counts_decoder_after_encoder():
    assert build(FULL).lowest_trainable == 0
    assert build(AdapterSet.of(encoder_layers=[2], decoder_layers=[4])).lowest_trainable == 2
    assert build(AdapterSet.of(decoder_layers=[6, 7])).lowest_trainable == 6
    assert build(AdapterSet.empty()).lowest_trainable == N_LAYERS


def test_prefix_rejects_other_ids_and_out_of_range_starts():
    model = build(FULL)
    source, target = batch()
    prefix = model.prefix(source, target, 3)
    for other_source, other_target in ((source[::-1], target), (source, target[:, ::-1])):
        with pytest.raises(InputError):
            model.forward(other_source, other_target, prefix)
    for start in (-1, N_LAYERS + 1, 2.0, True):
        with pytest.raises(InputError):
            model.prefix(source, target, start)


def count_forwards(monkeypatch) -> list:
    """A weak reference to the step of each ``ToyModel.forward`` call from
    here on."""
    calls = []
    forward = ToyModel.forward

    def counted(self, *args, **kwargs):
        step = forward(self, *args, **kwargs)
        calls.append(weakref.ref(step))
        return step

    monkeypatch.setattr(ToyModel, "forward", counted)
    return calls


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_nothing_trainable_trains_in_one_forward(monkeypatch, optimizer):
    """With no adapter, training runs one forward from its prefix, and its
    log is that of ``forward_backward`` at every step and a last
    ``forward``, all from that prefix."""
    source, target = batch()
    cfg = TrainConfig(learning_rate=0.5, steps=5, optimizer=optimizer)
    oracle = build(AdapterSet.empty())
    prefix = oracle.prefix(source, target, oracle.lowest_trainable)
    losses = [oracle.forward_backward(source, target, prefix) for _ in range(cfg.steps)]
    final_loss = oracle.forward(source, target, prefix).loss
    calls = count_forwards(monkeypatch)
    log = train_adapters(build(AdapterSet.empty()), source, target, cfg)
    assert len(calls) == 1
    assert log.losses == losses
    assert log.final_loss == final_loss


def test_nothing_trainable_diverges_as_at_step_0(monkeypatch):
    """A non-finite loss with no adapter raises the ``Divergence`` that
    step 0 raises, after one forward, whose step is gone with the raise."""
    forwards = count_forwards(monkeypatch)
    model = build(AdapterSet.empty())
    bias = model.out_proj.b.value.copy()
    bias[0] = np.nan
    model.out_proj.b.value = bias
    with pytest.raises(Divergence, match="^loss became non-finite at step 0$"):
        train_adapters(model, *batch(), TrainConfig(steps=3))
    assert len(forwards) == 1
    assert forwards[0]() is None


def test_nothing_trainable_audits_in_no_forward(monkeypatch):
    """With no adapter, the audit runs no forward and no layer, reports
    that it checked nothing, and leaves an earlier step as it was, as an
    audit with adapters does."""
    model = build(AdapterSet.empty())
    step = model.forward(*batch())
    forwards, layers = count_forwards(monkeypatch), []
    monkeypatch.setattr(Layer, "forward", lambda self, *args, **kwargs: layers.append(self))
    report = grad_check(model, *batch(), eps=1e-5)
    assert forwards == [] and layers == []
    assert repr(report) == repr(GradCheckReport(0.0, "", 0, 1e-5, {}))
    assert model.backward(step) == {}


SOURCE, TARGET = batch()
BAD_AUDITS = {
    "out-of-vocabulary": (np.where(SOURCE == SOURCE[0, 0], 16, SOURCE), TARGET, 1e-6),
    "1-d": (SOURCE[0], TARGET, 1e-6),
    "float": (SOURCE.astype(float), TARGET, 1e-6),
    "batch-mismatch": (SOURCE, TARGET[:2], 1e-6),
    "longer-than-max-len": (np.tile(SOURCE, 2), TARGET, 1e-6),
    "eps": (SOURCE, TARGET, 0.0),
}


@pytest.mark.parametrize("source, target, eps", BAD_AUDITS.values(), ids=BAD_AUDITS)
def test_nothing_trainable_audit_refuses_what_an_adapted_audit_refuses(source, target, eps):
    """Bad ids and a bad eps raise the same error, word for word, with or
    without adapters."""
    raised = []
    for adapter_set in (AdapterSet.empty(), FULL):
        with pytest.raises(Exception) as error:
            grad_check(build(adapter_set), source, target, eps=eps)
        raised.append((type(error.value), str(error.value)))
    assert raised[0] == raised[1]
    assert issubclass(raised[0][0], InputError)


@pytest.mark.usefixtures("three_shards")
class TestThreeShards:
    """The differential tests above, with every forward and backward of
    the model split into three row shards; the full paths they compare
    against call the layers directly, on the whole batch."""

    test_forward_from_any_prefix_matches_full_forward = staticmethod(
        test_forward_from_any_prefix_matches_full_forward)
    test_truncated_backward_matches_full_reverse_pass = staticmethod(
        test_truncated_backward_matches_full_reverse_pass)
    test_train_logs_match_full_forward_and_backward_loop = staticmethod(
        test_train_logs_match_full_forward_and_backward_loop)
