import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa import toymodel
from adapterqa.ablation import apply_ablation, grid_ablation_plan
from adapterqa.adapters import MAX_STACK_LAYERS, AdapterSet, count_adapter_params
from adapterqa.errors import InputError
from adapterqa.toymodel import (
    LOSS_GROWTH_LIMIT,
    Divergence,
    ForwardNeeded,
    InvalidConfig,
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    check_toy_size,
    freeze_report,
    grad_check,
    make_copy_task,
    train_adapters,
)
from model_oracles import grad_check_per_scalar
import test_trainability as trainability

GRADCHECK_CONFIG = ToyConfig(
    d_model=8, bottleneck=4, n_encoder_layers=1, n_decoder_layers=1,
    n_heads=2, vocab_size=16, max_len=8, seed=6,
)


def sample_batch(cfg, batch=2, length=4, seed=8):
    rng = np.random.default_rng(seed)
    source = rng.integers(2, cfg.vocab_size, size=(batch, length))
    target = rng.integers(2, cfg.vocab_size, size=(batch, length))
    return source, target


def test_zero_init_adapters_match_base_model_bitwise():
    adapted = build_toy_model(ToyConfig(seed=11))
    base = build_toy_model(ToyConfig(seed=11, adapter_set=AdapterSet.empty()))
    source, target = sample_batch(adapted.cfg, batch=3, length=5)
    loss_a, logits_a = adapted.forward(source, target)
    loss_b, logits_b = base.forward(source, target)
    assert loss_a == loss_b
    assert logits_a.tobytes() == logits_b.tobytes()


def test_forward_is_deterministic():
    source, target = sample_batch(GRADCHECK_CONFIG)
    losses = []
    for _ in range(2):
        model = build_toy_model(GRADCHECK_CONFIG)
        loss, logits = model.forward(source, target)
        losses.append((loss, logits.tobytes()))
    assert losses[0] == losses[1]


def test_grad_check_small_config():
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    source, target = sample_batch(GRADCHECK_CONFIG)
    report = grad_check(model, source, target, eps=1e-5)
    assert report.max_rel_error < 1e-4
    assert report.n_params_checked == sum(
        p.value.size for p in model.trainable_parameters()
    )


def test_grad_check_reports_nan_gradients_as_failure():
    model = build_toy_model(ToyConfig())
    model.randomize_adapters(seed=7)
    model.trainable_parameters()[0].value.flat[0] = np.nan
    report = grad_check(model, *sample_batch(model.cfg))
    assert math.isnan(report.max_rel_error)
    assert report.worst_parameter == "encoder.0.adapter_attn.down.w"
    assert len(report.per_parameter) == 32
    assert all(math.isnan(err) for err in report.per_parameter.values())


def test_grad_check_names_the_first_nan_tensor(monkeypatch):
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    batch = sample_batch(GRADCHECK_CONFIG)
    clean = grad_check(model, *batch)
    names = list(clean.per_parameter)
    relative_errors = toymodel._relative_errors
    first_tensor = iter(range(0, len(names), 4))  # of each adapter, in audit order

    def one_nan_in_tensors_1_and_5(model, prefix, index, block, h, adapter, *args):
        """The adapter's errors, with its last scalar of tensor 1 and of
        tensor 5 (each ``down.b``) made NaN."""
        errors = relative_errors(model, prefix, index, block, h, adapter, *args)
        first, end = next(first_tensor), 0
        for tensor, param in enumerate(adapter.parameters(), start=first):
            end += param.value.size
            if tensor in (1, 5):
                errors[end - 1] = np.nan
        return errors

    monkeypatch.setattr(toymodel, "_relative_errors", one_nan_in_tensors_1_and_5)
    report = grad_check(model, *batch)
    assert math.isnan(report.max_rel_error)
    assert report.worst_parameter == names[1]
    for i, name in enumerate(names):
        if i in (1, 5):
            assert math.isnan(report.per_parameter[name])
        else:
            assert repr(report.per_parameter[name]) == repr(clean.per_parameter[name])


@pytest.mark.parametrize("which", range(4), ids=["down.w", "down.b", "up.w", "up.b"])
def test_grad_check_names_a_wrong_gradient(monkeypatch, which):
    """One tensor of one adapter gets a gradient 1% too large; at the
    default step (1e-6) no copy crosses a rectifier kink, so the audit
    names exactly that one."""
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    _, _, chosen = list(model.adapters())[2]
    set_grads = toymodel.AdapterModule.set_grads

    def scaled_set_grads(self, *args):
        set_grads(self, *args)
        if self is chosen:
            self.parameters()[which].grad *= 1.01

    monkeypatch.setattr(toymodel.AdapterModule, "set_grads", scaled_set_grads)
    report = grad_check(model, *sample_batch(GRADCHECK_CONFIG))
    assert report.worst_parameter == chosen.parameters()[which].name
    assert report.max_rel_error > 1e-4


def test_per_scalar_oracle_reports_nan_as_the_audit_does():
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    model.trainable_parameters()[0].value.flat[0] = np.nan
    batch = sample_batch(GRADCHECK_CONFIG)
    report, oracle = grad_check(model, *batch), grad_check_per_scalar(model, *batch)
    assert oracle.worst_parameter == report.worst_parameter == "encoder.0.adapter_attn.down.w"
    assert math.isnan(oracle.max_rel_error)
    assert list(oracle.per_parameter) == list(report.per_parameter)
    assert all(math.isnan(err) for err in oracle.per_parameter.values())


def test_frozen_parameters_receive_exactly_zero_gradient():
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    source, target = sample_batch(GRADCHECK_CONFIG)
    model.forward_backward(source, target)
    for param in model.parameters():
        if not param.trainable:
            assert param.grad is None, param.name
        else:
            assert param.grad.any(), param.name


def test_each_backward_sets_the_adapter_gradients():
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    source, target = sample_batch(GRADCHECK_CONFIG)
    grads = []
    for _ in range(2):
        model.forward_backward(source, target)
        grads.append([p.grad.tobytes() for p in model.trainable_parameters()])
    assert grads[0] == grads[1]
    fresh = build_toy_model(GRADCHECK_CONFIG)
    assert all(p.grad is None for p in fresh.parameters() if not p.trainable)
    train_adapters(fresh, source, target, TrainConfig(steps=2))
    assert all(p.grad is None for p in fresh.parameters() if not p.trainable)


def test_backward_needs_a_forward_of_its_own():
    # A step's logits gradient is used up by its backward, so a second
    # backward of the same step is refused by name rather than failing
    # inside a matrix product, and another step runs back as usual.
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    step = model.forward(*sample_batch(GRADCHECK_CONFIG))
    model.backward(step)
    grads = model.theta_grad.tobytes()
    with pytest.raises(ForwardNeeded, match="already ran backward"):
        model.backward(step)
    assert model.theta_grad.tobytes() == grads
    model.backward(model.forward(*sample_batch(GRADCHECK_CONFIG)))
    assert model.theta_grad.tobytes() == grads

    # So is the backward of a step from a prefix above the lowest adapter
    # (layer 0 of the default toy), whose caches do not reach every
    # adapter: on a new model, and after an update.
    model = build_toy_model(ToyConfig())
    source, target = sample_batch(ToyConfig())
    for update in (False, True):
        if update:
            model.forward_backward(source, target)
            model.theta -= 0.1 * model.theta_grad
        grads = model.theta_grad.tobytes()
        step = model.forward(source, target, model.prefix(source, target, 3))
        with pytest.raises(ForwardNeeded, match="layer 3"):
            model.backward(step)
        assert model.theta_grad.tobytes() == grads


def test_a_prefix_or_step_of_another_model_is_refused(monkeypatch):
    """A model runs forward only from a ``Prefix`` it made, and backward
    only on a ``Step`` it ran; another model's, of the same shape with
    another seed or of another width, raises ``InputError`` before any
    layer runs, and leaves the gradients and the step as they were."""
    model = ToyModel(ToyConfig(seed=1))
    model.randomize_adapters(seed=7)
    model.forward_backward(*sample_batch(ToyConfig()))
    grads = model.theta_grad.tobytes()
    source, target = sample_batch(ToyConfig(), seed=9)
    for other in (ToyModel(ToyConfig(seed=2)), ToyModel(ToyConfig(seed=1, d_model=16))):
        prefix = other.prefix(source, target, other.lowest_trainable)
        step = other.forward(source, target, prefix)
        layers = []
        with monkeypatch.context() as patch:
            for method in ("forward", "backward"):
                patch.setattr(toymodel.Layer, method, lambda *args, **kwargs: layers.append(args))
            for run in (model.forward, model.forward_backward):
                with pytest.raises(InputError, match="prefix was computed by another model"):
                    run(source, target, prefix)
            with pytest.raises(InputError, match="step was run by another model"):
                model.backward(step)
        assert layers == []
        assert model.theta_grad.tobytes() == grads
        other.backward(step)  # the refused step still holds its tapes


def test_prefixes_compare_and_hash_by_identity():
    """Two prefixes of the same ids on one model hold equal streams, yet
    ``==``, ``in`` and ``hash`` treat them as distinct objects, as they do
    steps, instead of raising on their arrays."""
    model = build_toy_model(ToyConfig())
    source, target = sample_batch(ToyConfig())
    one, two = (model.prefix(source, target, model.lowest_trainable) for _ in range(2))
    assert np.array_equal(one.enc, two.enc) and np.array_equal(one.dec, two.dec)
    assert one == one and one != two
    assert one in [two, one] and one not in [two]
    assert len({one, two, one}) == 2
    assert hash(one) != hash(two)


def assert_views_of_the_flat_vectors(model):
    """Each trainable tensor and its gradient view ``theta`` and
    ``theta_grad`` at consecutive offsets, in ``trainable_parameters()``
    order, and together cover them."""
    offset = 0
    for p in model.trainable_parameters():
        for view, vector in ((p.value, model.theta), (p.grad, model.theta_grad)):
            assert np.shares_memory(view, vector), p.name
            assert view.flags.c_contiguous and view.dtype == vector.dtype, p.name
            byte_offset = view.ctypes.data - vector.ctypes.data
            assert byte_offset == offset * vector.itemsize, p.name
        assert p.grad.shape == p.value.shape, p.name
        offset += p.value.size
    assert offset == model.theta.size == model.theta_grad.size


@pytest.mark.parametrize("precision", ["double", "single"])
def test_trainable_tensors_are_views_of_two_flat_vectors(precision):
    cfg = ToyConfig(**{**GRADCHECK_CONFIG.__dict__, "precision": precision})
    model = build_toy_model(cfg)
    assert_views_of_the_flat_vectors(model)
    model.randomize_adapters(seed=7)
    assert_views_of_the_flat_vectors(model)
    train_adapters(model, *sample_batch(cfg), TrainConfig(steps=2))
    assert_views_of_the_flat_vectors(model)


@pytest.mark.parametrize("adapter_set", [
    trainability.FULL,
    AdapterSet.of(encoder_layers=trainability.DIMS.encoder_layer_indices()),
    AdapterSet.of(decoder_layers=trainability.DIMS.decoder_layer_indices()),
    *(apply_ablation(trainability.FULL, row) for row in grid_ablation_plan(trainability.DIMS)),
], ids=["full", "encoder-only", "decoder-only", *(f"grid-row-{i}" for i in range(4))])
def test_every_backward_writes_every_adapter_gradient(adapter_set):
    """A gradient slot that the truncated backward skipped would keep a
    stale value; poisoned with NaN, it shows."""
    model = trainability.build(adapter_set)
    for _ in range(2):
        model.theta_grad[...] = np.nan
        model.forward_backward(*trainability.batch())
        assert np.isfinite(model.theta_grad).all()


def test_removing_a_layer_shrinks_gradient_vector_exactly():
    cfg = GRADCHECK_CONFIG
    per_layer = 2 * (2 * cfg.d_model * cfg.bottleneck + cfg.bottleneck + cfg.d_model)
    full = build_toy_model(cfg)
    reduced_set = AdapterSet.of(encoder_layers=[], decoder_layers=[1])
    reduced = build_toy_model(
        ToyConfig(**{**cfg.__dict__, "adapter_set": reduced_set})
    )
    n_full = sum(p.value.size for p in full.trainable_parameters())
    n_reduced = sum(p.value.size for p in reduced.trainable_parameters())
    assert n_full - n_reduced == per_layer


def test_freeze_report_matches_parameter_accounting():
    model = build_toy_model(ToyConfig())
    report = freeze_report(model)
    expected, _ = count_adapter_params(model.dims, model.adapter_set)
    assert report.trainable_total == expected
    assert report.frozen_total == model.dims.base_total_params
    tags = {t.name: t.trainable for t in report.tensors}
    assert tags["embed.tokens"] is False
    assert tags["encoder.0.adapter_attn.down.w"] is True
    assert all(("adapter" in name) == trainable for name, trainable in tags.items())


def test_decoder_cross_attention_carries_no_adapter():
    model = build_toy_model(ToyConfig())
    names = [p.name for p in model.parameters()]
    assert not any("cross" in n and "adapter" in n for n in names)
    for layer_idx in range(model.cfg.n_decoder_layers):
        assert f"decoder.{layer_idx}.adapter_attn.down.w" in names
        assert f"decoder.{layer_idx}.adapter_ffn.down.w" in names


def test_zero_learning_rate_changes_nothing():
    # A learning rate that is zero, negative or not finite cannot train: it
    # is refused before the first step, so the model is left as it was.
    for optimizer in ("sgd", "adam"):
        for lr in (0.0, -0.01, float("nan"), float("inf")):
            model = build_toy_model(GRADCHECK_CONFIG)
            model.randomize_adapters(seed=7)
            before = {p.name: p.value.copy() for p in model.parameters()}
            source, target = sample_batch(GRADCHECK_CONFIG)
            with pytest.raises(InvalidConfig, match="learning_rate"):
                train_adapters(model, source, target,
                               TrainConfig(learning_rate=lr, steps=5, optimizer=optimizer))
            for param in model.parameters():
                assert np.array_equal(param.value, before[param.name]), param.name


def test_bool_learning_rate_and_audit_step_are_refused():
    # True is an int: taken as a number it would train at rate 1.0 and
    # audit at step 1.0. Both are refused before any work.
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    before = model.theta.copy()
    source, target = sample_batch(GRADCHECK_CONFIG)
    for optimizer in ("sgd", "adam"):
        with pytest.raises(InvalidConfig, match="learning_rate"):
            train_adapters(model, source, target,
                           TrainConfig(learning_rate=True, steps=1, optimizer=optimizer))
    for eps in (True, False):
        with pytest.raises(InvalidConfig, match="eps"):
            grad_check(model, source, target, eps=eps)
    assert model.theta.tobytes() == before.tobytes()


@pytest.mark.parametrize("value", ["0.1", None, [1e-6]], ids=["str", "None", "list"])
def test_non_number_learning_rate_and_audit_step_are_refused(value):
    model = build_toy_model(GRADCHECK_CONFIG)
    model.randomize_adapters(seed=7)
    before = model.theta.copy()
    source, target = sample_batch(GRADCHECK_CONFIG)
    for optimizer in ("sgd", "adam"):
        with pytest.raises(InvalidConfig, match="learning_rate"):
            train_adapters(model, source, target,
                           TrainConfig(learning_rate=value, steps=1, optimizer=optimizer))
    with pytest.raises(InvalidConfig, match="eps"):
        grad_check(model, source, target, eps=value)
    assert model.theta.tobytes() == before.tobytes()


def test_no_adapters_means_constant_loss():
    cfg = ToyConfig(**{**GRADCHECK_CONFIG.__dict__, "adapter_set": AdapterSet.empty()})
    model = build_toy_model(cfg)
    assert model.trainable_parameters() == []
    source, target = sample_batch(cfg)
    log = train_adapters(model, source, target, TrainConfig(learning_rate=1e-2, steps=5))
    assert len(set(log.losses)) == 1


def test_copy_task_overfits_to_below_ten_percent():
    model = build_toy_model(ToyConfig())
    source, target = make_copy_task(n_examples=32, seq_len=6, vocab_size=64, seed=6)
    log = train_adapters(model, source, target,
                         TrainConfig(learning_rate=1e-2, steps=200, optimizer="adam"))
    assert log.final_loss < 0.1 * log.initial_loss


def test_frozen_tensors_bit_identical_after_training():
    model = build_toy_model(GRADCHECK_CONFIG)
    frozen_before = {
        p.name: p.value.tobytes() for p in model.parameters() if not p.trainable
    }
    source, target = make_copy_task(8, 4, GRADCHECK_CONFIG.vocab_size, seed=3)
    train_adapters(model, source, target, TrainConfig(learning_rate=1e-2, steps=50))
    for param in model.parameters():
        if not param.trainable:
            assert param.value.tobytes() == frozen_before[param.name], param.name


def test_identical_seeds_give_identical_train_logs():
    logs = []
    for _ in range(2):
        model = build_toy_model(ToyConfig(seed=9))
        source, target = make_copy_task(8, 4, 64, seed=9)
        logs.append(train_adapters(model, source, target,
                                   TrainConfig(learning_rate=1e-2, steps=30)))
    assert logs[0].losses == logs[1].losses
    assert logs[0].final_loss == logs[1].final_loss


def test_divergence_detected():
    model = build_toy_model(GRADCHECK_CONFIG)
    source, target = sample_batch(GRADCHECK_CONFIG)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Divergence):
            train_adapters(model, source, target,
                           TrainConfig(learning_rate=1e160, steps=10, optimizer="sgd"))


def test_loss_growth_past_the_limit_is_divergence():
    model = build_toy_model(ToyConfig())
    source, target = make_copy_task()
    with pytest.raises(Divergence, match="100 times the initial loss"):
        train_adapters(model, source, target,
                       TrainConfig(learning_rate=100, steps=200, optimizer="sgd"))


def test_loss_spike_below_the_growth_limit_recovers():
    model = build_toy_model(ToyConfig())
    source, target = make_copy_task()
    log = train_adapters(model, source, target,
                         TrainConfig(learning_rate=10, steps=200, optimizer="sgd"))
    assert 10 * log.initial_loss < max(log.losses) <= LOSS_GROWTH_LIMIT * log.initial_loss
    assert log.final_loss < log.initial_loss


def test_invalid_configs_rejected():
    """``ToyModel`` checks its own config, so building it directly refuses
    what ``build_toy_model`` refuses."""
    invalid = [
        ToyConfig(d_model=10, n_heads=3),
        ToyConfig(vocab_size=2),
        ToyConfig(precision="half"),
        ToyConfig(d_model=0),
        # One seed rule: a non-negative int, never a bool.
        ToyConfig(seed=-1),
        ToyConfig(seed=True),
        # Layer counts are bounded before any weight is drawn.
        ToyConfig(n_encoder_layers=MAX_STACK_LAYERS + 1),
        ToyConfig(n_decoder_layers=10**8),
    ]
    for build in (build_toy_model, ToyModel):
        for cfg in invalid:
            with pytest.raises(InvalidConfig):
                build(cfg)


def test_bad_ids_rejected():
    model = build_toy_model(GRADCHECK_CONFIG)
    with pytest.raises(InputError):
        model.forward(np.array([[1, 99]]), np.array([[1, 2]]))
    with pytest.raises(InputError):
        model.forward(np.zeros((1, 100), dtype=int), np.zeros((1, 4), dtype=int))
    with pytest.raises(InputError):
        model.forward(np.zeros((2, 4), dtype=int), np.zeros((1, 4), dtype=int))
    # Only integer ids index the embeddings; a bool array would be taken
    # as a mask.
    for bad in (np.ones((1, 4)), np.ones((1, 4), dtype=object), np.ones((1, 4), dtype=bool)):
        with pytest.raises(InputError, match="integer"):
            model.forward(bad, np.ones((1, 4), dtype=int))
        with pytest.raises(InputError, match="integer"):
            model.forward(np.ones((1, 4), dtype=int), bad)
    loss, _ = model.forward(np.full((1, 4), 3, dtype=np.uint8), np.full((1, 4), 2, dtype=np.uint8))
    assert np.isfinite(loss)


def test_single_precision_runs():
    cfg = ToyConfig(**{**GRADCHECK_CONFIG.__dict__, "precision": "single"})
    model = build_toy_model(cfg)
    source, target = sample_batch(cfg)
    loss, logits = model.forward(source, target)
    assert logits.dtype == np.float32
    assert np.isfinite(loss)
    with pytest.raises(InvalidConfig):
        grad_check(model, source, target)


@pytest.mark.parametrize("seed", [0, 6, 11])
@pytest.mark.parametrize("adapter_set", [
    None, AdapterSet.of(encoder_layers=[0, 1]), AdapterSet.of(decoder_layers=[2, 3]),
    AdapterSet.empty(),
], ids=["full", "encoder-only", "decoder-only", "empty"])
def test_single_precision_holds_the_double_weights_rounded(adapter_set, seed):
    """Weights are drawn in float64 and cast once, so every tensor of a
    single-precision model is the same-seed double tensor, rounded."""
    cfg = ToyConfig(seed=seed, adapter_set=adapter_set)
    single = build_toy_model(ToyConfig(**{**cfg.__dict__, "precision": "single"}))
    double = build_toy_model(cfg)
    for mine, theirs in zip(single.parameters(), double.parameters(), strict=True):
        assert mine.name == theirs.name
        assert mine.value.dtype == np.float32, mine.name
        assert mine.value.tobytes() == theirs.value.astype(np.float32).tobytes(), mine.name


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(3, 40), st.integers(1, 12))
def test_size_bound_counts_the_model_it_would_build(half_width, bottleneck, n_enc, n_dec,
                                                    vocab, max_len):
    """``check_toy_size`` counts the parameters from the config alone:
    they are the built model's, with adapters on every layer."""
    cfg = ToyConfig(d_model=2 * half_width, bottleneck=bottleneck, n_encoder_layers=n_enc,
                    n_decoder_layers=n_dec, n_heads=2, vocab_size=vocab, max_len=max_len)
    report = freeze_report(ToyModel(cfg))
    assert cfg.base_parameters() == report.frozen_total
    total = report.frozen_total + report.trainable_total
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toymodel, "MAX_TOY_SCALARS", total)
        check_toy_size(cfg)
        ToyModel(cfg)
        patch.setattr(toymodel, "MAX_TOY_SCALARS", total - 1)
        with pytest.raises(InvalidConfig, match="parameters"):
            ToyModel(cfg)


@pytest.mark.parametrize("fields, name", [
    ({"steps": 0}, "steps"), ({"steps": 2.0}, "steps"), ({"learning_rate": 0.0}, "learning_rate"),
    ({"learning_rate": True}, "learning_rate"), ({"optimizer": "adamw"}, "optimizer"),
])
def test_train_config_refuses_a_bad_setting_when_built(fields, name):
    with pytest.raises(InvalidConfig, match=f"^{name} must be"):
        TrainConfig(**fields)


def test_train_config_cannot_be_changed_after_its_check():
    cfg = TrainConfig()
    with pytest.raises(AttributeError):
        cfg.steps = 0
