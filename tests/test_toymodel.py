import math

import numpy as np
import pytest

from adapterqa import toymodel
from adapterqa.adapters import AdapterSet, count_adapter_params
from adapterqa.errors import InputError
from adapterqa.toymodel import (
    LOSS_GROWTH_LIMIT,
    Divergence,
    InvalidConfig,
    ToyConfig,
    TrainConfig,
    build_toy_model,
    freeze_report,
    grad_check,
    make_copy_task,
    train_adapters,
)
from model_oracles import grad_check_per_scalar

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
    model.randomize_adapters(seed=7, scale=0.1)
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
    tensor_index = iter(range(len(names)))

    def one_nan_in_tensors_1_and_5(*args):
        errors = relative_errors(*args)
        if next(tensor_index) in (1, 5):
            errors[-1] = np.nan
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
    assert all(p.grad is None for p in fresh.parameters())
    train_adapters(fresh, source, target, TrainConfig(steps=2))
    assert all(p.grad is None for p in fresh.parameters() if not p.trainable)


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
    with pytest.raises(InvalidConfig):
        build_toy_model(ToyConfig(d_model=10, n_heads=3))
    with pytest.raises(InvalidConfig):
        build_toy_model(ToyConfig(vocab_size=2))
    with pytest.raises(InvalidConfig):
        build_toy_model(ToyConfig(precision="half"))
    with pytest.raises(InvalidConfig):
        build_toy_model(ToyConfig(d_model=0))


def test_bad_ids_rejected():
    model = build_toy_model(GRADCHECK_CONFIG)
    with pytest.raises(InputError):
        model.forward(np.array([[1, 99]]), np.array([[1, 2]]))
    with pytest.raises(InputError):
        model.forward(np.zeros((1, 100), dtype=int), np.zeros((1, 4), dtype=int))
    with pytest.raises(InputError):
        model.forward(np.zeros((2, 4), dtype=int), np.zeros((1, 4), dtype=int))


def test_single_precision_runs():
    cfg = ToyConfig(**{**GRADCHECK_CONFIG.__dict__, "precision": "single"})
    model = build_toy_model(cfg)
    source, target = sample_batch(cfg)
    loss, logits = model.forward(source, target)
    assert logits.dtype == np.float32
    assert np.isfinite(loss)
    with pytest.raises(InvalidConfig):
        grad_check(model, source, target)
