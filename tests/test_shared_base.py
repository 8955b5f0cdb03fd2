"""The frozen base one seed and one set of sizes share.

``ToyModel`` takes its frozen matrices from ``toymodel._frozen_base``,
which draws them once, read-only, and keeps the last base it drew. A
build that finds its base there (warm) must give the model a build that
draws it (cold) gives, byte for byte, whatever was built in between.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa.adapters import AdapterSet
from adapterqa.toymodel import (
    ToyConfig,
    ToyModel,
    TrainConfig,
    _frozen_base,
    make_copy_task,
    train_adapters,
)


@st.composite
def toy_configs(draw) -> ToyConfig:
    """A small toy of any seed, sizes, precision and adapter set (None is
    adapters on every layer)."""
    n_heads = draw(st.sampled_from([1, 2]))
    n_enc, n_dec = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    adapter_set = draw(st.none() | st.builds(
        AdapterSet,
        st.frozensets(st.integers(0, n_enc - 1)),
        st.frozensets(st.integers(n_enc, n_enc + n_dec - 1))))
    return ToyConfig(d_model=n_heads * draw(st.sampled_from([2, 4, 8])),
                     bottleneck=draw(st.integers(1, 4)), n_encoder_layers=n_enc,
                     n_decoder_layers=n_dec, n_heads=n_heads, vocab_size=draw(st.integers(3, 24)),
                     max_len=draw(st.integers(4, 9)), seed=draw(st.integers(0, 2**16)),
                     precision=draw(st.sampled_from(["double", "single"])),
                     adapter_set=adapter_set)


def frozen(model: ToyModel) -> list[np.ndarray]:
    return [p.value for p in model.parameters() if not p.trainable]


def drawn(model: ToyModel) -> list[np.ndarray]:
    """The frozen matrices drawn from the seed: every frozen tensor but the
    biases and the norms' gamma and beta."""
    return [model.tok_emb.value, model.pos_emb.value,
            *(p.value for p in model.parameters() if p.name.endswith(".w") and not p.trainable)]


def fingerprint(cfg: ToyConfig) -> tuple:
    """Every frozen tensor's name, dtype, shape and bytes, ``theta`` as
    built, and the log of 3 Adam steps on a copy batch."""
    model = ToyModel(cfg)
    tensors = [(p.name, p.value.dtype.str, p.value.shape, p.value.tobytes())
               for p in model.parameters() if not p.trainable]
    theta = model.theta.tobytes()
    source, target = make_copy_task(3, 4, cfg.vocab_size, seed=1)
    log = train_adapters(model, source, target, TrainConfig(steps=3))
    return tensors, theta, log.to_json_dict()


@settings(deadline=None, max_examples=30)
@given(toy_configs(), toy_configs(), st.booleans())
def test_a_warm_build_equals_a_cold_build_byte_for_byte(cfg, other, same_base):
    """A cold build, then a build of another config (one of the same base
    when ``same_base`` is set), then two builds of ``cfg``, the last one
    warm: all three of ``cfg`` give the same bytes."""
    if same_base:
        other = replace(cfg, bottleneck=other.bottleneck, n_heads=1,
                        adapter_set=AdapterSet.empty())
    _frozen_base.cache_clear()
    cold = fingerprint(cfg)
    ToyModel(other)
    after_other = fingerprint(cfg)
    hits = _frozen_base.cache_info().hits
    warm = fingerprint(cfg)
    assert _frozen_base.cache_info().hits == hits + 1
    assert after_other == cold
    assert warm == cold


def test_two_live_models_of_one_seed_hold_one_read_only_base():
    """Models of one seed and sizes share every drawn matrix, whatever
    their adapters, bottleneck and heads; each holds biases and norms of
    its own. A drawn matrix refuses an in-place write."""
    cfg = ToyConfig(seed=4)
    one = ToyModel(cfg)
    two = ToyModel(replace(cfg, bottleneck=3, n_heads=4, adapter_set=AdapterSet.of([1], [])))
    assert len(drawn(one)) == 2 + 6 * cfg.n_encoder_layers + 10 * cfg.n_decoder_layers + 1
    assert all(a is b for a, b in zip(drawn(one), drawn(two), strict=True))
    shared = {id(a) for a in drawn(one)}
    for a, b in zip(frozen(one), frozen(two), strict=True):
        if id(a) not in shared:
            assert a is not b and a.flags.writeable
    for w in drawn(one):
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[...] = 0.0
        with pytest.raises(ValueError):
            w += 1.0
    assert ToyModel(replace(cfg, seed=5)).tok_emb.value is not one.tok_emb.value


def test_the_cache_holds_at_most_one_base():
    """Once its last model is gone, a base lives on in the cache only until
    a toy of another seed or size is built."""
    _frozen_base.cache_clear()
    model = ToyModel(ToyConfig(seed=4))
    base = [weakref.ref(w) for w in drawn(model)]
    del model
    gc.collect()
    assert all(ref() is not None for ref in base)
    survivor = ToyModel(ToyConfig(seed=5))
    gc.collect()
    assert all(ref() is None for ref in base)
    assert _frozen_base.cache_info().currsize == 1
    assert survivor.tok_emb.value is ToyModel(ToyConfig(seed=5)).tok_emb.value
