import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adapterqa.adapters import (
    AdapterSet,
    ModelDims,
    REFERENCE_DIMS,
    count_adapter_params,
)
from adapterqa.errors import InputError
from adapterqa.toymodel import AdapterModule, _bottleneck


def test_zero_up_projection_is_exact_identity():
    rng = np.random.default_rng(0)
    adapter = AdapterModule("a", 6, 3, rng)
    x = rng.standard_normal(6)
    y = adapter.forward(x)
    assert np.array_equal(x, y)


def test_hand_computed_two_by_one():
    # pre = 2*0.5 + 0.5*(-1) + 0.25 = 0.75; relu passes it through;
    # up = 0.75*[2, -3] + [0.1, 0.2] = [1.6, -2.05]; y = x + up.
    weights = (np.array([[0.5], [-1.0]]), np.array([0.25]),
               np.array([[2.0, -3.0]]), np.array([0.1, 0.2]))
    y, hidden = _bottleneck(np.array([2.0, 0.5]), *weights)
    assert np.allclose(y, [3.6, -1.55])
    assert np.allclose(hidden, [0.75])
    # dead rectifier: pre = 0.5 - 2 + 0.25 < 0, so only the bias remains
    y, hidden = _bottleneck(np.array([1.0, 2.0]), *weights)
    assert np.allclose(y, [1.1, 2.2])
    assert np.array_equal(hidden, [0.0])


def test_matches_straight_line_reimplementation():
    rng = np.random.default_rng(7)
    d, b = 8, 4
    w_down, b_down = rng.standard_normal((d, b)), rng.standard_normal(b)
    w_up, b_up = rng.standard_normal((b, d)), rng.standard_normal(d)
    for _ in range(20):
        x = rng.standard_normal(d)
        hidden = np.array([max(0.0, sum(x[i] * w_down[i, j] for i in range(d)) + b_down[j])
                           for j in range(b)])
        expected = np.array([x[i] + sum(hidden[j] * w_up[j, i] for j in range(b)) + b_up[i]
                             for i in range(d)])
        assert np.allclose(_bottleneck(x, w_down, b_down, w_up, b_up)[0], expected)


def test_batched_input_supported():
    rng = np.random.default_rng(1)
    adapter = AdapterModule("a", 4, 2, rng)
    x = rng.standard_normal((3, 5, 4))
    assert adapter.forward(x).shape == (3, 5, 4)


def test_stacked_copies_equal_one_adapter_each():
    rng = np.random.default_rng(4)
    base = [p.value for p in AdapterModule("a", 4, 2, rng).parameters()]
    x = rng.standard_normal((3, 5, 4))
    for which, value in enumerate(base):
        copies = value + rng.standard_normal((6, *value.shape))
        stacked = copies.reshape(6, *(1,) * (x.ndim - value.ndim), *value.shape)
        out, _ = _bottleneck(x, *base[:which], stacked, *base[which + 1:])
        assert out.shape == (6, 3, 5, 4)
        for copy, one in zip(out, copies):
            solo, _ = _bottleneck(x, *base[:which], one, *base[which + 1:])
            assert np.array_equal(copy, solo)


def test_params_per_adapter_formula():
    assert REFERENCE_DIMS.params_per_adapter == 2 * 1024 * 64 + 64 + 1024 == 132_160
    assert REFERENCE_DIMS.params_per_layer == 264_320
    adapter = AdapterModule("a", 1024, 64, np.random.default_rng(3))
    assert sum(p.value.size for p in adapter.parameters()) == REFERENCE_DIMS.params_per_adapter


FULL_SCALE_ROWS = [
    ((), (), 6_343_680, 1.56),
    (range(0, 3), range(12, 15), 4_757_760, 1.17),
    (range(0, 5), range(12, 17), 3_700_480, 0.91),
    (range(0, 7), range(12, 19), 2_643_200, 0.65),
    (range(0, 9), range(12, 21), 1_585_920, 0.39),
    (range(0, 11), range(12, 23), 528_640, 0.13),
    (range(0, 12), range(12, 23), 264_320, 0.07),
]


@pytest.mark.parametrize("removed_enc,removed_dec,count,percent", FULL_SCALE_ROWS)
def test_full_scale_parameter_rows(removed_enc, removed_dec, count, percent):
    active = AdapterSet(
        encoder_layers=frozenset(range(12)) - set(removed_enc),
        decoder_layers=frozenset(range(12, 24)) - set(removed_dec),
    )
    got_count, got_percent = count_adapter_params(REFERENCE_DIMS, active)
    assert got_count == count
    assert got_percent == percent


def test_zero_active_layers():
    assert count_adapter_params(REFERENCE_DIMS, AdapterSet.empty()) == (0, 0.0)


def test_adapter_set_range_validation():
    with pytest.raises(InputError):
        count_adapter_params(REFERENCE_DIMS, AdapterSet.of(encoder_layers=[12]))
    with pytest.raises(InputError):
        count_adapter_params(REFERENCE_DIMS, AdapterSet.of(decoder_layers=[0]))


def test_model_dims_validation():
    with pytest.raises(InputError):
        ModelDims(d_model=0, bottleneck=1, n_encoder_layers=1, n_decoder_layers=1)
    with pytest.raises(InputError):
        ModelDims.from_json_dict({"d_model": 8, "bogus": 1})


layer_subsets = st.tuples(
    st.sets(st.integers(0, 11)),
    st.sets(st.integers(12, 23)),
)


@given(layer_subsets, layer_subsets)
def test_count_is_additive_over_disjoint_sets(first, second):
    a = AdapterSet.of(first[0] - second[0], first[1] - second[1])
    b = AdapterSet.of(second[0] - first[0], second[1] - first[1])
    union = AdapterSet.of(a.encoder_layers | b.encoder_layers,
                          a.decoder_layers | b.decoder_layers)
    count_a, _ = count_adapter_params(REFERENCE_DIMS, a)
    count_b, _ = count_adapter_params(REFERENCE_DIMS, b)
    count_union, _ = count_adapter_params(REFERENCE_DIMS, union)
    assert count_union == count_a + count_b
