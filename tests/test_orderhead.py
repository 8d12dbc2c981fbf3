"""Order-prediction head: shuffle, fusion, excitation gating, and classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tcgl.diffcore as dc
from tcgl import orderhead, sampler


N, C = 3, 16


@pytest.fixture()
def params(rng):
    return orderhead.init_order_head(rng, N, C)


def _features(rng, *batch, n=N, c=C):
    return dc.Tensor(rng.standard_normal((*batch, n, c)), requires_grad=True)


def _oracle_log_probs(x, label, p):
    """The whole head in numpy: shuffle by the label's permutation -> fuse
    -> excite -> relu gate -> hidden -> log-softmax."""
    *batch, n, c = x.shape
    perms = sampler.permutation_table(n)[label]
    x = np.take_along_axis(x, perms[..., None], axis=-2)
    z = x.reshape(*batch, n * c) @ p.w_fuse.data + p.b_fuse.data
    e = z @ p.w_excite.data + p.b_excite.data
    gated = np.maximum(e, 0.0)[..., None, :] * x  # one gate for every snippet
    h = np.maximum(gated.reshape(*batch, n * c) @ p.w_hidden.data + p.b_hidden.data, 0.0)
    logits = h @ p.w_out.data + p.b_out.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _reshape(a, shape):
    def rule(g):
        dc._accumulate(a, g.reshape(a.data.shape))

    return dc.Tensor(a.data.reshape(shape), _parents=(a,), _backward=rule)


def _gather(a, idx):
    def rule(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)  # a repeated index collects every gradient it received
        dc._accumulate(a, full)

    return dc.Tensor(a.data[idx], _parents=(a,), _backward=rule)


def _tape_head(features, label, p):
    """The head as composed tape ops, shuffle and loss included: the
    reference the fused node must equal bit for bit. Returns (log-probs, loss)."""
    *batch, n, c = features.data.shape
    rows = np.indices(np.shape(label))
    x = _gather(features, (*rows[..., None], sampler.permutation_table(n)[label]))
    z = dc.linear(_reshape(x, (*batch, n * c)), p.w_fuse, p.b_fuse)
    gate = _reshape(dc.relu(dc.linear(z, p.w_excite, p.b_excite)), (*batch, 1, c))
    refined = _reshape(dc.mul(gate, x), (*batch, n * c))
    h = dc.relu(dc.linear(refined, p.w_hidden, p.b_hidden))
    log_probs = dc.log_softmax(dc.linear(h, p.w_out, p.b_out))
    return log_probs, dc.mul(_gather(log_probs, (*rows, label)), -1.0)


def test_fused_dim_is_half_feature_dim():
    assert orderhead.fused_dim(3, 16) == 8
    assert orderhead.fused_dim(4, 32) == 16


def test_fused_dim_requires_even_feature_dim():
    with pytest.raises(ValueError):
        orderhead.fused_dim(3, 15)


def test_head_output_is_distribution(params, rng):
    pred, _ = orderhead.order_head_forward(_features(rng), 0, params)
    assert pred.probabilities.shape == (6,)
    assert float(pred.probabilities.sum()) == pytest.approx(1.0)
    assert pred.predicted_id == int(np.argmax(pred.probabilities))


def test_num_classes_is_factorial(params):
    assert params.w_out.shape[1] == params.b_out.shape[0] == 6


def test_head_matches_numpy_oracle(params, rng):
    for batch, label in (((), 4), ((5,), np.array([0, 5, 2, 2, 1]))):
        x = _features(rng, *batch)
        pred, loss = orderhead.order_head_forward(x, label, params)
        want = _oracle_log_probs(x.data, label, params)
        assert pred.log_probs.shape == (*batch, 6)
        assert np.max(np.abs(pred.log_probs - want)) < 1e-12
        want_loss = -np.take_along_axis(want, np.asarray(label)[..., None], axis=-1)[..., 0]
        assert np.max(np.abs(loss.data - want_loss)) < 1e-12
        assert np.array_equal(pred.predicted_id, np.argmax(want, axis=-1))


def test_head_rejects_mismatched_features(params, rng):
    with pytest.raises(ValueError):
        orderhead.order_head_forward(_features(rng, n=N + 1), 0, params)
    with pytest.raises(ValueError):
        orderhead.order_head_forward(_features(rng, c=C // 2), 0, params)


def test_order_loss_is_negative_log_probability(params, rng):
    pred, loss = orderhead.order_head_forward(_features(rng), 2, params)
    assert float(loss.data) == pytest.approx(
        -float(pred.log_probs[2]), rel=1e-12)
    assert float(loss.data) > 0.0


def test_order_loss_rejects_bad_label(params, rng):
    with pytest.raises(ValueError):
        orderhead.order_head_forward(_features(rng), 6, params)
    with pytest.raises(ValueError):
        orderhead.order_head_forward(_features(rng), -1, params)
    with pytest.raises(ValueError):  # one label per sample
        orderhead.order_head_forward(_features(rng, 2), np.array([0, 1, 2]), params)


def test_total_loss_weighting():
    g = dc.Tensor(2.0)
    o = dc.Tensor(3.0)
    assert float(orderhead.total_loss(g, o, 1.0, 1.0).data) == pytest.approx(5.0)
    assert float(orderhead.total_loss(g, o, 0.0, 1.0).data) == pytest.approx(3.0)


def test_head_gradient_matches_finite_differences(rng):
    params = orderhead.init_order_head(rng, 2, 8)
    feats = _features(rng, 2, n=2, c=8)

    def f(x):
        _, loss = orderhead.order_head_forward(x, np.array([1, 0]), params)
        return dc.tsum(loss)

    assert dc.finite_diff_check(f, [feats]) < 1e-4


@st.composite
def _head_inputs(draw):
    """(features (..., n, c) with 0-2 leading axes, one label per sample,
    the upstream gradient of each sample's loss, the head's seed)."""
    n, c = draw(st.integers(2, 3)), draw(st.sampled_from([2, 4, 6]))
    batch = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4))
    features = draw(hnp.arrays(np.float64, batch + (n, c),
                               elements=st.floats(-3, 3, allow_nan=False)))
    label = draw(hnp.arrays(np.int64, batch, elements=st.integers(0, math.factorial(n) - 1)))
    upstream = draw(hnp.arrays(np.float64, batch, elements=st.floats(-2, 2, allow_nan=False)))
    return features, label, upstream, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(_head_inputs())
def test_fused_head_equals_the_composed_tape_bit_for_bit(inputs):
    features, label, upstream, seed = inputs
    *_, n, c = features.shape
    params = orderhead.init_order_head(np.random.default_rng(seed), n, c)
    x = dc.Tensor(features, requires_grad=True)
    leaves = [x, *vars(params).values()]

    pred, loss = orderhead.order_head_forward(x, label, params)
    got = dc.grad(dc.tsum(dc.mul(loss, upstream)), leaves)
    log_probs, want_loss = _tape_head(x, label, params)
    want = dc.grad(dc.tsum(dc.mul(want_loss, upstream)), leaves)

    assert np.array_equal(loss.data, want_loss.data)
    assert np.array_equal(pred.log_probs, log_probs.data)
    assert np.array_equal(pred.probabilities, np.exp(log_probs.data))
    assert np.array_equal(pred.predicted_id, np.argmax(np.exp(log_probs.data), axis=-1))
    for name, fused, composed in zip(["features", *vars(params)], got, want):
        assert np.array_equal(fused, composed), name
        assert np.array_equal(np.signbit(fused), np.signbit(composed)), name


def test_fused_head_is_one_tape_node_over_the_features_and_parameters(params, rng):
    x = _features(rng, 4)
    _, loss = orderhead.order_head_forward(x, np.arange(4), params)
    assert loss.shape == (4,)
    assert loss._parents == (x, *vars(params).values())
