"""Order-prediction head: fusion, excitation gating, and classification."""

import numpy as np
import pytest

import tcgl.diffcore as dc
from tcgl import orderhead


N, C = 3, 16


@pytest.fixture()
def params(rng):
    return orderhead.init_order_head(rng, N, C)


def _features(rng, *batch, n=N, c=C):
    return dc.Tensor(rng.standard_normal((*batch, n, c)), requires_grad=True)


def _oracle_log_probs(x, p):
    """The whole head in numpy: fuse -> excite -> relu gate -> hidden -> log-softmax."""
    *batch, n, c = x.shape
    z = x.reshape(*batch, n * c) @ p.w_fuse.data + p.b_fuse.data
    e = z @ p.w_excite.data + p.b_excite.data
    gated = np.maximum(e, 0.0)[..., None, :] * x  # one gate for every snippet
    h = np.maximum(gated.reshape(*batch, n * c) @ p.w_hidden.data + p.b_hidden.data, 0.0)
    logits = h @ p.w_out.data + p.b_out.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
        want = _oracle_log_probs(x.data, params)
        assert pred.log_probs.shape == (*batch, 6)
        assert np.max(np.abs(pred.log_probs.data - want)) < 1e-12
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
        -float(pred.log_probs.data[2]), rel=1e-12)
    assert float(loss.data) > 0.0


def test_order_loss_rejects_bad_label(params, rng):
    with pytest.raises(ValueError):
        orderhead.order_head_forward(_features(rng), 6, params)


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
