"""Differentiation engine: op semantics, gradients, and error handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tcgl.diffcore as dc


def test_relu_forward():
    out = dc.relu(dc.Tensor([-1.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 2.0])


def test_add_broadcast_and_backward():
    a = dc.Tensor(np.ones((3, 4)), requires_grad=True)
    b = dc.Tensor(np.ones(4), requires_grad=True)
    loss = dc.tsum(dc.add(a, b))
    dc.backward(loss)
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_linear_refuses_a_weight_that_is_not_one_conforming_matrix():
    x = dc.Tensor(np.ones((2, 3, 2)))
    for weight in (np.ones((2, 3, 2)), np.ones(2), np.ones((4, 2))):
        with pytest.raises(dc.ShapeError):
            dc.linear(x, dc.Tensor(weight))
    with pytest.raises(dc.ShapeError):
        dc.linear(dc.Tensor(2.0), dc.Tensor(np.ones((1, 2))))


def test_backward_requires_scalar():
    a = dc.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(dc.ShapeError):
        dc.backward(dc.add(a, 1.0))


def test_grad_returns_zeros_for_disconnected_leaf():
    a = dc.Tensor(2.0, requires_grad=True)
    b = dc.Tensor(3.0, requires_grad=True)
    grads = dc.grad(dc.mul(a, a), [a, b])
    assert grads[0] == pytest.approx(4.0)
    assert np.array_equal(grads[1], np.zeros(()))


def test_grad_into_out_overwrites_and_zeroes_unreached_leaves():
    # out holds stale values, as a reused flat buffer does after a step
    a = dc.Tensor(np.arange(3.0), requires_grad=True)
    b = dc.Tensor(np.ones((2, 2)), requires_grad=True)
    buffer = np.full(7, 9.0)
    out = [buffer[:3], buffer[3:].reshape(2, 2)]
    assert dc.grad(dc.tsum(dc.mul(a, a)), [a, b], out) is out
    assert np.array_equal(buffer, [0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0])


def test_grad_without_out_returns_fresh_float64_arrays():
    a = dc.Tensor(np.arange(3.0), requires_grad=True)
    b = dc.Tensor(np.ones((2, 2)), requires_grad=True)
    grads = dc.grad(dc.tsum(dc.mul(a, a)), [a, b])
    assert [g.dtype for g in grads] == [np.float64, np.float64]
    assert np.array_equal(grads[0], [0.0, 2.0, 4.0])
    assert np.array_equal(grads[1], np.zeros((2, 2)))
    assert not np.shares_memory(grads[0], a.grad) and not np.shares_memory(grads[0], a.data)
    assert not np.shares_memory(grads[1], b.data)


def test_grad_accumulates_through_shared_subexpression():
    a = dc.Tensor(3.0, requires_grad=True)
    y = dc.add(dc.mul(a, a), a)
    dc.backward(y)
    assert a.grad == pytest.approx(7.0)


def test_first_gradient_is_an_own_copy():
    # add passes one array to both operands; x's first gradient must not
    # alias y's, or the second += into x would reach y.
    x = dc.Tensor(np.ones(3), requires_grad=True)
    y = dc.Tensor(np.ones(3), requires_grad=True)
    dc.backward(dc.tsum(dc.add(dc.add(x, y), x)))
    assert np.array_equal(x.grad, np.full(3, 2.0))
    assert np.array_equal(y.grad, np.ones(3))
    assert dc.Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float64


def test_constant_operand_gets_no_gradient():
    x = dc.Tensor(np.arange(3.0), requires_grad=True)
    mask = dc.Tensor(np.array([1.0, 0.0, 1.0]))
    dc.backward(dc.tsum(dc.add(dc.mul(x, mask), mask)))
    assert mask.grad is None
    assert np.array_equal(x.grad, mask.data)


def test_constants_stay_off_the_tape():
    x = dc.Tensor(np.arange(3.0), requires_grad=True)
    mask = dc.Tensor(np.array([1.0, 0.0, 1.0]))
    out = dc.add(dc.mul(x, mask), 2.0)
    assert len(out._parents) == 1 and out._parents[0]._parents == (x,)
    const = dc.mul(mask, mask)
    assert not const.requires_grad and const._parents == ()


def test_init_linear_draws_weight_then_bias_within_the_fan_in_bound():
    w, b = dc.init_linear(np.random.default_rng(5), 16, 3, gain=2.0)
    want = np.random.default_rng(5).uniform(-0.5, 0.5, size=16 * 3 + 3)
    assert np.array_equal(w.data.ravel(), want[:48]) and np.array_equal(b.data, want[48:])
    assert w.requires_grad and b.requires_grad
    w_only = dc.init_linear(np.random.default_rng(5), 16, 3, bias=False)
    bound = dc.INIT_GAIN / 4.0
    want = np.random.default_rng(5).uniform(-bound, bound, size=(16, 3))
    assert isinstance(w_only, dc.Tensor) and np.array_equal(w_only.data, want)
    x = np.random.default_rng(6).standard_normal((2, 4, 16))
    assert np.array_equal(dc.linear(x, w, b).data, x @ w.data + b.data)
    assert np.array_equal(dc.linear(x, w).data, x @ w.data)


def test_concat_and_stack_gradients():
    a = dc.Tensor(np.arange(3.0), requires_grad=True)
    b = dc.Tensor(np.arange(3.0, 6.0), requires_grad=True)
    dc.backward(dc.tsum(dc.mul(dc.concat([a, b]), 2.0)))
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(b.grad, np.full(3, 2.0))
    # the view stack of graph_loss: batched (N, D) views joined along axis -2
    u = dc.Tensor(np.ones((2, 3, 4)), requires_grad=True)
    v = dc.Tensor(np.ones((2, 3, 4)), requires_grad=True)
    probe = np.arange(2 * 6 * 4.0).reshape(2, 6, 4)
    dc.backward(dc.tsum(dc.mul(dc.concat([u, v], axis=-2), probe)))
    assert np.array_equal(u.grad, probe[:, :3]) and np.array_equal(v.grad, probe[:, 3:])


def test_l2_normalize_unit_norm():
    v = dc.Tensor(np.array([3.0, 4.0]))
    out = dc.l2_normalize(v)
    assert np.linalg.norm(out.data) == pytest.approx(1.0)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_rows_sum_to_one():
    x = dc.Tensor(np.random.default_rng(1).standard_normal((4, 5)))
    assert np.allclose(np.exp(dc.log_softmax(x).data).sum(axis=-1), 1.0)


def test_log_softmax_matches_log_of_softmax():
    x = np.random.default_rng(2).standard_normal(6)
    assert np.allclose(dc.log_softmax(dc.Tensor(x)).data, np.log(_softmax(x)))


_X = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])
_Y = np.array([[1.0, 2.0, 0.5], [-0.5, 1.0, 3.0]])


# Each op by name: the diffcore function, its inputs, and its numpy reference.
_NAMED_OPS = {
    "matmul": (dc.linear, (_X, _Y.T), lambda x, y: x @ y),
    "add": (dc.add, (_X, _Y), np.add),
    "hadamard": (dc.mul, (_X, _Y), np.multiply),
    "concat": (lambda a, b: dc.concat([a, b]), (_X, _Y), lambda x, y: np.concatenate([x, y])),
    "relu": (dc.relu, (_X,), lambda x: np.maximum(x, 0.0)),
    "l2_normalize": (dc.l2_normalize, (_X,),
                     lambda x: x / np.linalg.norm(x, axis=-1, keepdims=True)),
    "log_softmax": (dc.log_softmax, (_X,), lambda x: np.log(_softmax(x))),
    "sum": (dc.tsum, (_X,), np.sum),
}


@pytest.mark.parametrize("name", sorted(_NAMED_OPS))
def test_forward_dispatch_names(name):
    fn, inputs, reference = _NAMED_OPS[name]
    out = fn(*(dc.Tensor(x) for x in inputs))
    assert isinstance(out, dc.Tensor)
    assert np.allclose(out.data, reference(*inputs))


def _fd_ok(f, inputs, tol=1e-4):
    return dc.finite_diff_check(f, inputs) < tol


def test_finite_diff_every_op():
    rng = np.random.default_rng(7)
    x = dc.Tensor(rng.standard_normal((4, 6)) + 0.1, requires_grad=True)
    m = dc.Tensor(rng.standard_normal((6, 3)))
    checks = [
        (lambda t: dc.tsum(dc.relu(t)), [x]),
        (lambda t: dc.tsum(dc.linear(t, m)), [x]),
        (lambda t: dc.tsum(dc.l2_normalize(t)), [x]),
        (lambda t: dc.tsum(dc.log_softmax(t)), [x]),
    ]
    for f, inputs in checks:
        assert _fd_ok(f, inputs)


def test_finite_diff_reports_nonfinite():
    bad = dc.Tensor(np.array([1.0, np.inf]), requires_grad=True)
    with pytest.raises(FloatingPointError):
        dc.finite_diff_check(lambda t: dc.tsum(dc.mul(t, 2.0)), [bad])


# -- property tests: generalized ops against finite differences ----------

_settings = settings(max_examples=100, deadline=None)
_dim = st.integers(1, 3)


def _values(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-2, 2, allow_nan=False))


@st.composite
def _linear_operands(draw):
    """x (..., k) with 0-3 leading axes and one (k, m) weight."""
    k, m = draw(_dim), draw(_dim)
    batch = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3))
    return draw(_values(batch + (k,))), draw(_values((k, m)))


@_settings
@given(_linear_operands())
def test_linear_property_matches_numpy_and_finite_differences(operands):
    a = dc.Tensor(operands[0], requires_grad=True)
    b = dc.Tensor(operands[1], requires_grad=True)
    assert np.allclose(dc.linear(a, b).data, np.matmul(a.data, b.data))
    probe = np.random.default_rng(0).standard_normal(np.matmul(a.data, b.data).shape)
    err = dc.finite_diff_check(lambda x, y: dc.tsum(dc.mul(dc.linear(x, y), probe)), [a, b])
    assert err < 1e-6


@_settings
@given(st.data())
def test_linear_property_equals_matmul_plus_add_bit_for_bit(data):
    k, m = data.draw(_dim), data.draw(_dim)
    batch = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3))
    x_data, w_data = data.draw(_values(batch + (k,))), data.draw(_values((k, m)))
    b_data = data.draw(_values((m,)))
    probe = np.random.default_rng(5).standard_normal(batch + (m,))

    def run(fused):
        x, w, b = (dc.Tensor(v, requires_grad=True) for v in (x_data, w_data, b_data))
        out = dc.linear(x, w, b) if fused else dc.add(dc.linear(x, w), b)
        dc.backward(dc.tsum(dc.mul(out, probe)))
        return out.data, x.grad, w.grad, b.grad

    for fused, split in zip(run(True), run(False)):
        assert np.array_equal(fused, split)


def test_linear_and_graph_conv_are_one_tape_node():
    x = dc.Tensor(np.ones((2, 3, 4)), requires_grad=True)
    w, b = dc.init_linear(np.random.default_rng(0), 4, 5)
    out = dc.linear(x, w, b)
    assert out._parents == (x, w, b)
    conv = dc.graph_conv(np.eye(3), out, dc.Tensor(np.ones((5, 2)), requires_grad=True))
    assert conv._parents[0] is out and len(conv._parents) == 2


def test_backward_through_a_diamond_matches_finite_differences():
    # y feeds two branches that meet again, and y itself is reused after
    # them: every rule must run only once all of its node's consumers ran.
    rng = np.random.default_rng(8)
    x = dc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = dc.Tensor(rng.standard_normal((4, 4)) * 0.5, requires_grad=True)

    def f(x, w):
        y = dc.linear(x, w)
        left, right = dc.relu(y), dc.log_softmax(dc.mul(y, 0.1))
        joined = dc.add(dc.mul(left, right), y)
        return dc.add(dc.tsum(dc.mul(joined, y)), dc.tsum(dc.mul(right, right)))

    assert dc.finite_diff_check(f, [x, w]) < 1e-7
