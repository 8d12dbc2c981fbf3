"""Minimal reverse-mode differentiation over dense numpy arrays.

Holds the operations the model and its losses are built from, each under
one name: add, mul (hadamard), concat, relu, tsum, l2_normalize and
log_softmax; the one linear layer every parameterised block is built from
(``init_linear``, ``linear``, x (..., d_in) times one (d_in, d_out)
matrix); and the fused one-node ``graph_conv`` and ``nt_xent``, the one
contrastive loss. ``orderhead.order_head_forward`` builds the order head
and its cross-entropy as one more fused node, from ``_weight_grad``,
``_unbroadcast`` and ``_accumulate``. Every op accepts leading batch
axes, so a whole minibatch of small graphs runs as stacked arrays on one
tape. The tape is rebuilt on every forward pass (define-by-run), so its
creation order is topological and there is no hidden state between steps.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an operation."""


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Tensors have no operators: each function below records its backward
    rule on the implicit tape (parent links), and ``backward(loss)`` on a
    scalar loss fills ``grad`` on every reachable tensor that requires it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_stamp")
    _creation = itertools.count()  # stamps every tensor in creation order

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        # Constants (masks, scalars, propagation matrices) stay off the tape.
        self._parents = tuple(p for p in _parents if p.requires_grad)
        self.requires_grad = bool(requires_grad) or bool(self._parents)
        self._backward = _backward if self.requires_grad else None
        self._stamp = next(Tensor._creation)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(tensor, grad):
    """Add ``grad``, of ``tensor``'s shape, to ``tensor.grad``. The first
    gradient is kept as handed over and later ones are added out of place,
    so operands may share one array: no backward rule writes in place into
    a gradient array it received or handed out."""
    if not tensor.requires_grad:
        return
    tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(loss):
    """Fill ``grad`` on every leaf tensor the scalar ``loss`` depends on.

    Rules run newest node first: a node is created after its parents, so
    it has its whole gradient when its rule runs. An interior node drops
    its gradient once passed on, so the tape never holds a second copy.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    nodes, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    order = sorted(nodes.values(), key=lambda node: node._stamp, reverse=True)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in order:
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def grad(loss, leaves, out=None):
    """Gradient of ``loss`` for each leaf, zeros for leaves off the loss path,
    written in place into ``out``, one array per leaf (such as views into one
    flat buffer), or into fresh arrays when it is None; returns ``out``."""
    if out is None:
        out = [np.empty_like(leaf.data) for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    for leaf, dest in zip(leaves, out):
        dest[...] = 0.0 if leaf.grad is None else leaf.grad
    return out


# -- primitive operations ----------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=rule)


def mul(a, b):
    """Hadamard (elementwise) product, broadcasting as numpy does."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"hadamard: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=rule)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return Tensor(out_data, _parents=tuple(tensors), _backward=rule)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0  # subgradient at 0 is taken as 0

    def rule(g):
        _accumulate(a, g * mask)

    return Tensor(a.data * mask, _parents=(a,), _backward=rule)


def tsum(a, axis=None):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def rule(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return Tensor(out_data, _parents=(a,), _backward=rule)


# Fan-in init scaled up so the lr=0.001 schedule makes progress at desk
# scale; calibrated on the synthetic benchmark.
INIT_GAIN = 4.0


def init_linear(rng, d_in, d_out, gain=INIT_GAIN, bias=True):
    """Weight (d_in, d_out) and, when ``bias``, bias (d_out,), both drawn
    uniform in +-gain / sqrt(d_in) in that order; without a bias the
    weight alone is returned."""
    bound = gain / np.sqrt(d_in)
    weight = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    if not bias:
        return weight
    return weight, Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True)


def _weight_grad(x, g):
    """Gradient of x @ W for one shared (d_in, d_out) matrix W, given the
    gradient ``g`` of the product: one product over every row of ``x``."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def linear(x, weight, bias=None):
    """x @ weight (+ bias) as one tape node, for ``x`` (..., d_in) with any
    number of leading axes, zero included, and one (d_in, d_out) ``weight``
    matrix; any other weight raises ShapeError."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if weight.data.ndim != 2 or x.data.shape[-1:] != weight.data.shape[:1]:
        raise ShapeError(f"linear: shapes {x.data.shape} @ {weight.data.shape} do not conform")
    out_data = np.matmul(x.data, weight.data)
    if bias is not None:
        out_data = out_data + bias.data

    def rule(g):
        if x.requires_grad:
            _accumulate(x, np.matmul(g, weight.data.T))
        if weight.requires_grad:
            _accumulate(weight, _weight_grad(x.data, g))
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out_data, _parents=parents, _backward=rule)


def graph_conv(s, x, weight):
    """relu(s @ x @ weight) as one tape node, for node features ``x``
    (..., N, F), constant propagation matrices ``s`` (..., N, N) and one
    (F, F_out) ``weight`` matrix."""
    x = _as_tensor(x)
    sx = np.matmul(s, x.data)
    out_data = np.matmul(sx, weight.data)
    mask = out_data > 0  # subgradient at 0 is taken as 0

    def rule(g):
        g = g * mask
        if weight.requires_grad:
            _accumulate(weight, _weight_grad(sx, g))
        if x.requires_grad:
            g_sx = np.matmul(g, weight.data.T)
            _accumulate(x, _unbroadcast(np.matmul(np.swapaxes(s, -1, -2), g_sx), x.data.shape))

    return Tensor(out_data * mask, _parents=(x, weight), _backward=rule)


def l2_normalize(a, axis=-1, eps=1e-12):
    """x / sqrt(sum(x^2) + eps) along ``axis``; eps guards the zero vector."""
    a = _as_tensor(a)
    ss = (a.data ** 2).sum(axis=axis, keepdims=True)
    norm = np.sqrt(ss + eps)
    out_data = a.data / norm

    def rule(g):
        gx = (g * a.data).sum(axis=axis, keepdims=True)
        _accumulate(a, g / norm - a.data * gx / norm ** 3)

    return Tensor(out_data, _parents=(a,), _backward=rule)


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    sm = np.exp(out_data)

    def rule(g):
        gs = g.sum(axis=axis, keepdims=True)
        _accumulate(a, g - sm * gs)

    return Tensor(out_data, _parents=(a,), _backward=rule)


NEG_MASK = -1e30  # additive mask removing a term from a logsumexp exactly


@functools.lru_cache(maxsize=None)
def _nt_xent_constants(two_n):
    """(diagonal mask, one-hot positive at column i + N mod 2N) of row i."""
    mask = np.eye(two_n) * NEG_MASK
    positive = np.roll(np.eye(two_n), two_n // 2, axis=-1)
    mask.flags.writeable = positive.flags.writeable = False
    return mask, positive


def _nt_xent_rows(p, tau):
    """Each anchor i's NT-Xent term over the stacks ``p`` (..., 2N, D) of unit
    rows, -log softmax of the positive (row i + N mod 2N) among p_i . p_k / tau
    for every k != i in its stack; with the exponentials, their row sums and
    the one-hot positives that the backward rule reuses."""
    if p.ndim < 2 or p.shape[-2] % 2:
        raise ShapeError(f"nt_xent: need (..., 2N, D) rows, got shape {p.shape}")
    mask, positive = _nt_xent_constants(p.shape[-2])
    sim = np.matmul(p, np.swapaxes(p, -1, -2)) * (1.0 / tau)
    logits = sim + mask
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1)
    return np.log(total) + top[..., 0] - (sim * positive).sum(axis=-1), e, total, positive


def nt_xent(p, tau):
    """NT-Xent loss of each stack ``p`` (..., 2N, D) of unit rows, as one
    tape node: the mean of its 2N anchors' terms (``_nt_xent_rows``)."""
    p = _as_tensor(p)
    rows, e, total, positive = _nt_xent_rows(p.data, tau)

    def rule(g):
        # d loss / d sim = (masked softmax - one-hot positive) / 2N on every
        # row, and sim = p p^T / tau sends dS to dP = (dS + dS^T) p.
        ds = (e / total[..., None] - positive) * (g[..., None, None] / (rows.shape[-1] * tau))
        _accumulate(p, np.matmul(ds + np.swapaxes(ds, -1, -2), p.data))

    return Tensor(rows.mean(axis=-1), _parents=(p,), _backward=rule)


def finite_diff_check(f, inputs, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the tensors in ``inputs`` to a scalar Tensor; every input
    with requires_grad is perturbed coordinate-wise. The error at each
    coordinate is |a - n| / max(1, |a|, |n|).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = f(*inputs)
    leaves = [t for t in inputs if t.requires_grad]
    analytic = grad(out, leaves)
    max_err = 0.0
    for tensor, a_grad in zip(leaves, analytic):
        flat = tensor.data.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(f(*inputs).data)
            flat[i] = orig - epsilon
            f_minus = float(f(*inputs).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * epsilon)
            if not (np.isfinite(numeric) and np.isfinite(a_flat[i])):
                raise FloatingPointError(
                    f"non-finite gradient at coordinate {i}: "
                    f"analytic={a_flat[i]}, numeric={numeric}"
                )
            err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
            max_err = max(max_err, err)
    return max_err
