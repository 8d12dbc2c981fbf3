"""Adaptive snippet order prediction head.

Shuffled snippet embeddings are fused through a bottleneck linear layer
into a joint representation, an excitation vector is predicted from it,
and relu(excitation) gates every snippet feature channel-wise. The gated
features feed a two-layer classifier over all n! permutations; training
minimizes the cross-entropy of the true permutation id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .tgraph import INIT_GAIN


@dataclass
class OrderHeadParams:
    w_fuse: dc.Tensor  # (n*c, c_con)
    b_fuse: dc.Tensor  # (c_con,)
    w_excite: dc.Tensor  # (c_con, c)
    b_excite: dc.Tensor  # (c,)
    w_hidden: dc.Tensor  # (n*c, hidden)
    b_hidden: dc.Tensor  # (hidden,)
    w_out: dc.Tensor  # (hidden, C)
    b_out: dc.Tensor  # (C,)

    @property
    def num_classes(self):
        return self.w_out.shape[1]


@dataclass
class OrderPrediction:
    probabilities: np.ndarray  # (..., C), non-negative, sums to 1
    predicted_id: np.ndarray   # (...,) integer ids
    log_probs: dc.Tensor  # (..., C), kept for the loss


def fused_dim(n, c):
    """Bottleneck width c_con = (sum of snippet dims) / 2n = c / 2."""
    if c % 2 != 0:
        raise ValueError(f"snippet feature dim must be even, got {c}")
    return (n * c) // (2 * n)


def init_order_head(rng, n, c):
    c_con = fused_dim(n, c)
    hidden = (n * c) // 2
    num_classes = math.factorial(n)

    def linear(d_in, d_out):
        bound = INIT_GAIN / np.sqrt(d_in)
        w = dc.Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
        b = dc.Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True)
        return w, b

    w_fuse, b_fuse = linear(n * c, c_con)
    w_excite, b_excite = linear(c_con, c)
    w_hidden, b_hidden = linear(n * c, hidden)
    w_out, b_out = linear(hidden, num_classes)
    return OrderHeadParams(w_fuse, b_fuse, w_excite, b_excite,
                           w_hidden, b_hidden, w_out, b_out)


def fuse(features, params: OrderHeadParams):
    """Joint representation of the concatenated shuffled snippet features.

    Each feature is (..., c); leading axes are batch axes.
    """
    dims = {f.data.shape for f in features}
    if len(dims) != 1:
        raise ValueError(f"snippet features must share one shape, got {sorted(dims)}")
    joint = dc.concat(features, axis=-1)
    if joint.data.shape[-1] != params.w_fuse.shape[0]:
        raise ValueError(
            f"concatenated dim {joint.data.shape[-1]} does not match fusion weight "
            f"input dim {params.w_fuse.shape[0]}"
        )
    return dc.add(dc.matmul(joint, params.w_fuse), params.b_fuse)


def excitation(z, params: OrderHeadParams):
    return dc.add(dc.matmul(z, params.w_excite), params.b_excite)


def recalibrate(e, f_k):
    """Gate one snippet feature channel-wise by relu(excitation)."""
    if e.data.shape != f_k.data.shape:
        raise ValueError(f"gate dim {e.data.shape} != feature dim {f_k.data.shape}")
    return dc.mul(dc.relu(e), f_k)


def predict_order(refined, params: OrderHeadParams):
    """Softmax distribution over the n! permutations from gated features."""
    x = dc.concat(refined, axis=-1)
    h = dc.relu(dc.add(dc.matmul(x, params.w_hidden), params.b_hidden))
    logits = dc.add(dc.matmul(h, params.w_out), params.b_out)
    log_probs = dc.log_softmax(logits)
    probs = np.exp(log_probs.data)
    return OrderPrediction(
        probabilities=probs,
        predicted_id=np.argmax(probs, axis=-1),
        log_probs=log_probs,
    )


def order_loss(pred: OrderPrediction, label):
    """Cross-entropy -log p[label], taken from the log-softmax directly;
    ``label`` holds one id per prediction."""
    label = np.asarray(label)
    c = pred.log_probs.data.shape[-1]
    if label.shape != pred.log_probs.data.shape[:-1] or np.any((label < 0) | (label >= c)):
        raise ValueError(f"labels {label} do not fit predictions over {c} classes")
    return -pred.log_probs[(*np.indices(label.shape), label)]


def order_head_forward(features, label, params: OrderHeadParams):
    """Fuse, excite, gate, classify; returns (prediction, loss)."""
    z = fuse(features, params)
    e = excitation(z, params)
    refined = [recalibrate(e, f) for f in features]
    pred = predict_order(refined, params)
    return pred, order_loss(pred, label)


def total_loss(graph_loss_value, order_loss_value, lambda_g, lambda_o):
    """Joint objective lambda_g * J_g + lambda_o * J_o."""
    return dc.add(dc.mul(graph_loss_value, lambda_g), dc.mul(order_loss_value, lambda_o))
