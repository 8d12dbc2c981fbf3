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
    c_con, hidden = fused_dim(n, c), (n * c) // 2
    return OrderHeadParams(*dc.init_linear(rng, n * c, c_con), *dc.init_linear(rng, c_con, c),
                           *dc.init_linear(rng, n * c, hidden),
                           *dc.init_linear(rng, hidden, math.factorial(n)))


def order_loss(pred: OrderPrediction, label):
    """Cross-entropy -log p[label], taken from the log-softmax directly;
    ``label`` holds one id per prediction."""
    label = np.asarray(label)
    c = pred.log_probs.data.shape[-1]
    if label.shape != pred.log_probs.data.shape[:-1] or np.any((label < 0) | (label >= c)):
        raise ValueError(f"labels {label} do not fit predictions over {c} classes")
    return dc.mul(dc.getitem(pred.log_probs, (*np.indices(label.shape), label)), -1.0)


def order_head_forward(features, label, params: OrderHeadParams):
    """Fuse, excite, gate, classify; returns (prediction, loss).

    ``features`` is (..., n, c), each sample's n snippet features in
    shuffled order; leading axes are batch axes.
    """
    *batch, n, c = features.data.shape
    if n * c != params.w_fuse.shape[0]:
        raise ValueError(
            f"{n} snippet features of dim {c} do not match fusion weight "
            f"input dim {params.w_fuse.shape[0]}"
        )
    z = dc.linear(dc.reshape(features, (*batch, n * c)), params.w_fuse, params.b_fuse)
    gate = dc.reshape(dc.relu(dc.linear(z, params.w_excite, params.b_excite)), (*batch, 1, c))
    refined = dc.reshape(dc.mul(gate, features), (*batch, n * c))
    h = dc.relu(dc.linear(refined, params.w_hidden, params.b_hidden))
    log_probs = dc.log_softmax(dc.linear(h, params.w_out, params.b_out))
    probs = np.exp(log_probs.data)
    pred = OrderPrediction(probabilities=probs, predicted_id=np.argmax(probs, axis=-1),
                           log_probs=log_probs)
    return pred, order_loss(pred, label)


def total_loss(graph_loss_value, order_loss_value, lambda_g, lambda_o):
    """Joint objective lambda_g * J_g + lambda_o * J_o."""
    return dc.add(dc.mul(graph_loss_value, lambda_g), dc.mul(order_loss_value, lambda_o))
