"""Adaptive snippet order prediction head.

Each sample's snippet embeddings, shuffled by its permutation, are fused
through a bottleneck linear layer into a joint representation, an
excitation vector is predicted from it, and relu(excitation) gates every
snippet feature channel-wise. The gated features feed a two-layer
classifier over all n! permutations; training minimizes the
cross-entropy of the true permutation id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .sampler import permutation_table


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
    log_probs: np.ndarray      # (..., C)


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


def order_head_forward(features, label, params: OrderHeadParams):
    """Shuffle, fuse, excite, gate, classify and score, as one tape node;
    returns (prediction, loss).

    ``features`` is (..., n, c), each sample's n snippet features in
    chronological order; leading axes are batch axes, and ``label`` holds
    one permutation id per sample. Each sample's snippets are shuffled by
    its label's permutation, and its loss is the cross-entropy -log
    p[label]. The backward rule is the closed form of the head's linear,
    relu, gate, log-softmax and gather steps, one expression per step.
    """
    p = params
    *batch, n, c = features.data.shape
    if n * c != p.w_fuse.shape[0]:
        raise ValueError(
            f"{n} snippet features of dim {c} do not match fusion weight "
            f"input dim {p.w_fuse.shape[0]}"
        )
    label, classes = np.asarray(label), p.w_out.shape[1]
    if label.shape != tuple(batch) or ((label < 0) | (label >= classes)).any():
        raise ValueError(f"labels {label} do not fit predictions over {classes} classes")
    rows = np.indices(label.shape)
    gather, pick = (*rows[..., None], permutation_table(n)[label]), (*rows, label)
    x = features.data[gather]  # (..., n, c), shuffled
    xf = x.reshape(*batch, n * c)
    z = np.matmul(xf, p.w_fuse.data) + p.b_fuse.data
    e = np.matmul(z, p.w_excite.data) + p.b_excite.data
    e_mask = e > 0  # relu subgradient at 0 is taken as 0, as in dc.relu
    gate = (e * e_mask).reshape(*batch, 1, c)
    refined = (gate * x).reshape(*batch, n * c)
    a = np.matmul(refined, p.w_hidden.data) + p.b_hidden.data
    a_mask = a > 0
    h = a * a_mask
    logits = np.matmul(h, p.w_out.data) + p.b_out.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(log_probs)

    def rule(g):
        g_lp = np.zeros(log_probs.shape)
        g_lp[pick] += g * -1.0  # unique indices: the sums np.add.at would give
        g_logits = g_lp - probs * g_lp.sum(axis=-1, keepdims=True)
        dc._accumulate(p.w_out, dc._weight_grad(h, g_logits))
        dc._accumulate(p.b_out, dc._unbroadcast(g_logits, p.b_out.data.shape))
        g_a = np.matmul(g_logits, p.w_out.data.T) * a_mask
        dc._accumulate(p.w_hidden, dc._weight_grad(refined, g_a))
        dc._accumulate(p.b_hidden, dc._unbroadcast(g_a, p.b_hidden.data.shape))
        g_refined = np.matmul(g_a, p.w_hidden.data.T).reshape(x.shape)
        g_e = (g_refined * x).sum(axis=-2) * e_mask  # one gate serves every snippet
        g_x = g_refined * gate  # gate path first, then the fusion's: the tape's sum order
        dc._accumulate(p.w_excite, dc._weight_grad(z, g_e))
        dc._accumulate(p.b_excite, dc._unbroadcast(g_e, p.b_excite.data.shape))
        g_z = np.matmul(g_e, p.w_excite.data.T)
        dc._accumulate(p.w_fuse, dc._weight_grad(xf, g_z))
        dc._accumulate(p.b_fuse, dc._unbroadcast(g_z, p.b_fuse.data.shape))
        g_x += np.matmul(g_z, p.w_fuse.data.T).reshape(x.shape)
        g_features = np.zeros(features.data.shape)
        g_features[gather] += g_x
        dc._accumulate(features, g_features)

    loss = dc.Tensor(log_probs[pick] * -1.0, _backward=rule,
                     _parents=(features, p.w_fuse, p.b_fuse, p.w_excite, p.b_excite,
                               p.w_hidden, p.b_hidden, p.w_out, p.b_out))
    pred = OrderPrediction(probabilities=probs, predicted_id=probs.argmax(axis=-1),
                           log_probs=log_probs)
    return pred, loss


def total_loss(graph_loss_value, order_loss_value, lambda_g, lambda_o):
    """Joint objective lambda_g * J_g + lambda_o * J_o."""
    return dc.add(dc.mul(graph_loss_value, lambda_g), dc.mul(order_loss_value, lambda_o))
