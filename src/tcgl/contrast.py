"""Graph contrastive objective between two views of a temporal graph.

The relation between two node embeddings is the cosine of their images
under a shared two-layer projection head. For a positive pair (u_i, v_i)
the loss is the negative log of the softmax probability of the positive
relation against all cross-view relations plus the same-view relations
with k != i, at temperature tau. A graph's loss averages this over the
2N nodes of both views, each node taking its turn as the anchor; as in
NT-Xent, it comes from one similarity matrix over the 2N stacked
projections. The combined graph loss weights intra and inter terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diffcore as dc


@dataclass
class ProjectionParams:
    w1: dc.Tensor  # (F, F)
    b1: dc.Tensor  # (F,)
    w2: dc.Tensor  # (F, F)
    b2: dc.Tensor  # (F,)


def init_projection(rng, in_dim):
    return ProjectionParams(*dc.init_linear(rng, in_dim, in_dim),
                            *dc.init_linear(rng, in_dim, in_dim))


def project(x, proj: ProjectionParams):
    """Two-layer perceptron with ReLU hidden activation over the last axis."""
    return dc.linear(dc.relu(dc.linear(x, proj.w1, proj.b1)), proj.w2, proj.b2)


def relation(u, v, proj: ProjectionParams):
    """Cosine similarity of the projected embeddings, in [-1, 1]."""
    pu = dc.l2_normalize(project(u, proj))
    pv = dc.l2_normalize(project(v, proj))
    return dc.dot(pu, pv)


def pairwise_loss(u_rows, v_rows, i, tau, proj: ProjectionParams):
    """-log softmax probability of the positive pair (u_i, v_i).

    Negatives are every cross-view pair (u_i, v_k) with k != i and every
    same-view pair (u_i, u_k) with k != i. Computed through a logsumexp
    with max-subtraction so extreme relation/tau ratios stay finite.
    """
    n = u_rows.data.shape[0]
    if n == 0:
        raise ValueError("empty embedding matrix")
    if u_rows.data.shape != v_rows.data.shape:
        raise ValueError(
            f"view shapes differ: {u_rows.data.shape} vs {v_rows.data.shape}"
        )
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for {n} nodes")
    terms = []
    for k in range(n):
        terms.append(relation(u_rows[i], v_rows[k], proj) / tau)
    for k in range(n):
        if k != i:
            terms.append(relation(u_rows[i], u_rows[k], proj) / tau)
    logits = dc.stack(terms)  # (2n-1,) vector of scalar relations / tau
    shift = float(logits.data.max())
    lse = dc.log(dc.tsum(dc.exp(logits - shift))) + shift
    return lse - terms[i]


def graph_loss(u_rows, v_rows, tau, proj: ProjectionParams):
    """Mean of every node's loss, over both views.

    Views are (..., N, D); leading axes index graphs, and each graph's
    negatives come from that graph alone. Both views are projected as one
    (..., 2N, D) stack, whose relations over tau form one (..., 2N, 2N)
    matrix: row i's positive sits at column i + N (mod 2N), and its
    diagonal is masked out. Returns one loss per graph.
    """
    if u_rows.data.shape != v_rows.data.shape:
        raise ValueError(
            f"view shapes differ: {u_rows.data.shape} vs {v_rows.data.shape}"
        )
    p = dc.l2_normalize(project(dc.concat([u_rows, v_rows], axis=-2), proj), axis=-1)
    return dc.nt_xent(p, tau)


def total_graph_loss(intra_losses, inter_loss, alpha, beta):
    """Weighted sum: alpha * sum(intra) + beta * inter, where
    ``intra_losses`` holds a sample's intra-graph losses on its last axis."""
    return dc.add(dc.mul(inter_loss, beta), dc.mul(dc.tsum(intra_losses, axis=-1), alpha))
