"""Graph contrastive objective between two views of a temporal graph.

The relation between two node embeddings is the cosine of their images
under a shared two-layer projection head. For a positive pair (u_i, v_i)
the loss is the negative log of the softmax probability of the positive
relation against all cross-view relations plus the same-view relations
with k != i, at temperature tau. Both views are projected and normalised
as one stack of 2N rows. A graph's loss is the NT-Xent node over that
stack, the mean of all 2N anchors' terms; a single pair's loss is its
anchor's term alone, forward only. The combined graph loss weights intra
and inter terms.
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


def _projected_stack(u_rows, v_rows, proj: ProjectionParams):
    """Both views, projected and normalised, as one (..., 2N, D) stack:
    row i's positive sits at row i + N (mod 2N)."""
    if u_rows.data.shape != v_rows.data.shape:
        raise ValueError(
            f"view shapes differ: {u_rows.data.shape} vs {v_rows.data.shape}"
        )
    return dc.l2_normalize(project(dc.concat([u_rows, v_rows], axis=-2), proj), axis=-1)


def pairwise_loss(u_rows, v_rows, i, tau, proj: ProjectionParams):
    """-log softmax probability of the positive pair (u_i, v_i), forward only.

    Negatives are every cross-view pair (u_i, v_k) with k != i and every
    same-view pair (u_i, u_k) with k != i: anchor i of ``graph_loss``'s
    stack, through the same max-subtracted logsumexp.
    """
    n = u_rows.data.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for {n} nodes")
    rows = dc._nt_xent_rows(_projected_stack(u_rows, v_rows, proj).data, tau)[0]
    return dc.Tensor(rows[..., i])


def graph_loss(u_rows, v_rows, tau, proj: ProjectionParams):
    """Mean of every node's loss, over both views.

    Views are (..., N, D); leading axes index graphs, and each graph's
    negatives come from that graph alone. The stack's relations over tau
    form one (..., 2N, 2N) matrix whose diagonal is masked out. Returns
    one loss per graph.
    """
    return dc.nt_xent(_projected_stack(u_rows, v_rows, proj), tau)


def total_graph_loss(intra_losses, inter_loss, alpha, beta):
    """Weighted sum: alpha * sum(intra) + beta * inter, where
    ``intra_losses`` holds a sample's intra-graph losses on its last axis."""
    return dc.add(dc.mul(inter_loss, beta), dc.mul(dc.tsum(intra_losses, axis=-1), alpha))
