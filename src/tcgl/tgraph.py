"""Chronological-prior temporal graphs, stochastic views, and the GCN layer.

Graphs are undirected chains over chronologically ordered nodes (snippets
for the inter graph, frame-sets for intra graphs). A view keeps each edge
with probability 1 - p_r (one coin per undirected edge) and zeroes a
Bernoulli-drawn subset of feature dimensions across all nodes at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc


@dataclass
class TemporalGraph:
    features: dc.Tensor    # (..., N, F) node features, chronological order
    adjacency: np.ndarray  # (..., N, N) binary, symmetric, zero diagonal


@dataclass
class GcnParams:
    weight: dc.Tensor  # (F, F_out)


@functools.lru_cache(maxsize=None)
def chain_adjacency(n):
    """The (n, n) chain adjacency, built once per n and read-only."""
    a = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1
    a[idx + 1, idx] = 1
    a.flags.writeable = False
    return a


def build_chain_graph(features):
    """Undirected chain graph over chronologically ordered node features.

    Features are (..., N, F); leading axes hold a batch of graphs that
    share the one chain adjacency.
    """
    if not isinstance(features, dc.Tensor):
        features = dc.Tensor(features)
    if features.data.ndim < 2 or features.data.shape[-2] < 1:
        raise ValueError(f"features must be non-empty (..., N, F), got shape {features.data.shape}")
    return TemporalGraph(features=features, adjacency=chain_adjacency(features.data.shape[-2]))


def coin_count(n, feature_dim):
    """Coins one view of an n-node chain draws: one per edge (i, i + 1),
    then one per feature dim."""
    return n - 1 + feature_dim


def view_from_coins(coins, n, p_r, p_m):
    """(adjacency, feature mask) of the views of an n-node chain that
    uniform coins select.

    ``coins`` is (..., n - 1 + F), ``coin_count`` coins per view: chain
    edge (i, i + 1) stays when coin i is >= p_r, a feature dim when its
    coin is >= p_m. Leading axes give a batch of views, (..., n, n) int64
    adjacencies and (..., 1, F) masks that broadcast over each graph's nodes.
    """
    if not (0.0 <= p_r <= 1.0 and 0.0 <= p_m <= 1.0):
        raise ValueError(f"probabilities must lie in [0, 1], got p_r={p_r}, p_m={p_m}")
    keep = coins[..., :n - 1] >= p_r
    idx = np.arange(n - 1)
    adj = np.zeros((*coins.shape[:-1], n, n), dtype=np.int64)
    adj[..., idx, idx + 1] = keep
    adj[..., idx + 1, idx] = keep
    return adj, (coins[..., None, n - 1:] >= p_m).astype(np.float64)


def apply_view(g: TemporalGraph, adjacency, mask):
    """The view of ``g`` with the given adjacency and feature mask; with
    leading batch axes, each graph gets its own."""
    return TemporalGraph(features=dc.mul(g.features, dc.Tensor(mask)), adjacency=adjacency)


def generate_view(g: TemporalGraph, p_r, p_m, rng, view_index=1):
    """Corrupted copy: edges removed with prob p_r, feature dims masked with
    p_m. With p_r = p_m = 0 nothing is drawn and ``g`` itself is returned.
    ``view_index`` (1 or 2) names the view and changes nothing."""
    if p_r == 0.0 and p_m == 0.0:
        return g
    n = g.adjacency.shape[-1]
    coins = rng.random(coin_count(n, g.features.data.shape[-1]))
    return apply_view(g, *view_from_coins(coins, n, p_r, p_m))


def _propagation_matrix(adjacency):
    """D^-1/2 (A + I) D^-1/2 of each (..., N, N) adjacency."""
    a_hat = adjacency.astype(np.float64) + np.eye(adjacency.shape[-1])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    return a_hat * d_inv_sqrt[..., :, None] * d_inv_sqrt[..., None, :]


@functools.lru_cache(maxsize=None)
def _chain_propagation(n):
    s = _propagation_matrix(chain_adjacency(n))
    s.flags.writeable = False
    return s


def gcn_forward(graph, params: GcnParams):
    """relu(D^-1/2 (A + I) D^-1/2 X W), symmetric normalization with self-loops.

    ``graph`` is a clean chain, whose propagation matrix is built once per
    N, or a drawn view. Features are (..., N, F) and adjacency (..., N, N);
    leading axes are graphs of one batch and broadcast against each other.
    """
    if graph.features.data.shape[-1] != params.weight.shape[0]:
        raise ValueError(
            f"feature dim {graph.features.data.shape[-1]} does not match GCN weight "
            f"input dim {params.weight.shape[0]}"
        )
    adj, n = graph.adjacency, graph.adjacency.shape[-1]
    s = _chain_propagation(n) if adj is chain_adjacency(n) else _propagation_matrix(adj)
    return dc.graph_conv(s, graph.features, params.weight)
