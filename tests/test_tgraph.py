"""Temporal chain graphs, stochastic views, and GCN propagation."""

import numpy as np
import pytest

import tcgl.diffcore as dc
from tcgl import tgraph


def _graph(n=4, f=8, seed=0):
    rng = np.random.default_rng(seed)
    return tgraph.build_chain_graph(dc.Tensor(rng.standard_normal((n, f)),
                                              requires_grad=True))


def test_chain_adjacency_structure():
    adj = tgraph.chain_adjacency(4)
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    assert np.array_equal(adj, expected)


def test_chain_adjacency_single_node():
    assert np.array_equal(tgraph.chain_adjacency(1), np.zeros((1, 1)))


def test_clean_view_reuses_feature_tensor():
    g = _graph()
    view = tgraph.generate_view(g, 0.0, 0.0, np.random.default_rng(1), 2)
    assert view.features is g.features
    assert np.array_equal(view.adjacency, g.adjacency)


def test_view_symmetry_and_mask_columns():
    g = _graph(n=6, f=16)
    rng = np.random.default_rng(3)
    view = tgraph.generate_view(g, 0.5, 0.5, rng)
    assert np.array_equal(view.adjacency, view.adjacency.T)
    col_zero = np.all(view.features.data == 0.0, axis=0)
    kept = view.features.data[:, ~col_zero]
    assert np.array_equal(kept, g.features.data[:, ~col_zero])


def test_view_rates_match_probabilities():
    g = _graph(n=6, f=32)
    rng = np.random.default_rng(17)
    removed = masked = 0
    draws = 4000
    for _ in range(draws):
        view = tgraph.generate_view(g, 0.2, 0.1, rng)
        removed += 5 - np.triu(view.adjacency).sum()
        masked += np.all(view.features.data == 0.0, axis=0).sum()
    assert abs(removed / (5 * draws) - 0.2) < 0.02
    assert abs(masked / (32 * draws) - 0.1) < 0.02


def test_view_rejects_bad_probability():
    with pytest.raises(ValueError):
        tgraph.generate_view(_graph(), 1.5, 0.0, np.random.default_rng(0))


def test_gcn_forward_shape_and_relu():
    g = _graph(n=4, f=8)
    rng = np.random.default_rng(5)
    params = tgraph.GcnParams(dc.init_linear(rng, 8, 6, bias=False))
    view = tgraph.generate_view(g, 0.0, 0.0, rng, 2)
    out = tgraph.gcn_forward(view, params)
    assert out.shape == (4, 6)
    assert np.all(out.data >= 0.0)


def test_gcn_on_the_graph_is_its_clean_view():
    g = _graph(n=5, f=8)
    rng = np.random.default_rng(11)
    params = tgraph.GcnParams(dc.init_linear(rng, 8, 6, bias=False))
    view = tgraph.generate_view(g, 0.0, 0.0, rng, 2)
    assert np.array_equal(tgraph.gcn_forward(g, params).data,
                          tgraph.gcn_forward(view, params).data)


def test_gcn_single_node_degenerates_to_relu_xw():
    g = _graph(n=1, f=8)
    rng = np.random.default_rng(6)
    params = tgraph.GcnParams(dc.init_linear(rng, 8, 5, bias=False))
    view = tgraph.generate_view(g, 0.0, 0.0, rng, 2)
    out = tgraph.gcn_forward(view, params)
    expected = np.maximum(g.features.data @ params.weight.data, 0.0)
    assert np.allclose(out.data, expected)


def test_gcn_isolated_node_keeps_self_information():
    g = _graph(n=3, f=4)
    view = tgraph.TemporalGraph(features=g.features, adjacency=np.zeros((3, 3)))
    rng = np.random.default_rng(8)
    params = tgraph.GcnParams(dc.init_linear(rng, 4, 4, bias=False))
    out = tgraph.gcn_forward(view, params)
    assert np.all(np.isfinite(out.data))
    expected = np.maximum(g.features.data @ params.weight.data, 0.0)
    assert np.allclose(out.data, expected)


def test_gcn_gradient_matches_finite_differences():
    g = _graph(n=4, f=6, seed=9)
    rng = np.random.default_rng(10)
    params = tgraph.GcnParams(dc.init_linear(rng, 6, 5, bias=False))
    view = tgraph.generate_view(g, 0.0, 0.0, rng, 2)

    def f(w):
        return dc.tsum(tgraph.gcn_forward(view, tgraph.GcnParams(weight=w)))

    assert dc.finite_diff_check(f, [params.weight]) < 1e-4


def test_gcn_gradients_on_batched_view_adjacencies_match_finite_differences():
    # each graph of the batch has its own drawn (B, N, N) adjacency; the
    # clean chains share one (N, N) propagation matrix over (B, N, F) features
    rng = np.random.default_rng(12)
    b, n, f = 3, 5, 4
    coins = rng.random((b, tgraph.coin_count(n, f)))
    adj, mask = tgraph.view_from_coins(coins, n, 0.4, 0.2)
    x = dc.Tensor(rng.standard_normal((b, n, f)), requires_grad=True)
    w = dc.init_linear(rng, f, 3, bias=False)
    probe = rng.standard_normal((b, n, 3))

    def loss(x, w):
        view = tgraph.TemporalGraph(dc.mul(x, mask), adj)
        return dc.tsum(dc.mul(tgraph.gcn_forward(view, tgraph.GcnParams(w)), probe))

    def clean_loss(x, w):
        clean = tgraph.build_chain_graph(x)
        return dc.tsum(dc.mul(tgraph.gcn_forward(clean, tgraph.GcnParams(w)), probe))

    assert dc.finite_diff_check(loss, [x, w]) < 1e-6
    assert dc.finite_diff_check(clean_loss, [x, w]) < 1e-6
    clean = tgraph.build_chain_graph(x)
    assert np.array_equal(tgraph.gcn_forward(clean, tgraph.GcnParams(w)).data,
                          np.maximum(tgraph._propagation_matrix(tgraph.chain_adjacency(n))
                                     @ x.data @ w.data, 0.0))


@pytest.mark.parametrize("batch", [(5,), (2, 3)], ids=["one-axis", "two-axes"])
@pytest.mark.parametrize("n", range(1, 7))
def test_view_from_coins_keeps_the_chain_edges_its_coins_select(n, batch):
    # reference: the chain's own upper-triangle edges, row-major, one coin each
    rng = np.random.default_rng(n)
    f, chain = 3, tgraph.chain_adjacency(n)
    assert tgraph.coin_count(n, f) == n - 1 + f
    coins = rng.random((*batch, n - 1 + f))
    adj, mask = tgraph.view_from_coins(coins, n, 0.5, 0.4)
    iu, ju = np.nonzero(np.triu(chain, 1))
    want = np.zeros((*batch, n, n), dtype=np.int64)
    want[..., iu, ju] = want[..., ju, iu] = coins[..., :iu.size] >= 0.5
    assert adj.dtype == np.int64 and np.array_equal(adj, want)
    assert mask.shape == (*batch, 1, f)
    assert np.array_equal(mask, (coins[..., None, iu.size:] >= 0.4).astype(np.float64))
