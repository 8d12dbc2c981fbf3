"""Contrastive objective: projection, NT-Xent node, and oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcgl.diffcore as dc
from tcgl import contrast, evalkit


@pytest.fixture()
def proj(rng):
    return contrast.init_projection(rng, in_dim=8)


def _rows(rng, n=4, f=8):
    return dc.Tensor(rng.standard_normal((n, f)), requires_grad=True)


def test_pairwise_loss_matches_bruteforce_oracle(proj, rng):
    for n in range(2, 9):
        u = _rows(rng, n)
        v = _rows(rng, n)
        for i in range(n):
            ours = float(contrast.pairwise_loss(u, v, i, 0.5, proj).data)
            oracle = evalkit.oracle_pairwise(u.data, v.data, i, 0.5, proj)
            assert ours == pytest.approx(oracle, abs=1e-10)


def test_pairwise_loss_is_forward_only_and_refuses_an_index_out_of_range(proj, rng):
    u, v = _rows(rng, 3), _rows(rng, 3)
    loss = contrast.pairwise_loss(u, v, 2, 0.5, proj)
    assert loss.data.shape == () and not loss.requires_grad
    for bad_u, bad_v, i in ((u, v, 3), (u, v, -1), (_rows(rng, 0), _rows(rng, 0), 0)):
        with pytest.raises(ValueError, match="out of range"):
            contrast.pairwise_loss(bad_u, bad_v, i, 0.5, proj)


def test_graph_loss_matches_oracle(proj, rng):
    u = _rows(rng, 5)
    v = _rows(rng, 5)
    ours = float(contrast.graph_loss(u, v, 0.5, proj).data)
    oracle = evalkit.oracle_graph_loss(u.data, v.data, 0.5, proj)
    assert ours == pytest.approx(oracle, abs=1e-10)


def test_graph_loss_stable_for_extreme_temperature(proj, rng):
    u = _rows(rng, 4)
    v = _rows(rng, 4)
    loss = contrast.graph_loss(u, v, 0.01, proj)
    assert np.isfinite(float(loss.data))


def test_total_graph_loss_weighting(proj, rng):
    # inter differs from sum(intra), so swapping alpha and beta shows
    intra = dc.Tensor([1.0, 2.0])
    inter = dc.Tensor(5.0)
    assert float(contrast.total_graph_loss(intra, inter, 1.0, 1.0).data) == \
        pytest.approx(8.0)
    assert float(contrast.total_graph_loss(intra, inter, 0.0, 0.0).data) == 0.0
    assert float(contrast.total_graph_loss(intra, inter, 2.0, 0.5).data) == \
        pytest.approx(8.5)


def test_graph_loss_gradient_matches_finite_differences(proj, rng):
    u = _rows(rng, 3)
    v = _rows(rng, 3)

    def f(a, b):
        return contrast.graph_loss(a, b, 0.5, proj)

    assert dc.finite_diff_check(f, [u, v]) < 1e-4


def test_batched_graph_loss_matches_oracle_per_graph(rng):
    for n in (1, 3, 4):
        proj = contrast.init_projection(rng, 6)
        u = rng.standard_normal((5, n, 6))
        v = rng.standard_normal((5, n, 6))
        losses = contrast.graph_loss(dc.Tensor(u), dc.Tensor(v), 0.5, proj).data
        assert losses.shape == (5,)
        for g in range(5):
            assert abs(losses[g] - evalkit.oracle_graph_loss(u[g], v[g], 0.5, proj)) < 1e-10


@settings(max_examples=100, deadline=None)
@given(graphs=st.integers(1, 3), n=st.integers(1, 6), dim=st.integers(1, 6),
       tau=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
def test_graph_loss_property_matches_oracle(graphs, n, dim, tau, seed):
    rng = np.random.default_rng(seed)
    proj = contrast.init_projection(rng, dim)
    u = dc.Tensor(rng.standard_normal((graphs, n, dim)), requires_grad=True)
    v = dc.Tensor(rng.standard_normal((graphs, n, dim)), requires_grad=True)
    losses = contrast.graph_loss(u, v, tau, proj).data
    assert losses.shape == (graphs,)
    for g in range(graphs):
        assert abs(losses[g] - evalkit.oracle_graph_loss(u.data[g], v.data[g], tau, proj)) < 1e-10
    if n == 1:  # no negatives: the positive is the whole softmax
        assert np.all(np.abs(losses) < 1e-12)
    if graphs * n * dim <= 12:  # small enough for a cheap gradient check
        err = dc.finite_diff_check(lambda a, b: dc.tsum(contrast.graph_loss(a, b, tau, proj)),
                                   [u, v])
        assert err < 1e-4


@settings(max_examples=100, deadline=None)
@given(graphs=st.integers(1, 3), n=st.integers(1, 4), dim=st.integers(1, 4),
       tau=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_nt_xent_node_matches_oracle_and_finite_differences(graphs, n, dim, tau, seed):
    # With an identity projection and non-negative rows the oracle's
    # projection is the identity, so it sees exactly what the node sees.
    rng = np.random.default_rng(seed)
    eye, zero = dc.Tensor(np.eye(dim)), dc.Tensor(np.zeros(dim))
    identity = contrast.ProjectionParams(eye, zero, eye, zero)
    u, v = np.abs(rng.standard_normal((2, graphs, n, dim))) + 0.1
    rows = dc.l2_normalize(dc.Tensor(np.concatenate([u, v], axis=-2)))
    losses = dc.nt_xent(rows, tau).data
    assert losses.shape == (graphs,)
    anchors = dc._nt_xent_rows(rows.data, tau)[0]  # the terms the node averages
    assert np.array_equal(anchors.mean(axis=-1), losses)
    for g in range(graphs):
        assert abs(losses[g] - evalkit.oracle_graph_loss(u[g], v[g], tau, identity)) < 1e-10
        for i in range(n):  # row i anchors u_i, row n + i anchors v_i
            assert abs(anchors[g, i] - evalkit.oracle_pairwise(u[g], v[g], i, tau, identity)) < 1e-10
            assert abs(anchors[g, n + i]
                       - evalkit.oracle_pairwise(v[g], u[g], i, tau, identity)) < 1e-10
        # pairwise_loss is one anchor of graph_loss's stack; (v, u) permutes
        # that stack, which may move the last bit of a row
        ug, vg = dc.Tensor(u[g]), dc.Tensor(v[g])
        pairs = [contrast.pairwise_loss(a, b, i, tau, identity).data
                 for a, b in ((ug, vg), (vg, ug)) for i in range(n)]
        assert abs(np.mean(pairs) - contrast.graph_loss(ug, vg, tau, identity).data) < 1e-14
    # the rule holds for any rows, normalised or not
    p = dc.Tensor(rng.standard_normal((graphs, 2 * n, dim)), requires_grad=True)
    probe = rng.standard_normal(graphs)
    assert dc.finite_diff_check(
        lambda t: dc.tsum(dc.mul(dc.nt_xent(t, tau), probe)), [p]) < 1e-6


def test_nt_xent_rejects_an_odd_row_count():
    with pytest.raises(dc.ShapeError):
        dc.nt_xent(dc.Tensor(np.ones((3, 2))), 0.5)
