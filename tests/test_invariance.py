"""Symmetries the whole model must have, checked as metamorphic relations:
a transformed input must give the correspondingly transformed output."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import tcgl.diffcore as dc
from tcgl import contrast, tgraph, trainer

_settings = settings(max_examples=100, deadline=None)
_graph_cases = dict(graphs=st.integers(1, 3), n=st.integers(1, 6), dim=st.integers(1, 6),
                    tau=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))


def _close(a, b, tol=1e-12):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


def _views(graphs, n, dim, seed):
    rng = np.random.default_rng(seed)
    proj = contrast.init_projection(rng, dim)
    return proj, rng.standard_normal((graphs, n, dim)), rng.standard_normal((graphs, n, dim)), rng


@_settings
@given(**_graph_cases)
def test_swapping_the_views_leaves_the_graph_loss_unchanged(graphs, n, dim, tau, seed):
    proj, u, v, _ = _views(graphs, n, dim, seed)
    loss = contrast.graph_loss(dc.Tensor(u), dc.Tensor(v), tau, proj).data
    swapped = contrast.graph_loss(dc.Tensor(v), dc.Tensor(u), tau, proj).data
    assert _close(swapped, loss)


@_settings
@given(**_graph_cases)
def test_each_graph_loss_ignores_node_order_and_the_other_graphs(graphs, n, dim, tau, seed):
    # One node permutation per graph, applied to both of its views, keeps
    # every positive pair and every negative set; a graph's loss computed
    # alone equals its loss in the batch, since its negatives are its own.
    proj, u, v, rng = _views(graphs, n, dim, seed)
    loss = contrast.graph_loss(dc.Tensor(u), dc.Tensor(v), tau, proj).data
    perm = np.stack([rng.permutation(n) for _ in range(graphs)])
    rows = np.arange(graphs)[:, None]
    permuted = contrast.graph_loss(dc.Tensor(u[rows, perm]), dc.Tensor(v[rows, perm]),
                                   tau, proj).data
    assert _close(permuted, loss)
    for g in range(graphs):
        assert _close(contrast.graph_loss(dc.Tensor(u[g]), dc.Tensor(v[g]), tau, proj).data,
                      loss[g])


@_settings
@given(batch=st.integers(1, 3), n=st.integers(1, 6), dim=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_reversing_the_chain_reverses_the_gcn_output(batch, n, dim, seed):
    # Reversal maps the chain onto itself (a graph automorphism), so the
    # clean graph needs only its features reversed; a drawn view needs its
    # adjacency reversed along with them.
    rng = np.random.default_rng(seed)
    params = tgraph.GcnParams(dc.init_linear(rng, dim, dim + 1, bias=False))
    x = rng.standard_normal((batch, n, dim))
    clean = tgraph.gcn_forward(tgraph.build_chain_graph(x), params).data
    reversed_clean = tgraph.gcn_forward(tgraph.build_chain_graph(x[:, ::-1]), params).data
    assert _close(reversed_clean, clean[:, ::-1])

    coins = rng.random((batch, tgraph.coin_count(n, dim)))
    adj, mask = tgraph.view_from_coins(coins, n, 0.5, 0.3)
    view = tgraph.TemporalGraph(dc.Tensor(x * mask), adj)
    flipped = tgraph.TemporalGraph(dc.Tensor((x * mask)[:, ::-1]), adj[:, ::-1, ::-1])
    assert _close(tgraph.gcn_forward(flipped, params).data,
                  tgraph.gcn_forward(view, params).data[:, ::-1])


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(6)), alpha=st.sampled_from([1.0, 0.0]),
       seed=st.integers(0, 2**32 - 1))
def test_permuting_the_batch_permutes_the_sample_losses_exactly(order, alpha, seed):
    cfg = trainer.TrainConfig(alpha=alpha, beta=alpha, feature_dim=8, gcn_dim=8, seed=seed % 1000)
    stats = np.random.default_rng(seed).random((6, cfg.n, 2 * cfg.l))
    model = trainer.build_model(cfg)

    def run(videos):
        # each video draws from its own generator, so its draws follow it
        draws = trainer.draw_batch(cfg, [np.random.default_rng((seed, i)) for i in videos])
        return trainer.forward_sample(model, cfg, stats[list(videos)], draws)

    base, permuted = run(range(6)), run(order)
    assert np.array_equal(permuted.loss.data, base.loss.data[order])
    assert np.array_equal(permuted.graph_loss, base.graph_loss[order])
    assert np.array_equal(permuted.order_loss, base.order_loss[order])
    assert np.array_equal(permuted.correct, base.correct[order])


_THREAD_RUN = """
import sys
from tcgl import trainer
config = trainer.TrainConfig(data_dir=sys.argv[1], epochs=5, batch_size=8, seed=5,
                             feature_dim=16, gcn_dim=16)
best, rows = trainer.train(config)
sys.stdout.write(repr(rows) + "\\n")
for name in sorted(best.params):
    sys.stdout.write(best.params[name].tobytes().hex() + best.momentum[name].tobytes().hex() + "\\n")
"""


def test_blas_thread_count_does_not_change_training(small_dataset):
    src = str(Path(trainer.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(small_dataset)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
