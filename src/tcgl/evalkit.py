"""Nearest-neighbor retrieval protocol, order-prediction evaluation, and
the consolidated verification suites (gradient checks, loss oracles,
Monte-Carlo view statistics, determinism).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import contrast, diffcore as dc, encoder, orderhead, sampler, tgraph, trainer


@dataclass
class EmbeddingGallery:
    """Retrieval rows and labels; ``norms`` is set once, so never mutate ``embeddings``."""

    embeddings: np.ndarray  # (num_videos, dim)
    labels: np.ndarray      # (num_videos,) class ids
    split: str = "train"
    norms: np.ndarray = field(init=False)  # (num_videos,), clamped to 1e-12

    def __post_init__(self):
        if self.embeddings.shape[0] != len(self.labels):
            raise ValueError("one label per embedding row is required")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("gallery embeddings must be finite")
        self.norms = np.maximum(np.linalg.norm(self.embeddings, axis=1), 1e-12)


def embed_video(videos, model: trainer.Model, config: trainer.TrainConfig,
                backbone_only=False):
    """Retrieval embeddings, one row per video: the encoder feature of its
    chronologically middle snippet, optionally passed through the
    inter-graph GCN as a single-node graph. All videos go as one batch."""
    middle = config.n // 2
    stats = np.stack([encoder.clip_statistics(
        sampler.sample_snippets(v, config.l, config.p, config.n)[middle]) for v in videos])
    feats = encoder.encode(stats[:, None, :], model.enc_snip)  # (V, 1, F)
    if backbone_only:
        return feats.data[:, 0]
    return tgraph.gcn_forward(tgraph.build_chain_graph(feats), model.gcn_inter).data[:, 0]


def build_gallery(videos, model, config, split="train", backbone_only=False):
    labels = np.array([v.class_id for v in videos], dtype=np.int64)
    return EmbeddingGallery(embeddings=embed_video(videos, model, config, backbone_only),
                            labels=labels, split=split)


def retrieve(query, gallery: EmbeddingGallery, k):
    """Indices of the k nearest gallery rows by cosine distance.

    Distance is 1 - <q, g> over unit vectors; ties break by ascending
    gallery index (stable sort).
    """
    if not 1 <= k <= gallery.embeddings.shape[0]:
        raise ValueError(f"k={k} must lie in 1..{gallery.embeddings.shape[0]}, the gallery size")
    qn = np.linalg.norm(query)
    if qn < 1e-12:
        raise ValueError("zero-norm query cannot be ranked by cosine distance")
    if query.shape[0] != gallery.embeddings.shape[1]:
        raise ValueError(
            f"query dim {query.shape[0]} != gallery dim {gallery.embeddings.shape[1]}"
        )
    dists = 1.0 - (gallery.embeddings @ (query / qn)) / gallery.norms
    return np.argsort(dists, kind="stable")[:k]


def topk_accuracy(queries: EmbeddingGallery, gallery: EmbeddingGallery, k):
    """Fraction of queries whose class appears among the k nearest classes."""
    if queries.embeddings.shape[0] == 0:
        raise ValueError("empty query set")
    hits = 0
    for row, label in zip(queries.embeddings, queries.labels):
        idx = retrieve(row, gallery, k)
        hits += label in gallery.labels[idx]
    return hits / queries.embeddings.shape[0]


def retrieval_table(queries, gallery, ks=(1, 5, 10, 20, 50)):
    return {k: topk_accuracy(queries, gallery, k) for k in ks}


def eval_order(ckpt: trainer.Checkpoint, videos, indices=None):
    """Order accuracy under validation's (seed, video) permutation ids, in one forward
    pass over all videos. Only the snippet encoder, clean inter-graph GCN and order head
    run: no views. Every index must lie in range(len(videos))."""
    config = ckpt.config
    indices = list(range(len(videos)) if indices is None else indices)
    if not indices:
        raise ValueError("no videos to evaluate")
    lo, hi = min(indices), max(indices)
    if lo < 0 or hi >= len(videos):
        raise ValueError(f"video index {lo if lo < 0 else hi} lies outside range({len(videos)})")
    model = trainer.restore_model(ckpt, videos[0].channels)
    ids = np.array([trainer.val_permutation_id(config.seed, i, config.n) for i in indices])
    stats = trainer.video_statistics([videos[i] for i in indices], config)
    return trainer.evaluate(model, config, stats, trainer.Draws(ids, None))[1]


# -- consolidated verification -----------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name, measured, threshold, *, detail=""):
        """Record a check that passes when ``measured`` is at most ``threshold``."""
        self.checks.append(CheckResult(name, bool(measured <= threshold), float(measured),
                                       float(threshold), detail))

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: measured {c.measured:.3e} vs "
                f"{c.threshold:.3e}" + (f" ({c.detail})" if c.detail else "") for c in self.checks]


def _gradient_suite(report, rng):
    m_right = dc.Tensor(rng.standard_normal((6, 4)))
    probe = dc.Tensor(rng.standard_normal(6))
    cases = {
        "relu": lambda x: dc.tsum(dc.relu(x)),
        "matmul": lambda x: dc.tsum(dc.linear(x, m_right)),
        "hadamard": lambda x: dc.tsum(dc.mul(x, x)),
        "l2_normalize": lambda x: dc.tsum(dc.l2_normalize(x)),
        "log_softmax": lambda x: dc.tsum(dc.mul(dc.log_softmax(x), probe)),
    }
    for name, f in cases.items():
        if name == "matmul":
            x = dc.Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        else:
            data = rng.standard_normal(6)
            data[np.abs(data) < 1e-2] = 0.1  # stay away from the relu kink
            x = dc.Tensor(data, requires_grad=True)
        report.add(f"grad/{name}", dc.finite_diff_check(f, [x]), 1e-4)


def _composite_gradient_check(report):
    report.add("grad/full_objective", full_loss_gradient_check(seed=3), 1e-4)


def full_loss_gradient_check(seed=3, epsilon=1e-5):
    """Finite-difference check of the complete training objective on a toy
    instance, taken w.r.t. every parameter block."""
    config = trainer.TrainConfig(
        data_dir="", epochs=1, seed=seed, feature_dim=8, gcn_dim=8,
    ).validate()
    label = sampler.label_for_class(1)
    video = sampler.gen_synthetic_video(seed, label)
    model = trainer.build_model(config)
    params = list(model.named_params().values())
    stats = trainer.video_statistics([video], config)

    def objective(*_):
        draws = trainer.draw_batch(config, [np.random.default_rng(seed)], [2])
        return dc.tsum(trainer.forward_sample(model, config, stats, draws).loss)

    return dc.finite_diff_check(objective, params, epsilon=epsilon)


def oracle_pairwise(u_rows, v_rows, i, tau, proj):
    """Brute-force double-loop reference for the contrastive pair loss."""
    def g(x):
        h = np.maximum(x @ proj.w1.data + proj.b1.data, 0.0)
        return h @ proj.w2.data + proj.b2.data

    def phi(a, b):
        pa, pb = g(a), g(b)
        pa = pa / np.sqrt((pa ** 2).sum() + 1e-12)
        pb = pb / np.sqrt((pb ** 2).sum() + 1e-12)
        return float(pa @ pb)

    n = u_rows.shape[0]
    num = np.exp(phi(u_rows[i], v_rows[i]) / tau)
    den = 0.0
    for k in range(n):
        den += np.exp(phi(u_rows[i], v_rows[k]) / tau)
        if k != i:
            den += np.exp(phi(u_rows[i], u_rows[k]) / tau)
    return -np.log(num / den)


def oracle_graph_loss(u_rows, v_rows, tau, proj):
    n = u_rows.shape[0]
    total = 0.0
    for i in range(n):
        total += oracle_pairwise(u_rows, v_rows, i, tau, proj)
        total += oracle_pairwise(v_rows, u_rows, i, tau, proj)
    return total / (2 * n)


def _contrastive_suite(report, rng, cases=100):
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(3, 9))
        proj = contrast.init_projection(rng, dim)
        u = rng.standard_normal((n, dim))
        v = rng.standard_normal((n, dim))
        got = float(contrast.graph_loss(dc.Tensor(u), dc.Tensor(v), 0.5, proj).data)
        want = oracle_graph_loss(u, v, 0.5, proj)
        worst = max(worst, abs(got - want))
        i = int(rng.integers(n))
        got_pair = float(contrast.pairwise_loss(dc.Tensor(u), dc.Tensor(v), i, 0.5, proj).data)
        worst = max(worst, abs(got_pair - oracle_pairwise(u, v, i, 0.5, proj)))
    report.add("contrast/oracle_equivalence", worst, 1e-10)


def view_statistics(p_r, p_m, draws=10_000, n=6, f=32, seed=123):
    """Edge-removal and feature-mask rates of ``draws`` views decoded as in training."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((n, f))  # the graph's node features come first in the stream
    coins = rng.random((draws, tgraph.coin_count(n, f)))
    adjacency, mask = tgraph.view_from_coins(coins, n, p_r, p_m)
    total_edges = (n - 1) * draws
    removed = total_edges - np.triu(adjacency).sum()
    return removed / total_edges, np.count_nonzero(mask == 0.0) / (f * draws)


def _view_suite(report):
    edge_rate, mask_rate = view_statistics(0.2, 0.1)
    report.add("views/edge_removal_rate", abs(edge_rate - 0.2), 0.02,
               detail=f"rate {edge_rate:.4f} vs nominal 0.2")
    report.add("views/feature_mask_rate", abs(mask_rate - 0.1), 0.02,
               detail=f"rate {mask_rate:.4f} vs nominal 0.1")
    rng = np.random.default_rng(9)
    g = tgraph.build_chain_graph(dc.Tensor(rng.standard_normal((5, 8))))
    clean = tgraph.generate_view(g, 0.0, 0.0, rng, 2)
    identical = (np.array_equal(clean.adjacency, g.adjacency)
                 and np.array_equal(clean.features.data, g.features.data))
    report.add("views/clean_view_identity", 0.0 if identical else 1.0, 0.0)


def _determinism_suite(report):
    config = trainer.TrainConfig(seed=11, feature_dim=8, gcn_dim=8).validate()
    video = sampler.gen_synthetic_video(5, sampler.label_for_class(0))
    model = trainer.build_model(config)
    stats = trainer.video_statistics([video], config)
    values = [float(trainer.forward_sample(
        model, config, stats, trainer.draw_batch(config, [np.random.default_rng(3)], [1])
    ).loss.data[0]) for _ in range(2)]
    report.add("determinism/forward_repeat", abs(values[0] - values[1]), 0.0)


def verify_all(seed=0):
    """Run every verification suite; returns a VerificationReport."""
    report = VerificationReport()
    rng = np.random.default_rng(seed)
    _gradient_suite(report, rng)
    _composite_gradient_check(report)
    _contrastive_suite(report, rng)
    _view_suite(report)
    _determinism_suite(report)
    return report


def monotone_topk(queries, gallery, ks=(1, 5, 10, 20, 50)):
    table = retrieval_table(queries, gallery, ks)
    accs = [table[k] for k in ks]
    return accs, all(b >= a for a, b in zip(accs, accs[1:]))


def chance_level(n):
    return 1.0 / sampler.num_permutations(n)
