"""Evaluation kit: galleries, retrieval, order accuracy, verification."""

import numpy as np
import pytest

import tcgl.diffcore as dc
from tcgl import encoder, evalkit, sampler, tgraph, trainer

from conftest import small_config


def _toy_gallery():
    emb = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.0, 1.0],
        [-1.0, 0.0],
        [0.5, 0.5],
    ])
    labels = np.array([0, 0, 1, 2, 1])
    return evalkit.EmbeddingGallery(embeddings=emb, labels=labels)


def test_gallery_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        evalkit.EmbeddingGallery(embeddings=np.ones((3, 2)),
                                 labels=np.array([0, 1]))


def test_gallery_rejects_non_finite():
    with pytest.raises(ValueError):
        evalkit.EmbeddingGallery(embeddings=np.array([[np.inf, 0.0]]),
                                 labels=np.array([0]))


def test_retrieve_matches_brute_force_cosine_sort():
    g = _toy_gallery()
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = rng.standard_normal(2)
        dists = [1.0 - (row @ q) / (np.linalg.norm(row) * np.linalg.norm(q))
                 for row in g.embeddings]
        expected = np.argsort(dists, kind="stable")[:3]
        assert np.array_equal(evalkit.retrieve(q, g, 3), expected)


def test_retrieve_breaks_ties_by_gallery_index():
    emb = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    g = evalkit.EmbeddingGallery(embeddings=emb, labels=np.zeros(3, dtype=int))
    # rows 0 and 1 are parallel: identical cosine distance, index order wins
    assert list(evalkit.retrieve(np.array([1.0, 0.0]), g, 2)) == [0, 1]


def test_retrieve_breaks_ties_among_many_rows_by_gallery_index():
    # 60 rows at three exact distances, each tied by about 20 rows: more than
    # the 16 below which numpy's quicksort falls back to a stable insertion sort
    rng = np.random.default_rng(2)
    group = rng.integers(0, 3, 60)
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])[group] * rng.integers(1, 5, (60, 1))
    g = evalkit.EmbeddingGallery(emb, np.zeros(60, dtype=int))
    want = np.concatenate([np.flatnonzero(group == k) for k in range(3)])
    assert min(np.bincount(group)) > 16
    for k in (25, 60):
        assert np.array_equal(evalkit.retrieve(np.array([1.0, 0.0]), g, k), want[:k])


def test_gallery_norms_are_set_once_with_the_clamp():
    emb = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    g = evalkit.EmbeddingGallery(emb, np.array([0, 1, 2]), split="test")
    assert g.split == "test"
    assert np.array_equal(g.norms, [5.0, 1e-12, 1.0])
    # a zero row ranks last, at distance 1
    assert list(evalkit.retrieve(np.array([1.0, 0.0]), g, 3)) == [2, 0, 1]


def test_retrieve_input_validation():
    g = _toy_gallery()
    with pytest.raises(ValueError):
        evalkit.retrieve(np.array([1.0, 0.0]), g, 6)
    for k in (0, -1):  # a slice [:k] would answer with no rows, or with n - 1
        with pytest.raises(ValueError, match="must lie in 1..5"):
            evalkit.retrieve(np.array([1.0, 0.0]), g, k)
    with pytest.raises(ValueError):
        evalkit.retrieve(np.zeros(2), g, 1)
    with pytest.raises(ValueError):
        evalkit.retrieve(np.ones(3), g, 1)


def test_topk_accuracy_full_gallery_is_one():
    g = _toy_gallery()
    assert evalkit.topk_accuracy(g, g, 5) == pytest.approx(1.0)


def test_topk_self_query_top1_is_exact_match():
    g = _toy_gallery()
    assert evalkit.topk_accuracy(g, g, 1) == pytest.approx(1.0)


def test_monotone_topk_reports_accuracies():
    g = _toy_gallery()
    accs, mono = evalkit.monotone_topk(g, g, ks=(1, 2, 5))
    assert len(accs) == 3
    assert mono
    assert accs[-1] == pytest.approx(1.0)


def test_gallery_embedding_is_the_single_node_gcn(small_dataset):
    cfg = small_config(str(small_dataset))
    _, videos = sampler.load_dataset(small_dataset)
    model = trainer.build_model(cfg)
    gallery = evalkit.build_gallery(videos[:5], model, cfg)
    backbone = evalkit.build_gallery(videos[:5], model, cfg, backbone_only=True)
    for row, feat, video in zip(gallery.embeddings, backbone.embeddings, videos):
        middle = sampler.sample_snippets(video, cfg.l, cfg.p, cfg.n)[cfg.n // 2]
        stats = encoder.clip_statistics(middle)
        want_feat = np.maximum(stats @ model.enc_snip.weight.data + model.enc_snip.bias.data, 0)
        assert np.allclose(feat, want_feat, rtol=1e-12, atol=1e-12)
        want = np.maximum(feat @ model.gcn_inter.weight.data, 0)
        assert np.allclose(row, want, rtol=1e-12, atol=1e-12)


def test_chance_level():
    assert evalkit.chance_level(3) == pytest.approx(1.0 / 6.0)
    assert evalkit.chance_level(2) == pytest.approx(0.5)


def test_eval_order_rejects_mismatched_dataset(small_dataset, tmp_path):
    cfg = small_config(str(small_dataset), epochs=1)
    ckpt, _ = trainer.train(cfg)
    wrong = sampler.gen_synthetic_video(
        0, sampler.label_for_class(0), frames=80, height=8, width=8,
        channels=2)
    with pytest.raises(ValueError):
        evalkit.eval_order(ckpt, [wrong])


def test_eval_order_is_deterministic(small_dataset):
    cfg = small_config(str(small_dataset), epochs=1)
    ckpt, _ = trainer.train(cfg)
    _, videos = sampler.load_dataset(small_dataset)
    a = evalkit.eval_order(ckpt, videos, indices=range(10))
    b = evalkit.eval_order(ckpt, videos, indices=range(10))
    assert a == b
    assert 0.0 <= a <= 1.0


@pytest.fixture(scope="module", params=[(1.0, 0.2, 0.1), (1.0, 0.0, 0.0), (0.0, 0.2, 0.1),
                                        (0.0, 0.0, 0.0)], ids=lambda p: "ab%g-pr%g-pm%g" % p)
def trained(request, small_dataset):
    """A checkpoint trained for a few epochs, with its config, rows and data."""
    ab, p_r, p_m = request.param
    cfg = small_config(str(small_dataset), epochs=4, batch_size=16, alpha=ab, beta=ab,
                       p_r=p_r, p_m=p_m)
    ckpt, rows = trainer.train(cfg)
    manifest, videos = sampler.load_dataset(small_dataset)
    return cfg, ckpt, rows, manifest, videos


@pytest.mark.parametrize("length", [1, 16, 17])
def test_eval_order_equals_the_validation_path(trained, length):
    # the validation path draws views and runs both graph losses; eval_order does neither
    cfg, ckpt, _, _, videos = trained
    idx = np.random.default_rng(0).permutation(len(videos))[:length].tolist()
    stats = trainer.video_statistics(videos, cfg)
    want = trainer.evaluate(trainer.restore_model(ckpt), cfg, stats[idx],
                            trainer.validation_draws(cfg, idx))[1]
    assert evalkit.eval_order(ckpt, videos, indices=idx) == want
    if length == 17:  # some right, some wrong: the two paths agree on a mixed batch
        assert 0.0 < want < 1.0


def test_eval_order_runs_one_forward_pass_equal_to_the_validation_path(trained, monkeypatch):
    # 37 videos, more than two batches of batch_size 16: validation makes one call as well
    cfg, ckpt, _, _, _ = trained
    videos = [sampler.gen_synthetic_video(100 + i, sampler.label_for_class(i % 6))
              for i in range(37)]
    real_forward, calls = trainer.forward_sample, []

    def forward(*args):
        calls.append(args[2].shape)
        return real_forward(*args)

    monkeypatch.setattr(trainer, "forward_sample", forward)
    want = trainer.evaluate(trainer.restore_model(ckpt), cfg,
                            trainer.video_statistics(videos, cfg),
                            trainer.validation_draws(cfg, range(37)))[1]
    assert evalkit.eval_order(ckpt, videos) == want
    assert calls == [(37, cfg.n, encoder.pooled_dim(cfg.l, 1))] * 2


def test_eval_order_equals_the_logged_val_acc(trained):
    cfg, ckpt, rows, manifest, videos = trained
    _, val_idx = trainer.split_train_val(manifest, cfg)
    logged = next(row["val_acc"] for row in rows if row["epoch"] == ckpt.epoch)
    assert evalkit.eval_order(ckpt, videos, indices=val_idx) == logged


@pytest.mark.parametrize("bad", [-1, 3])
def test_eval_order_refuses_an_index_outside_the_videos_before_restoring(monkeypatch, bad):
    videos = [sampler.gen_synthetic_video(i, sampler.label_for_class(i)) for i in range(3)]
    ckpt = trainer.Checkpoint(params={}, momentum={}, epoch=0, config=trainer.TrainConfig())

    def restore(*args):
        raise AssertionError("restored the model before checking the indices")

    monkeypatch.setattr(trainer, "restore_model", restore)
    with pytest.raises(ValueError, match=rf"video index {bad} lies outside range\(3\)"):
        evalkit.eval_order(ckpt, videos, indices=[0, bad, 1])


def _view_statistics_per_draw(p_r, p_m, draws, n, f, seed):
    """The per-draw ``generate_view`` loop that ``view_statistics`` replaced."""
    rng = np.random.default_rng(seed)
    g = tgraph.build_chain_graph(dc.Tensor(rng.standard_normal((n, f))))
    removed = masked = 0
    for _ in range(draws):
        view = tgraph.generate_view(g, p_r, p_m, rng)
        removed += (n - 1) - np.triu(view.adjacency).sum()
        masked += int((np.all(view.features.data == 0.0, axis=0)).sum())
    return removed / ((n - 1) * draws), masked / (f * draws)


@pytest.mark.parametrize("args", [(0.2, 0.1, 2000, 6, 32, 123), (0.5, 0.3, 777, 4, 8, 5),
                                  (0.0, 0.0, 100, 3, 4, 1), (1.0, 1.0, 50, 2, 3, 9)])
def test_view_statistics_equals_the_per_draw_generate_view_loop(args):
    assert evalkit.view_statistics(*args) == _view_statistics_per_draw(*args)


def test_view_statistics_near_nominal_rates():
    removal, mask = evalkit.view_statistics(0.2, 0.1, draws=2000)
    assert abs(removal - 0.2) < 0.03
    assert abs(mask - 0.1) < 0.03


def test_oracle_graph_loss_symmetrizes_pairwise(rng):
    from tcgl import contrast
    u = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    proj = contrast.init_projection(rng, 4)
    a = evalkit.oracle_pairwise(u, v, 2, 0.5, proj)
    assert np.isfinite(a)
    graph = evalkit.oracle_graph_loss(u, v, 0.5, proj)
    expected = np.mean([
        (evalkit.oracle_pairwise(u, v, i, 0.5, proj)
         + evalkit.oracle_pairwise(v, u, i, 0.5, proj)) / 2.0
        for i in range(5)])
    assert graph == pytest.approx(expected)


def test_verification_report_lines_and_gating():
    report = evalkit.VerificationReport()
    report.add("small-error", 1e-6, 1e-4)
    report.add("at-threshold", 0.9, 0.9)
    assert report.all_passed
    report.add("too-big", 2.0, 1.0, detail="expected failure")
    assert not report.all_passed
    lines = report.lines()
    assert len(lines) == 3
    assert lines[0].startswith("[PASS]")
    assert "[FAIL]" in lines[2] and "expected failure" in lines[2]


def test_verify_all_passes():
    report = evalkit.verify_all(seed=0)
    assert report.all_passed, "\n".join(report.lines())
