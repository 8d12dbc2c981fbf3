"""Joint training loop: SGD with momentum and weight decay over the
combined graph-contrastive and order-prediction objective.

All randomness flows from per-epoch generators derived from (seed, epoch),
so a run is bit-reproducible and a resumed run continues the exact trace
of an uninterrupted one.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import blobio, contrast, diffcore as dc, encoder, orderhead, sampler, tgraph


@dataclass
class TrainConfig:
    data_dir: str = ""
    out_dir: str = ""
    epochs: int = 200
    batch_size: int = 16
    lr: float = 0.001
    lr_decay_epoch: int = 0  # 0 disables the decay; -1 means epochs // 2
    momentum: float = 0.9
    weight_decay: float = 0.0005
    seed: int = 7
    n: int = 3
    m: int = 4
    l: int = 16
    p: int = 8
    tau: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    lambda_g: float = 1.0
    lambda_o: float = 1.0
    p_r: float = 0.2
    p_m: float = 0.1
    feature_dim: int = 32
    gcn_dim: int = 32
    val_fraction: float = 0.1

    def validate(self):
        for name, value in vars(self).items():
            kind = CONFIG_TYPES[name]
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("epochs", "batch_size", "n", "m", "l", "feature_dim", "gcn_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("p", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.lr_decay_epoch < -1:
            raise ValueError(f"lr_decay_epoch must be at least -1, got {self.lr_decay_epoch}")
        if self.lr <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("lr must be positive, momentum/weight_decay non-negative")
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        if not (0 <= self.p_r <= 1 and 0 <= self.p_m <= 1):
            raise ValueError("p_r and p_m must lie in [0, 1]")
        if self.l % self.m != 0:
            raise ValueError(f"m={self.m} must divide snippet length l={self.l}")
        if self.gcn_dim % 2 != 0:
            raise ValueError(f"gcn_dim must be even for the fusion bottleneck, got {self.gcn_dim}")
        if not 0 < self.val_fraction <= 0.5:
            raise ValueError(f"val_fraction must lie in (0, 0.5], got {self.val_fraction}")
        return self

    def decay_epoch(self):
        """Epoch at which the learning rate drops by 10x; 0 disables it."""
        if self.lr_decay_epoch == 0:
            return self.epochs + 1
        return self.epochs // 2 if self.lr_decay_epoch < 0 else self.lr_decay_epoch


# Each TrainConfig field's type; the annotations are strings under
# ``from __future__ import annotations``.
CONFIG_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
                for f in fields(TrainConfig)}


@dataclass
class Model:
    enc_snip: encoder.EncoderParams
    enc_frame: encoder.EncoderParams
    gcn_inter: tgraph.GcnParams
    gcn_intra: tgraph.GcnParams
    proj_inter: contrast.ProjectionParams
    proj_intra: contrast.ProjectionParams
    order: orderhead.OrderHeadParams

    def named_params(self):
        """Every parameter tensor as "block.leaf", in field order."""
        return {f"{block.name}.{leaf.name}": getattr(getattr(self, block.name), leaf.name)
                for block in fields(self) for leaf in fields(getattr(self, block.name))}


@dataclass(frozen=True)
class Checkpoint:
    params: dict
    momentum: dict
    epoch: int
    config: TrainConfig
    best_val_loss: float = float("inf")

    @cached_property
    def encoded(self):
        """This checkpoint's arrays.bin, encoded at its first save for every save."""
        return blobio.encode(self.params, self.momentum, meta={
            "kind": "checkpoint", "epoch": self.epoch, "best_val_loss": self.best_val_loss,
            "config": vars(self.config)})


class FlatParams:
    """``named`` (name -> Tensor) parameters and a copy of their ``momentum``
    as two contiguous float64 vectors, weights (``[:decayed]``) before biases.
    Each tensor's ``.data`` becomes a view into ``params``: writers go in place.
    ``grads`` is the one flat gradient buffer, ``grad_views`` its per-tensor
    views in ``tensors`` order."""

    def __init__(self, named, momentum):
        biases = {k for k in named if k.rsplit(".", 1)[-1].startswith("b")}
        order = sorted(named, key=biases.__contains__)  # stable: weights, then biases
        ends = dict(zip(order, np.cumsum([named[k].data.size for k in order]).tolist()))
        self.layout = {k: (ends[k] - t.data.size, ends[k], t.data.shape) for k, t in named.items()}
        self.tensors = [named[k] for k in order]
        self.params = np.concatenate([t.data for t in self.tensors], axis=None)
        self.momentum = np.concatenate([momentum[k] for k in order], axis=None)
        self.decayed = sum(named[k].data.size for k in named if k not in biases)
        self.grads = np.empty_like(self.params)
        self.grad_views = list(map(self.views(self.grads).get, order))
        for k, view in self.views(self.params).items():
            named[k].data = view

    def views(self, vector):
        """A flat vector's per-parameter views, in named_params() order."""
        return {k: vector[a:b].reshape(shape) for k, (a, b, shape) in self.layout.items()}


@dataclass
class SampleResult:
    """Per-sample results of one batch through ``forward_sample``."""

    loss: dc.Tensor          # (B,) joint loss of each sample
    graph_loss: np.ndarray   # (B,)
    order_loss: np.ndarray   # (B,)
    correct: np.ndarray      # (B,) bool, order predicted right


@dataclass
class Draws:
    """A batch's randomness: permutation ids and the drawn view-1
    (adjacency, feature mask) pairs of its inter and intra graphs, each
    None when its branch does not run."""

    perm_ids: np.ndarray  # (B,)
    inter: tuple          # ((B, n, n), (B, 1, F))
    intra: tuple = None   # ((B, n, m, m), (B, n, 1, F))


def build_model(config: TrainConfig, channels=1):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))
    f, f_out = config.feature_dim, config.gcn_dim

    def enc(clip_frames):
        return encoder.EncoderParams(*dc.init_linear(
            rng, encoder.pooled_dim(clip_frames, channels), f, gain=1.0))

    return Model(
        enc_snip=enc(config.l),
        enc_frame=enc(config.l // config.m),
        gcn_inter=tgraph.GcnParams(dc.init_linear(rng, f, f_out, bias=False)),
        gcn_intra=tgraph.GcnParams(dc.init_linear(rng, f, f_out, bias=False)),
        proj_inter=contrast.init_projection(rng, f_out),
        proj_intra=contrast.init_projection(rng, f_out),
        order=orderhead.init_order_head(rng, config.n, f_out),
    )


def video_statistics(videos, config: TrainConfig):
    """Clip statistics of each video's n snippets, (V, n, pooled_dim).

    Snippet positions take no randomness, so a run computes these once per
    video; reshaped to (V, n, m, -1) they are the frame-sets' statistics.
    """
    snippets = (sampler.sample_snippets(v, config.l, config.p, config.n) for v in videos)
    return np.stack([encoder.clip_statistics(s) for s in snippets])


def draw_batch(config: TrainConfig, rngs, permutation_ids=None):
    """Draw a batch's randomness before its forward pass.

    Sample i draws from ``rngs[i]`` (one generator repeated when the batch
    shares a stream): its permutation id unless ``permutation_ids`` gives
    it, then, in one call, the coins of its inter graph's view 1 and, when
    the intra branch runs, of each snippet's intra graph's view 1. With
    p_r = p_m = 0 no coins are drawn, and every edge and dim is kept. Only a
    branch that runs gets its views built, but the inter coins are always
    drawn; the inter (intra) branch runs when lambda_g and beta (alpha) are nonzero.
    """
    b, n, m = len(rngs), config.n, config.m
    graphs = config.lambda_g != 0
    inter_size = tgraph.coin_count(n, config.feature_dim)
    intra_size = tgraph.coin_count(m, config.feature_dim) if graphs and config.alpha != 0 else 0
    ids = np.empty(b, dtype=np.int64)
    coins = np.zeros((b, inter_size + n * intra_size))
    for i, rng in enumerate(rngs):
        ids[i] = (rng.integers(sampler.num_permutations(n)) if permutation_ids is None
                  else permutation_ids[i])
        if config.p_r != 0.0 or config.p_m != 0.0:
            coins[i] = rng.random(coins.shape[1])
    inter = (tgraph.view_from_coins(coins[:, :inter_size], n, config.p_r, config.p_m)
             if graphs and config.beta != 0 else None)
    intra = (tgraph.view_from_coins(coins[:, inter_size:].reshape(b, n, -1), m,
                                    config.p_r, config.p_m) if intra_size else None)
    return Draws(perm_ids=ids, inter=inter, intra=intra)


def _graph_branch(feats, view, gcn, proj, tau):
    """GCN embedding of the chain graphs over ``feats`` (..., N, F), and
    each graph's contrastive loss between its drawn view 1, ``view`` =
    (adjacency, mask), and the clean graph as view 2; without a view the
    losses are zeros. Serves the inter graph of snippets and the intra
    graphs of frame-sets alike."""
    graph = tgraph.build_chain_graph(feats)
    clean = tgraph.gcn_forward(graph, gcn)
    if view is None:
        return clean, dc.Tensor(np.zeros(clean.shape[:-2]))
    drawn = tgraph.gcn_forward(tgraph.apply_view(graph, *view), gcn)
    return clean, contrast.graph_loss(drawn, clean, tau, proj)


def forward_sample(model: Model, config: TrainConfig, stats, draws: Draws):
    """Per-sample losses and predictions of a batch of videos, on one tape.

    ``stats`` is (B, n, pooled_dim), rows of ``video_statistics``;
    ``draws`` comes from ``draw_batch``. One video is the batch of one. A
    graph branch runs exactly when ``draws`` holds its view.
    """
    b, n = stats.shape[0], config.n
    feats = encoder.encode(stats, model.enc_snip)  # (B, n, F)
    v_embed, j_graph = _graph_branch(feats, draws.inter, model.gcn_inter, model.proj_inter,
                                     config.tau)  # J_g stays this zero without a view
    if draws.inter is not None or draws.intra is not None:
        intra_losses = dc.Tensor(np.zeros((b, 0)))
        if draws.intra is not None:
            frame_feats = encoder.encode(stats.reshape(b, n, config.m, -1), model.enc_frame)
            _, intra_losses = _graph_branch(frame_feats, draws.intra, model.gcn_intra,
                                            model.proj_intra, config.tau)  # (B, n)
        j_graph = contrast.total_graph_loss(intra_losses, j_graph, config.alpha, config.beta)

    pred, j_order = orderhead.order_head_forward(v_embed, draws.perm_ids, model.order)
    loss = orderhead.total_loss(j_graph, j_order, config.lambda_g, config.lambda_o)
    return SampleResult(
        loss=loss,
        graph_loss=j_graph.data,
        order_loss=j_order.data,
        correct=pred.predicted_id == draws.perm_ids,
    )


def sgd_step(flat, grads, lr, momentum, weight_decay):
    """Classical momentum in place on ``flat``, given the flat ``grads`` (which
    it overwrites): v = mu*v + g + wd*p; p -= lr*v; biases skip decay. A
    non-finite gradient aborts the step before anything changes."""
    if not np.isfinite(grads).all():
        bad = next(k for k, g in flat.views(grads).items() if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient for {bad!r}; step aborted")
    if weight_decay:
        grads[:flat.decayed] += weight_decay * flat.params[:flat.decayed]
    flat.momentum *= momentum
    flat.momentum += grads
    flat.params -= lr * flat.momentum


def split_train_val(manifest, config: TrainConfig):
    """Deterministic split by seeded hash of the file name."""
    train_idx, val_idx = [], []
    bucket_count = round(1.0 / config.val_fraction)  # at least 2: val_fraction <= 0.5
    for i, entry in enumerate(manifest["videos"]):
        digest = hashlib.sha256(f"{config.seed}:{entry['file']}".encode()).digest()
        bucket = int.from_bytes(digest[:4], "little") % bucket_count
        (val_idx if bucket == 0 else train_idx).append(i)
    if not train_idx or not val_idx:
        raise ValueError("split produced an empty train or validation set")
    return train_idx, val_idx


def _epoch_rng(seed, tag, epoch):
    return np.random.default_rng(np.random.SeedSequence((seed, tag, epoch)))


def val_permutation_id(seed, video_index, n):
    return int(_epoch_rng(seed, 5, video_index).integers(sampler.num_permutations(n)))


def validation_draws(config, indices):
    """The draws of the validation videos ``indices`` as one batch. Each
    video draws from its own (seed, idx) generators, so the draws depend
    on no epoch: a run builds them once."""
    return draw_batch(config, [_epoch_rng(config.seed, 6, idx) for idx in indices],
                      [val_permutation_id(config.seed, idx, config.n) for idx in indices])


def evaluate(model, config, stats, draws):
    """Mean loss and order accuracy of one ``forward_sample`` over ``stats`` and ``draws``."""
    res = forward_sample(model, config, stats, draws)
    return res.loss.data.mean(), res.correct.mean()


def save_checkpoint(ckpt: Checkpoint, path):
    blobio.save_arrays(path, ckpt.encoded)


def load_checkpoint(path):
    params, momentum, meta = blobio.load_arrays(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint directory")
    if missing := [k for k in ("epoch", "config", "best_val_loss") if k not in meta]:
        raise ValueError(f"{path}: checkpoint meta lacks {missing[0]!r}")
    unknown = set(meta["config"]) - CONFIG_TYPES.keys()
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    config = TrainConfig(**meta["config"]).validate()
    return Checkpoint(params=params, momentum=momentum, epoch=int(meta["epoch"]),
                      config=config, best_val_loss=float(meta["best_val_loss"]))


def restore_model(ckpt: Checkpoint, channels=1):
    model = build_model(ckpt.config, channels)
    named = model.named_params()
    if set(named) != set(ckpt.params):
        raise ValueError("checkpoint parameter names do not match this configuration")
    for name, tensor in named.items():
        if tensor.data.shape != ckpt.params[name].shape:
            raise ValueError(f"shape mismatch for {name!r} while restoring checkpoint")
        tensor.data = ckpt.params[name].copy()
    return model


def _start(config, resume_from):
    """Everything a run needs before its first epoch: (model, the
    Checkpoint it continues from, the videos' statistics, train and
    validation indices). A fresh run continues epoch -1, with zero momentum
    and no best validation loss; a resumed one continues ``resume_from``."""
    config.validate()
    manifest, videos = sampler.load_dataset(config.data_dir)
    channels = videos[0].channels
    train_idx, val_idx = split_train_val(manifest, config)

    if resume_from is None:
        model = build_model(config, channels)
        params = {k: t.data for k, t in model.named_params().items()}
        start = Checkpoint(params, {k: np.zeros_like(v) for k, v in params.items()}, -1, config)
    else:
        start = load_checkpoint(resume_from)
        requested = vars(config)
        if diff := [f"{k}: {v!r} != {requested[k]!r}"
                    for k, v in vars(start.config).items() if v != requested[k]]:
            raise ValueError("resume checkpoint was trained with a different config: "
                             + ", ".join(diff))
        model = restore_model(start, channels)
    stats = video_statistics(videos, config)
    return model, start, stats, train_idx, val_idx


def _resume_source(resume_from):
    """The checkpoint directory a resumed run continues: ``resume_from``, or,
    when no save finished in it (a crash in its first save), the best/
    beside it if one was saved, else None to start afresh; says which on stderr."""
    if not blobio.holds_no_save(resume_from):
        return resume_from  # load_checkpoint refuses a missing or damaged one
    best = Path(resume_from).parent / "best"
    source = best if (best / blobio.FILE_NAME).is_file() else None
    print(f"{resume_from} holds no checkpoint; "
          + (f"resuming from {best}" if source else "starting afresh"), file=sys.stderr)
    return source


def _train_epoch(model, flat, config, stats, train_idx, epoch):
    """One epoch of SGD over ``train_idx``; returns the means of the joint,
    graph and order losses and the order accuracy."""
    lr = config.lr * (0.1 if epoch >= config.decay_epoch() else 1.0)
    rng = _epoch_rng(config.seed, 1, epoch)
    order = np.asarray(train_idx)[rng.permutation(len(train_idx))]
    sums = np.zeros(3)
    correct = 0
    for batch_start in range(0, len(order), config.batch_size):
        batch = order[batch_start:batch_start + config.batch_size]
        draws = draw_batch(config, [rng] * len(batch))
        res = forward_sample(model, config, stats[batch], draws)
        dc.grad(dc.tsum(res.loss), flat.tensors, flat.grad_views)
        flat.grads /= len(batch)
        sgd_step(flat, flat.grads, lr, config.momentum, config.weight_decay)
        sums += (res.loss.data.sum(), res.graph_loss.sum(), res.order_loss.sum())
        correct += int(res.correct.sum())
    return (*(sums / len(train_idx)), correct / len(train_idx))


def _persist(out_dir, log, row, ckpt, improved):
    """The one writer of an epoch's results, in this order: ``log`` of its
    row, then, under ``out_dir`` when it is set, the row appended to
    metrics.csv, best/ when the epoch improved, and last/."""
    if log:
        log(row)
    if out_dir:
        write_metrics(out_dir / "metrics.csv", [row])
        if improved:
            save_checkpoint(ckpt, out_dir / "best")
        save_checkpoint(ckpt, out_dir / "last")


def train(config: TrainConfig, resume_from=None, log=None):
    """Run the full loop; returns (best Checkpoint, metric rows).

    Writes metrics.csv, one row appended per epoch, plus best/ and last/
    checkpoints under out_dir when it is set. ``resume_from`` continues a
    saved last/ checkpoint, or the best/ beside a last/ that no save
    finished in, or starts afresh when neither was saved; metrics.csv keeps
    its complete rows up to that checkpoint's epoch. When no later epoch
    improves the validation loss, the best/ saved under out_dir is returned
    (resume refuses any other config, so that is where this run saved it),
    or, without an out_dir, the best/ beside ``resume_from``.
    """
    if resume_from is not None:
        resume_from = _resume_source(resume_from)
    model, last, stats, train_idx, val_idx = _start(config, resume_from)
    flat = FlatParams(model.named_params(), last.momentum)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:  # last/ exists from here on, so a run that dies before its first save resumes
        (out_dir / "last").mkdir(parents=True, exist_ok=True)
        path = out_dir / "metrics.csv"
        if path.exists():  # once per run: keep the header and the rows up to last's epoch
            data = path.read_bytes()  # a crash mid-row leaves a partial line; drop it
            lines = data[:data.rfind(b"\n") + 1].splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:1] + [line for line in lines[1:]
                                                   if int(line.split(b",", 1)[0]) <= last.epoch]))
    val_stats, val_draws = stats[val_idx], validation_draws(config, val_idx)
    rows, best = [], None
    for epoch in range(last.epoch + 1, config.epochs):
        train_means = _train_epoch(model, flat, config, stats, train_idx, epoch)
        val_loss, val_acc = evaluate(model, config, val_stats, val_draws)
        rows.append(dict(zip(METRIC_FIELDS, (epoch, *train_means, val_acc, val_loss))))
        improved = val_loss < last.best_val_loss
        last = Checkpoint(flat.views(flat.params.copy()), flat.views(flat.momentum.copy()),
                          epoch, config, val_loss if improved else last.best_val_loss)
        best = last if improved else best
        _persist(out_dir, log, rows[-1], last, improved)

    if best is None:
        best = last if resume_from is None else load_checkpoint(
            (out_dir or Path(resume_from).parent) / "best")
    return best, rows


METRIC_FIELDS = ("epoch", "total_loss", "graph_loss", "order_loss",
                 "train_acc", "val_acc", "val_loss")


def metrics_line(row):
    """The console line of one epoch's metrics row, every field named."""
    return f"epoch {row['epoch']:4d}  " + "  ".join(
        f"{k} {row[k]:.4f}" for k in METRIC_FIELDS if k != "epoch")


def write_metrics(path, rows):
    """Append ``rows`` to the metrics CSV at ``path``, headed by
    METRIC_FIELDS when the file is new or empty."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(METRIC_FIELDS)
        writer.writerows([row[k] for k in METRIC_FIELDS] for row in rows)
