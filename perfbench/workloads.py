"""The benchmark workloads: inputs from a seed, timed set-up, one cycle of
work, output checks and the metrics a user sees.

Each workload is a closed loop: one caller in one process issues the next
operation only after the previous one returned. A cycle is what a user does
in one session: the set-up (dataset load and model build, or checkpoint load
and restore), then the work. Operations are training epochs, ``eval_order``
passes and ``retrieve`` calls; each is checked and counted in a ``Ledger``,
so a failure shows in ``ops_failed_ratio``.

An operation fails when it raises, yields a non-finite value, breaks an
invariant the program promises (bit-determinism across repeated calls,
total loss = graph + order loss, exact top-k by cosine distance), or
leaves the tolerance below around the reference values recorded for its
seed in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tcgl import evalkit, sampler, trainer

from . import stats

# Tolerances against the recorded reference. Losses may drift by float
# reassociation only; an accuracy may differ by one flipped prediction.
LOSS_RTOL = 1e-6
LOSS_ATOL = 1e-12
# Slack when checking that retrieve returned the k nearest rows.
DIST_ATOL = 1e-12
KS = (1, 5, 10, 20, 50)
# eval-retrieve splits its eval pass and its queries into this many chunks
# and alternates them, so that machine noise lands on both alike.
CHUNKS = 20
LOSS_KEYS = ("total_loss", "graph_loss", "order_loss", "val_loss")


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Expect:
    """What a cycle's outputs must equal: the reference recorded for this
    seed (None if the seed has none) and the first cycle of this run."""

    reference: object = None
    first: object = None


@dataclass
class Cycle:
    """One cycle of a workload: its set-up, its work and what they took."""

    setup_s: object        # seconds of set-up, None if it never finished
    setup_totals: dict     # traced span name -> total seconds when set-up ended
    timings: dict          # name -> list of samples
    samples_trained: int   # samples that went through backward
    samples_forward: int   # videos that went through a forward pass
    outputs: object


def _quiet(tracer):
    """Keep harness checks out of every span when tracing."""
    return tracer.excluded() if tracer is not None else contextlib.nullcontext()


def _close(a, b, rtol, atol):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(values, p):
    return stats.percentile(values, p) if values else float("nan")


def _span_totals(tracer):
    if tracer is None:
        return {}
    with tracer.excluded():
        return {name: st.total_s for name, st in tracer.stats.items()}


@contextlib.contextmanager
def _on_return(module, name, callback):
    """Call ``callback()`` each time ``module.name`` returns."""
    original = getattr(module, name)

    def marked(*args, **kwargs):
        out = original(*args, **kwargs)
        callback()
        return out

    setattr(module, name, marked)
    try:
        yield
    finally:
        setattr(module, name, original)


class TrainWorkload:
    """``trainer.train`` on a 200-video dataset, checkpoints written each epoch."""

    num_videos = 200
    num_classes = 10

    def __init__(self, name, why, graph_weight, epochs):
        self.name = name
        self.why = why
        self.graph_weight = graph_weight  # alpha = beta
        self.epochs = epochs              # per train() call

    def config(self, data_dir, out_dir):
        return trainer.TrainConfig(
            data_dir=str(data_dir), out_dir=str(out_dir), epochs=self.epochs,
            alpha=self.graph_weight, beta=self.graph_weight,
        ).validate()

    def generate(self, work_dir, seed):
        data_dir = Path(work_dir) / "data"
        sampler.generate_dataset(data_dir, self.num_videos, self.num_classes, seed)
        config = self.config(data_dir, Path(work_dir) / "run")
        manifest, _ = sampler.load_dataset(data_dir)
        train_idx, val_idx = trainer.split_train_val(manifest, config)
        return {"config": config, "n_train": len(train_idx), "n_val": len(val_idx)}

    def cycle(self, inputs, ledger, expect, tracer=None):
        """One ``train`` call. Its set-up (dataset load, frame check, split,
        model build) ends when ``trainer.build_model`` returns; epoch
        boundaries come from its ``log`` callback after that."""
        ready, marks, rows = [], [], []
        setup_totals = {}

        def set_up():
            ready.append(time.perf_counter())
            setup_totals.update(_span_totals(tracer))

        def log(row):
            now = time.perf_counter()
            if tracer is not None and "trainer.sgd_step" in tracer.last_end:
                tracer.count("trainer.validate_s", now - tracer.last_end["trainer.sgd_step"])
            marks.append(now)
            rows.append(dict(row))

        error = None
        start = time.perf_counter()
        with _on_return(trainer, "build_model", set_up):
            try:
                trainer.train(inputs["config"], log=log)
            except Exception as exc:  # a raising call fails its epochs, the run goes on
                error = exc
        end = time.perf_counter()
        if error is None and not ready:
            raise RuntimeError("trainer.train did not call trainer.build_model, so its "
                               "set-up cannot be told from its epochs")

        with _quiet(tracer):
            self._check(rows, error, inputs, ledger, expect)
        epochs = [float(d) for d in np.diff(ready[:1] + marks)]
        return Cycle(
            setup_s=ready[0] - start if ready else None,
            setup_totals=setup_totals,
            timings={"epoch_s": epochs,
                     "samples_per_s": ([inputs["n_train"] * len(rows) / (end - ready[0])]
                                       if error is None else [])},
            samples_trained=inputs["n_train"] * len(rows),
            samples_forward=(inputs["n_train"] + inputs["n_val"]) * len(rows),
            outputs=rows,
        )

    def _check(self, rows, error, inputs, ledger, expect):
        results = [self.check_row(i, row, inputs, expect) for i, row in enumerate(rows)]
        if error is not None:
            reason = f"train raised {error!r}"
            if len(rows) == self.epochs:  # the last epoch's checkpoint write failed
                results[-1] = reason
            results += [reason] * (self.epochs - len(rows))
        for reason in results:
            ledger.record(reason is None, reason)
        if expect.first is None and error is None:
            expect.first = rows

    def check_row(self, i, row, inputs, expect):
        """None if epoch ``i``'s metrics row is right, else the reason."""
        values = [row[k] for k in LOSS_KEYS + ("train_acc", "val_acc")]
        if not all(math.isfinite(v) for v in values):
            return f"epoch {i}: non-finite metrics {row}"
        if row["epoch"] != i or not all(0.0 <= row[k] <= 1.0 for k in ("train_acc", "val_acc")):
            return f"epoch {i}: malformed row {row}"
        if not _close(row["total_loss"], row["graph_loss"] + row["order_loss"], 1e-9, 1e-12):
            return f"epoch {i}: total_loss != graph_loss + order_loss"
        if self.graph_weight == 0 and row["graph_loss"] != 0.0:
            return f"epoch {i}: graph_loss {row['graph_loss']} with the graph branch off"
        if expect.first is not None and i < len(expect.first) and row != expect.first[i]:
            return f"epoch {i}: differs from the same epoch of an earlier call"
        if expect.reference is not None and i < len(expect.reference):
            ref = expect.reference[i]
            for k in LOSS_KEYS:
                if not _close(row[k], ref[k], LOSS_RTOL, LOSS_ATOL):
                    return f"epoch {i}: {k} {row[k]!r} vs reference {ref[k]!r}"
            for k, n in (("train_acc", inputs["n_train"]), ("val_acc", inputs["n_val"])):
                if abs(row[k] - ref[k]) > 1.0 / n + 1e-12:
                    return f"epoch {i}: {k} {row[k]!r} vs reference {ref[k]!r}"
        return None

    def summarize(self, cycles):
        """Samples per second of each call after its set-up, and epoch
        times pooled across calls."""
        epochs = [s for c in cycles for s in c.timings["epoch_s"]]
        rates = [r for c in cycles for r in c.timings["samples_per_s"]]
        return {
            "train.samples_per_s": (_median(rates), "1/s", len(rates)),
            "train.samples_per_s.p10": (_percentile(rates, 10), "1/s", len(rates)),
            "train.epoch_s.p50": (_median(epochs), "s", len(epochs)),
            "train.epoch_s.p90": (_percentile(epochs, 90), "s", len(epochs)),
        }

    def end_to_end(self, summary):
        return {"throughput_per_s.p10": summary["train.samples_per_s.p10"][0],
                "latency_s.p90": summary["train.epoch_s.p90"][0]}


class EvalWorkload:
    """Checkpoint load, ``eval_order`` over every video, gallery, top-k retrieval."""

    name = "eval-retrieve"
    why = ("forward-only: checkpoint read, order evaluation over 1000 videos, "
           "gallery build and top-k retrieval; no backward pass, no writes")
    num_videos = 1000
    num_classes = 10
    val_fraction = 0.5

    def config(self, data_dir):
        return trainer.TrainConfig(data_dir=str(data_dir),
                                   val_fraction=self.val_fraction).validate()

    def generate(self, work_dir, seed):
        """Dataset plus a default-config checkpoint of a freshly built model."""
        data_dir = Path(work_dir) / "data"
        sampler.generate_dataset(data_dir, self.num_videos, self.num_classes, seed)
        config = self.config(data_dir)
        params = {k: t.data.copy() for k, t in trainer.build_model(config).named_params().items()}
        ckpt = trainer.Checkpoint(params=params,
                                  momentum={k: np.zeros_like(v) for k, v in params.items()},
                                  epoch=0, config=config)
        trainer.save_checkpoint(ckpt, Path(work_dir) / "ckpt")
        return {"data_dir": data_dir, "ckpt_dir": Path(work_dir) / "ckpt"}

    def cycle(self, inputs, ledger, expect, tracer=None):
        """Set-up (dataset load, checkpoint load, model restore), gallery
        build, then one eval pass and one retrieval sweep, interleaved chunk
        by chunk so both sample the whole cycle's time."""
        start = time.perf_counter()
        manifest, videos = sampler.load_dataset(inputs["data_dir"])
        ckpt = trainer.load_checkpoint(inputs["ckpt_dir"])
        model = trainer.restore_model(ckpt, videos[0].channels)
        setup_s = time.perf_counter() - start
        setup_totals = _span_totals(tracer)
        config = ckpt.config
        train_idx, val_idx = trainer.split_train_val(manifest, config)

        start = time.perf_counter()
        try:
            gallery = evalkit.build_gallery([videos[i] for i in train_idx], model, config)
            queries = evalkit.build_gallery([videos[i] for i in val_idx], model, config,
                                            split="test")
            gallery_error, gallery_rates = None, [
                len(videos) / (time.perf_counter() - start)]
        except Exception as exc:  # without a gallery every retrieve call fails
            gallery_error, gallery_rates = exc, []

        correct, eval_error, eval_rates, query_s = 0, None, [], []
        verdicts, hits = {k: [] for k in KS}, dict.fromkeys(KS, 0)
        for video_ids, query_ids in zip(np.array_split(np.arange(len(videos)), CHUNKS),
                                        np.array_split(np.arange(len(val_idx)), CHUNKS)):
            start = time.perf_counter()
            try:
                acc = evalkit.eval_order(ckpt, videos, indices=video_ids.tolist())
                eval_rates.append(len(video_ids) / (time.perf_counter() - start))
                correct += round(acc * len(video_ids))
            except Exception as exc:  # a raising chunk fails the pass, the run goes on
                eval_error = exc
            if gallery_error is None:
                self._retrieve(queries, gallery, query_ids, query_s, verdicts, hits, tracer)

        with _quiet(tracer):
            acc = correct / len(videos) if eval_error is None else float("nan")
            ledger.record(*self.check_accuracy(acc, eval_error, expect))
            table = {k: hits[k] / len(val_idx) for k in KS}
            for k in KS:
                bad = (f"build_gallery raised {gallery_error!r}" if gallery_error is not None
                       else self.check_table(k, table[k], len(val_idx), expect))
                for verdict in verdicts[k] or [bad] * len(val_idx):
                    ledger.record(verdict is None and bad is None, verdict or bad)
            outputs = {"eval_acc": acc, "retrieval": table}
            if expect.first is None and eval_error is None and gallery_error is None:
                expect.first = outputs
        return Cycle(
            setup_s=setup_s,
            setup_totals=setup_totals,
            timings={"eval_videos_per_s": eval_rates, "gallery_videos_per_s": gallery_rates,
                     "query_s": query_s},
            samples_trained=0,
            samples_forward=2 * len(videos),
            outputs=outputs,
        )

    @staticmethod
    def _retrieve(queries, gallery, query_ids, query_s, verdicts, hits, tracer):
        """Time ``retrieve`` for each query and k; check it against cosine ranking."""
        for q in query_ids:
            row, label = queries.embeddings[q], queries.labels[q]
            with _quiet(tracer):
                dists = cosine_distances(row, gallery.embeddings)
            for k in KS:
                start = time.perf_counter()
                try:
                    idx, error = evalkit.retrieve(row, gallery, k), None
                except Exception as exc:  # a raising call fails, the run goes on
                    idx, error = None, exc
                query_s.append(time.perf_counter() - start)
                with _quiet(tracer):
                    verdicts[k].append(f"retrieve raised {error!r}" if error is not None
                                       else check_topk(idx, dists, k))
                    hits[k] += error is None and bool(label in gallery.labels[idx])

    def check_accuracy(self, acc, error, expect):
        if error is not None:
            return False, f"eval_order raised {error!r}"
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
            return False, f"eval accuracy {acc!r} out of range"
        if expect.first is not None and acc != expect.first["eval_acc"]:
            return False, "eval accuracy differs from an earlier pass"
        ref = expect.reference
        if ref is not None and abs(acc - ref["eval_acc"]) > 1.0 / self.num_videos + 1e-12:
            return False, f"eval accuracy {acc!r} vs reference {ref['eval_acc']!r}"
        return True, ""

    def check_table(self, k, value, n_queries, expect):
        """None if top-k accuracy agrees with earlier cycles and the reference."""
        if expect.first is not None and value != expect.first["retrieval"][k]:
            return f"top-{k} accuracy differs from an earlier cycle"
        ref = expect.reference
        if ref is not None and abs(value - ref["retrieval"][str(k)]) > 1.0 / n_queries + 1e-12:
            return f"top-{k} accuracy {value!r} vs reference {ref['retrieval'][str(k)]!r}"
        return None

    def summarize(self, cycles):
        evals = [r for c in cycles for r in c.timings["eval_videos_per_s"]]
        galleries = [r for c in cycles for r in c.timings["gallery_videos_per_s"]]
        queries = [s for c in cycles for s in c.timings["query_s"]]
        out = {
            "eval.videos_per_s": (_median(evals), "1/s", len(evals)),
            "eval.videos_per_s.p10": (_percentile(evals, 10), "1/s", len(evals)),
            "gallery.videos_per_s": (_median(galleries), "1/s", len(galleries)),
            "retrieve.query_s.p50": (_median(queries), "s", len(queries)),
            "retrieve.query_s.p90": (_percentile(queries, 90), "s", len(queries)),
        }
        tail = stats.p99(queries)
        if tail is not None:
            out["retrieve.query_s.p99"] = (tail, "s", len(queries))
        return out

    def end_to_end(self, summary):
        return {"throughput_per_s.p10": summary["eval.videos_per_s.p10"][0],
                "latency_s.p90": summary["retrieve.query_s.p90"][0]}


def cosine_distances(query, rows):
    """1 - cos(query, row) for every gallery row, computed independently."""
    q = query / np.sqrt(np.dot(query, query))
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return 1.0 - np.einsum("ij,j->i", rows, q) / np.maximum(norms, 1e-12)


def check_topk(idx, dists, k):
    """None if ``idx`` holds k distinct rows nearest by ``dists``, in order."""
    idx = np.asarray(idx)
    if idx.shape != (k,) or not np.issubdtype(idx.dtype, np.integer):
        return f"top-{k}: got shape {idx.shape} dtype {idx.dtype}"
    if len(set(idx.tolist())) != k or idx.min() < 0 or idx.max() >= dists.size:
        return f"top-{k}: indices repeat or fall outside the gallery"
    got = dists[idx]
    if np.any(np.diff(got) < -DIST_ATOL):
        return f"top-{k}: results not ordered by distance"
    if got[-1] > np.partition(dists, k - 1)[k - 1] + DIST_ATOL:
        return f"top-{k}: a nearer gallery row was left out"
    return None


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload(
            "train-joint",
            "default config, both branches (366 tape nodes per sample); the "
            "contrastive/graph path and backward dominate, checkpoints written each epoch",
            graph_weight=1.0, epochs=4),
        TrainWorkload(
            "train-order-only",
            "alpha=beta=0: contrast and intra graphs drop out (56 tape nodes per sample), "
            "so encoder, order head and per-epoch validation/checkpoint costs dominate",
            graph_weight=0.0, epochs=20),
        EvalWorkload(),
    )
}
