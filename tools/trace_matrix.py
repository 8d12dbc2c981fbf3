"""Digests of the trace matrix: one sha256 per training run.

A change meant to alter nothing must leave every digest as it was. The
matrix is the 3-epoch runs on the 200-video, 10-class, seed-7 dataset for
alpha = beta in {1, 0} x (p_r, p_m) in {(0.2, 0.1), (0, 0), (0, 0.3)}, the
intra-only (alpha = 1, beta = 0) and inter-only (alpha = 0, beta = 1) runs
at the default (p_r, p_m), which run one graph branch each, plus the
200-epoch default run. A digest covers the run's metrics rows (each
value's exact float), its metrics.csv bytes, and the epoch, best
validation loss, parameters and momentum of its best/ and last/
checkpoints. The checkpoints are hashed as loaded arrays, not as
arrays.bin bytes: their meta holds the run's paths, which differ between
checkouts.

One more line digests the eval path on the inputs perfbench's
eval-retrieve builds: a 1,000-video, 10-class, seed-1 dataset and a
freshly built default-config checkpoint with val_fraction 0.5. It covers
both galleries' embeddings and labels, the accuracy of each of the 20
``eval_order`` chunks, and the retrieval table for k in 1, 5, 10, 20, 50.

The last line digests the verification path: ``evalkit.verify_all(seed=0)``,
the report behind ``tcgl gradcheck``, as each check's name, verdict, and
measured and threshold values in hex.

Run it on each checkout, with that checkout's src on the path, and
compare the printed lines:

    PYTHONPATH=src python tools/trace_matrix.py
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from tcgl import evalkit, sampler, trainer

MATRIX = {
    **{f"ab{ab:g}-pr{p_r:g}-pm{p_m:g}-e3": dict(alpha=ab, beta=ab, p_r=p_r, p_m=p_m, epochs=3)
       for ab in (1.0, 0.0) for p_r, p_m in ((0.2, 0.1), (0.0, 0.0), (0.0, 0.3))},
    "a1-b0-e3": dict(alpha=1.0, beta=0.0, epochs=3),
    "a0-b1-e3": dict(alpha=0.0, beta=1.0, epochs=3),
    "default-e200": {},
}

EVAL_CHUNKS = 20  # eval_order calls per pass, as in perfbench's eval-retrieve
EVAL_KS = (1, 5, 10, 20, 50)


def run_digest(config):
    """Train ``config``, which must set ``out_dir``, and return the run's sha256."""
    _, rows = trainer.train(config)
    out = Path(config.out_dir)
    h = hashlib.sha256()
    h.update(repr([[(k, float(v).hex()) for k, v in row.items()] for row in rows]).encode())
    h.update((out / "metrics.csv").read_bytes())
    for name in ("best", "last"):
        ckpt = trainer.load_checkpoint(out / name)
        h.update(repr((name, ckpt.epoch, float(ckpt.best_val_loss).hex())).encode())
        for part in (ckpt.params, ckpt.momentum):
            for key in sorted(part):
                h.update(repr((key, part[key].dtype.str, part[key].shape)).encode())
                h.update(np.ascontiguousarray(part[key]).tobytes())
    return h.hexdigest()


def fresh_checkpoint(config):
    """A checkpoint of ``config``'s freshly built model, with zero momentum."""
    params = {k: t.data.copy() for k, t in trainer.build_model(config).named_params().items()}
    return trainer.Checkpoint(params=params, epoch=0, config=config,
                              momentum={k: np.zeros_like(v) for k, v in params.items()})


def eval_digest(data_dir, ckpt):
    """sha256 of the eval path over ``data_dir``, as perfbench's eval-retrieve runs it."""
    manifest, videos = sampler.load_dataset(data_dir)
    model = trainer.restore_model(ckpt, videos[0].channels)
    galleries = [evalkit.build_gallery([videos[i] for i in idx], model, ckpt.config)
                 for idx in trainer.split_train_val(manifest, ckpt.config)]
    h = hashlib.sha256()
    for gallery in galleries:
        h.update(gallery.embeddings.tobytes())
        h.update(gallery.labels.tobytes())
    accs = [evalkit.eval_order(ckpt, videos, indices=chunk.tolist())
            for chunk in np.array_split(np.arange(len(videos)), EVAL_CHUNKS)]
    table = evalkit.retrieval_table(galleries[1], galleries[0], EVAL_KS)
    h.update(repr([float(a).hex() for a in accs]).encode())
    h.update(repr([(k, float(table[k]).hex()) for k in EVAL_KS]).encode())
    return h.hexdigest()


def report_digest(report):
    """sha256 of a VerificationReport's checks: name, verdict, hex measured and threshold."""
    checks = [(c.name, c.passed, float(c.measured).hex(), float(c.threshold).hex())
              for c in report.checks]
    return hashlib.sha256(repr(checks).encode()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        sampler.generate_dataset(data, num_videos=200, num_classes=10, seed=7)
        for label, overrides in MATRIX.items():
            config = trainer.TrainConfig(data_dir=str(data), out_dir=str(Path(tmp) / label),
                                         seed=7, **overrides).validate()
            print(label, run_digest(config), flush=True)
        data = Path(tmp) / "eval-data"
        sampler.generate_dataset(data, num_videos=1000, num_classes=10, seed=1)
        config = trainer.TrainConfig(data_dir=str(data), val_fraction=0.5).validate()
        print("eval-retrieve-seed1", eval_digest(data, fresh_checkpoint(config)), flush=True)
    print("gradcheck-seed0", report_digest(evalkit.verify_all(seed=0)), flush=True)


if __name__ == "__main__":
    main()
