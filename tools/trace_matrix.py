"""Digests of the trace matrix: one sha256 per training run.

A change meant to alter nothing must leave every digest as it was. The
matrix is the 3-epoch runs on the 200-video, 10-class, seed-7 dataset for
alpha = beta in {1, 0} x (p_r, p_m) in {(0.2, 0.1), (0, 0), (0, 0.3)}, plus
the 200-epoch default run. A digest covers the run's metrics rows (each
value's exact float), its metrics.csv bytes, and the epoch, best
validation loss, parameters and momentum of its best/ and last/
checkpoints. The checkpoints are hashed as loaded arrays, not as
arrays.bin bytes: their meta holds the run's paths, which differ between
checkouts.

Run it on each checkout, with that checkout's src on the path, and
compare the printed lines:

    PYTHONPATH=src python tools/trace_matrix.py
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from tcgl import sampler, trainer

MATRIX = {
    **{f"ab{ab:g}-pr{p_r:g}-pm{p_m:g}-e3": dict(alpha=ab, beta=ab, p_r=p_r, p_m=p_m, epochs=3)
       for ab in (1.0, 0.0) for p_r, p_m in ((0.2, 0.1), (0.0, 0.0), (0.0, 0.3))},
    "default-e200": {},
}


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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        sampler.generate_dataset(data, num_videos=200, num_classes=10, seed=7)
        for label, overrides in MATRIX.items():
            config = trainer.TrainConfig(data_dir=str(data), out_dir=str(Path(tmp) / label),
                                         seed=7, **overrides).validate()
            print(label, run_digest(config), flush=True)


if __name__ == "__main__":
    main()
