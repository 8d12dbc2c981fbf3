"""Train the joint objective on a small dataset and watch it learn.

Uses a reduced dataset and epoch budget so the demo finishes in well
under a minute; the full benchmark configuration lives in the CLI
defaults (``tcgl train --data-dir ...``).
"""

import tempfile

from tcgl import evalkit, sampler, trainer


def main():
    with tempfile.TemporaryDirectory(prefix="tcgl-demo-train-") as data_dir:
        sampler.generate_dataset(data_dir, num_videos=40, num_classes=5, seed=7)

        config = trainer.TrainConfig(
            data_dir=data_dir, epochs=20, batch_size=8, seed=7,
            feature_dim=16, gcn_dim=16,
        ).validate()
        print(f"training {config.epochs} epochs on 40 videos "
              f"(chance accuracy {evalkit.chance_level(config.n):.3f})\n")

        def log(row):
            if row["epoch"] % 5 == 0 or row["epoch"] == config.epochs - 1:
                print(trainer.metrics_line(row))

        ckpt, rows = trainer.train(config, log=log)
        print(f"\nbest validation loss {ckpt.best_val_loss:.4f} "
              f"at epoch {ckpt.epoch}")
        print(f"final train accuracy {rows[-1]['train_acc']:.3f}, "
              f"val accuracy {rows[-1]['val_acc']:.3f}")


if __name__ == "__main__":
    main()
