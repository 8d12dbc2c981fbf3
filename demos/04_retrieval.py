"""Video retrieval with the self-supervised embedding.

Trains briefly on a small dataset, embeds every video (encoder feature
of the middle snippet passed through the inter-graph GCN), then ranks
held-out queries against the training gallery by cosine distance and
compares against an untrained random-weight baseline.
"""

import tempfile
from dataclasses import replace

from tcgl import evalkit, sampler, trainer


def main():
    with tempfile.TemporaryDirectory(prefix="tcgl-demo-retrieval-") as data_dir:
        sampler.generate_dataset(data_dir, num_videos=60, num_classes=6, seed=7)

        config = trainer.TrainConfig(
            data_dir=data_dir, epochs=30, batch_size=8, seed=7,
            feature_dim=16, gcn_dim=16,
        ).validate()
        print("training a small model for the demo...")
        ckpt, _ = trainer.train(config)

        manifest, videos = sampler.load_dataset(data_dir)
        train_idx, val_idx = trainer.split_train_val(manifest, config)
        gallery_videos = [videos[i] for i in train_idx]
        query_videos = [videos[i] for i in val_idx]

        ks = (1, 3, 5)
        trained = trainer.restore_model(ckpt)
        t_gal = evalkit.build_gallery(gallery_videos, trained, config)
        t_qry = evalkit.build_gallery(query_videos, trained, config, split="test")

        random_model = trainer.build_model(replace(config, seed=99))
        r_gal = evalkit.build_gallery(gallery_videos, random_model, config)
        r_qry = evalkit.build_gallery(query_videos, random_model, config,
                                      split="test")

        print(f"\n{len(query_videos)} queries vs {len(gallery_videos)} gallery "
              f"videos, {manifest['num_classes']} classes")
        print(f"{'k':>3}  {'trained':>8}  {'random init':>11}")
        t_row = evalkit.retrieval_table(t_qry, t_gal, ks)
        r_row = evalkit.retrieval_table(r_qry, r_gal, ks)
        for k in ks:
            print(f"{k:>3}  {t_row[k]:>8.3f}  {r_row[k]:>11.3f}")


if __name__ == "__main__":
    main()
