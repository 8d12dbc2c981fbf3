"""Training loop: optimizer, splits, checkpoints, determinism, resume."""

import os
import shutil
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import tcgl.diffcore as dc
from tcgl import blobio, contrast, encoder, sampler, tgraph, trainer

from conftest import small_config


def test_validate_rejects_bad_configs(tmp_path):
    with pytest.raises(ValueError):
        small_config(str(tmp_path), m=5).validate()  # 5 does not divide 16
    with pytest.raises(ValueError):
        small_config(str(tmp_path), gcn_dim=15).validate()
    with pytest.raises(ValueError):
        small_config(str(tmp_path), val_fraction=1.5).validate()
    with pytest.raises(ValueError):
        small_config(str(tmp_path), tau=0.0).validate()
    with pytest.raises(ValueError):
        small_config(str(tmp_path), epochs=0).validate()


@pytest.mark.parametrize("name, value", [
    ("epochs", 2.5), ("n", 3.0), ("seed", "7"), ("batch_size", True), ("tau", True),
    ("data_dir", 1), ("seed", -1), ("lr_decay_epoch", -2),
], ids=["epochs-2.5", "n-3.0", "seed-str", "batch_size-bool", "tau-bool", "data_dir-int",
        "seed-negative", "lr_decay_epoch-below-minus-one"])
def test_validate_refuses_a_value_of_the_wrong_type_or_range_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        trainer.TrainConfig(**{name: value}).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [f.name for f in fields(trainer.TrainConfig)
                                  if f.type == "float"])
def test_validate_refuses_a_non_finite_float_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        trainer.TrainConfig(**{name: value}).validate()


@pytest.mark.parametrize("value", [0.51, 0.6, 0.9])
def test_validate_refuses_a_val_fraction_above_one_half(value):
    # k = round(1 / val_fraction) buckets: above 1/2 every value would split as 1/2 does
    with pytest.raises(ValueError, match=rf"^val_fraction must lie in \(0, 0\.5\], got {value}"):
        trainer.TrainConfig(val_fraction=value).validate()
    trainer.TrainConfig(val_fraction=0.5).validate()


def test_load_checkpoint_refuses_a_val_fraction_above_one_half(tmp_path):
    meta = {"kind": "checkpoint", "epoch": 0, "best_val_loss": 1.0,
            "config": asdict(trainer.TrainConfig(val_fraction=0.9))}
    blobio.save_arrays(tmp_path / "ck", blobio.encode({}, {}, meta=meta))
    with pytest.raises(ValueError, match="val_fraction"):
        trainer.load_checkpoint(tmp_path / "ck")


def test_video_statistics_rows_equal_each_videos_clip_statistics(small_dataset):
    cfg = small_config(str(small_dataset))
    _, videos = sampler.load_dataset(small_dataset)
    stats = trainer.video_statistics(videos, cfg)
    assert stats.shape == (len(videos), cfg.n, encoder.pooled_dim(cfg.l, 1))
    for row, video in zip(stats, videos):
        want = encoder.clip_statistics(sampler.sample_snippets(video, cfg.l, cfg.p, cfg.n))
        assert row.tobytes() == want.tobytes()


def test_decay_epoch_semantics():
    cfg = trainer.TrainConfig(epochs=100)
    assert replace(cfg, lr_decay_epoch=0).decay_epoch() == 101
    assert replace(cfg, lr_decay_epoch=-1).decay_epoch() == 50
    assert replace(cfg, lr_decay_epoch=30).decay_epoch() == 30


def test_sgd_step_matches_hand_rolled_momentum():
    p = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    flat = trainer.FlatParams({"w": p}, {"w": np.zeros(2)})
    g1 = np.array([0.5, 0.5])
    g2 = np.array([-1.0, 0.25])
    lr, mu, wd = 0.1, 0.9, 0.01

    ref_p, ref_v = np.array([1.0, -2.0]), np.zeros(2)
    for g in (g1, g2):
        ref_v = mu * ref_v + (g + wd * ref_p)
        ref_p = ref_p - lr * ref_v

    trainer.sgd_step(flat, g1.copy(), lr, mu, wd)
    trainer.sgd_step(flat, g2.copy(), lr, mu, wd)
    assert np.allclose(p.data, ref_p, atol=1e-12)
    assert np.allclose(flat.momentum, ref_v, atol=1e-12)


def test_sgd_step_skips_weight_decay_for_biases():
    # the bias comes first by name, but the flat layout puts it after the weight
    b = dc.Tensor(np.array([10.0]), requires_grad=True)
    w = dc.Tensor(np.array([10.0]), requires_grad=True)
    flat = trainer.FlatParams({"head.b_out": b, "head.w_out": w},
                           {"head.b_out": np.zeros(1), "head.w_out": np.zeros(1)})
    trainer.sgd_step(flat, np.zeros(2), 0.1, 0.0, 1.0)
    # With decay active the bias would have shrunk; it must stay put.
    assert b.data[0] == pytest.approx(10.0)
    assert w.data[0] == pytest.approx(9.0)


def test_sgd_step_rejects_non_finite_gradients():
    # The NaN sits in the second parameter: the rejected step must not
    # have updated the first one or its momentum.
    params = {"a.weight": dc.Tensor(np.ones(2), requires_grad=True),
              "b.weight": dc.Tensor(np.ones(2), requires_grad=True)}
    flat = trainer.FlatParams(params, {"a.weight": np.full(2, 0.5), "b.weight": np.full(2, 0.25)})
    grads = np.concatenate([np.ones(2), [np.nan, 1.0]])

    def state():
        return {k: (t.data.tobytes(), v.tobytes())
                for (k, t), v in zip(params.items(), flat.views(flat.momentum).values())}

    before = state()
    with pytest.raises(FloatingPointError, match="b.weight"):
        trainer.sgd_step(flat, grads, 0.1, 0.9, 0.01)
    assert state() == before


def test_split_is_deterministic_partition(small_dataset):
    manifest, _ = sampler.load_dataset(small_dataset)
    cfg = small_config(str(small_dataset))
    a = trainer.split_train_val(manifest, cfg)
    b = trainer.split_train_val(manifest, cfg)
    assert a == b
    train_idx, val_idx = a
    assert sorted(train_idx + val_idx) == list(range(len(manifest["videos"])))
    assert train_idx and val_idx


def test_checkpoint_round_trip(tmp_path, small_dataset):
    cfg = small_config(str(small_dataset), epochs=1)
    model = trainer.build_model(cfg)
    named = model.named_params()
    ckpt = trainer.Checkpoint(
        params={k: t.data.copy() for k, t in named.items()},
        momentum={k: np.full_like(t.data, 0.25) for k, t in named.items()},
        epoch=3, config=cfg, best_val_loss=1.5)
    trainer.save_checkpoint(ckpt, tmp_path / "ck")
    loaded = trainer.load_checkpoint(tmp_path / "ck")
    assert loaded.epoch == 3
    assert loaded.best_val_loss == pytest.approx(1.5)
    assert loaded.config == cfg
    for k in named:
        assert np.array_equal(loaded.params[k], ckpt.params[k])
        assert np.array_equal(loaded.momentum[k], ckpt.momentum[k])
    restored = trainer.restore_model(loaded)
    for k, t in restored.named_params().items():
        assert np.array_equal(t.data, ckpt.params[k])


def _saved_checkpoint(tmp_path, cfg, edit_params=None, edit_momentum=None):
    params = {k: t.data.copy() for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    for edit, arrays in ((edit_params, params), (edit_momentum, momentum)):
        if edit:
            edit(arrays)
    trainer.save_checkpoint(trainer.Checkpoint(params=params, momentum=momentum, epoch=0,
                                               config=cfg), tmp_path / "ck")
    return tmp_path / "ck"


@pytest.mark.parametrize("edit, name", [
    (lambda m: m.pop("order.b_out"), "order.b_out"),
    # the flat momentum vector would take a transposed array's values in the wrong order
    (lambda m: m.update({"order.w_out": m["order.w_out"].T.copy()}), "order.w_out"),
    (lambda m: m.update({"order.extra": np.zeros(2)}), "order.extra"),
], ids=["missing-name", "transposed", "extra-name"])
def test_load_checkpoint_rejects_momentum_that_disagrees_with_params(tmp_path, small_dataset,
                                                                     edit, name):
    # a file holds one shape per name, so the save refuses such momentum and writes nothing
    cfg = small_config(str(small_dataset))
    with pytest.raises(ValueError, match=f"momentum.*{name!r}"):
        _saved_checkpoint(tmp_path, cfg, edit_momentum=edit)
    assert not (tmp_path / "ck").exists()


def test_load_checkpoint_refuses_a_non_finite_config(tmp_path, small_dataset):
    cfg = small_config(str(small_dataset))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    for name, value, message in (("tau", float("nan"), "tau must be finite"),
                                 ("n", 3.0, "n must be of type int, got 3.0")):
        ckpt = trainer.Checkpoint(params, params, 0, replace(cfg, **{name: value}))
        trainer.save_checkpoint(ckpt, tmp_path / name)
        with pytest.raises(ValueError, match=message):
            trainer.load_checkpoint(tmp_path / name)


def test_restore_model_rejects_a_transposed_weight_naming_it(tmp_path, small_dataset):
    cfg = small_config(str(small_dataset))

    def transpose(arrays):  # parameter and momentum alike, so that the checkpoint loads
        arrays["enc_frame.weight"] = arrays["enc_frame.weight"].T.copy()

    ckpt = trainer.load_checkpoint(_saved_checkpoint(tmp_path, cfg, transpose, transpose))
    assert ckpt.params["enc_frame.weight"].shape[0] != ckpt.params["enc_frame.weight"].shape[1]
    with pytest.raises(ValueError, match="enc_frame.weight"):
        trainer.restore_model(ckpt)


def test_load_checkpoint_rejects_non_checkpoint(tmp_path):
    from tcgl import blobio
    blobio.save_arrays(tmp_path / "g", blobio.encode({"x": np.ones(2)}, {"x": np.ones(2)},
                                                     meta={"kind": "gallery"}))
    with pytest.raises(ValueError):
        trainer.load_checkpoint(tmp_path / "g")


def test_training_is_bit_deterministic(small_dataset):
    cfg = small_config(str(small_dataset))
    ckpt_a, rows_a = trainer.train(cfg)
    ckpt_b, rows_b = trainer.train(cfg)
    assert rows_a == rows_b
    for k in ckpt_a.params:
        assert np.array_equal(ckpt_a.params[k], ckpt_b.params[k])
        assert np.array_equal(ckpt_a.momentum[k], ckpt_b.momentum[k])


def test_lr_decay_epoch_changes_the_trace_from_that_epoch_on(small_dataset):
    cfg = small_config(str(small_dataset), epochs=3)
    _, plain = trainer.train(cfg)
    _, decayed = trainer.train(replace(cfg, lr_decay_epoch=1))
    assert decayed[0] == plain[0]
    for d, p in zip(decayed[1:], plain[1:]):
        assert d["total_loss"] != p["total_loss"] and d["val_loss"] != p["val_loss"]


def test_train_builds_the_model_once_before_any_clip_statistics(tmp_path, monkeypatch,
                                                                small_dataset):
    # the benchmark's set-up time ends when build_model returns, so nothing
    # as costly as the clip statistics may run before it, fresh or resumed
    cfg = small_config(str(small_dataset), epochs=1, out_dir=str(tmp_path))
    real_build, real_stats = trainer.build_model, encoder.clip_statistics
    events = []

    def build(*args):
        model = real_build(*args)
        events.append("build")
        return model

    def stats(*args):
        events.append("stats")
        return real_stats(*args)

    monkeypatch.setattr(trainer, "build_model", build)
    monkeypatch.setattr(encoder, "clip_statistics", stats)
    for resume_from in (None, str(tmp_path / "last")):
        events.clear()
        trainer.train(cfg, resume_from=resume_from)
        assert events.count("build") == 1 and events[0] == "build"


def test_train_refuses_videos_too_short_for_the_snippets(tmp_path):
    # n * l + (n - 1) * p = 64 frames for the default n, l, p
    sampler.generate_dataset(tmp_path / "data", num_videos=20, num_classes=2, seed=3, frames=40)
    cfg = small_config(str(tmp_path / "data"), epochs=1)
    with pytest.raises(ValueError, match="video has 40 frames, .* needs at least 64"):
        trainer.train(cfg)


def test_two_epochs_on_two_channel_videos_train_and_resume(tmp_path):
    # the encoders' input width follows the videos' channel count, fresh and resumed
    sampler.generate_dataset(tmp_path / "data", num_videos=20, num_classes=2, seed=3, channels=2)
    cfg = small_config(str(tmp_path / "data"), out_dir=str(tmp_path / "out"))
    best, rows = trainer.train(cfg)
    assert [row["epoch"] for row in rows] == [0, 1]
    assert all(np.isfinite(row[k]) for row in rows for k in trainer.METRIC_FIELDS)
    for name, clip_frames in (("enc_snip", cfg.l), ("enc_frame", cfg.l // cfg.m)):
        assert best.params[f"{name}.weight"].shape == (encoder.pooled_dim(clip_frames, 2),
                                                       cfg.feature_dim)

    def crashing_log(row):
        if row["epoch"] == 1:
            raise Crash

    part = replace(cfg, out_dir=str(tmp_path / "part"))
    with pytest.raises(Crash):
        trainer.train(part, log=crashing_log)
    _, resumed = trainer.train(part, resume_from=str(tmp_path / "part" / "last"))
    assert resumed == rows[1:]


def test_parameters_alias_the_flat_vector_and_snapshots_do_not(tmp_path, monkeypatch,
                                                               small_dataset):
    # Fresh and resumed (from the fresh run's best/, epoch 1), every
    # parameter's .data is a view into the flat vector before and after each
    # step; the checkpoints a run hands out, its returned best among them,
    # keep their bytes while training goes on.
    cfg = small_config(str(small_dataset), epochs=4, out_dir=str(tmp_path))
    real_flat, real_step, real_persist = trainer.FlatParams, trainer.sgd_step, trainer._persist
    runs, steps, handed_out = [], [], []

    def flat_params(named, momentum):
        runs.append((named, real_flat(named, momentum)))
        return runs[-1][1]

    def step(flat, *args):
        named, run_flat = runs[-1]
        aliased = lambda: all(np.shares_memory(t.data, flat.params) for t in named.values())
        before = flat is run_flat and aliased()
        real_step(flat, *args)
        steps.append(before and aliased())

    def persist(out_dir, log, row, ckpt, improved):
        handed_out.append((ckpt, _arrays_bytes(ckpt)))
        real_persist(out_dir, log, row, ckpt, improved)

    monkeypatch.setattr(trainer, "FlatParams", flat_params)
    monkeypatch.setattr(trainer, "sgd_step", step)
    monkeypatch.setattr(trainer, "_persist", persist)
    best, rows = trainer.train(cfg)
    assert best.epoch == 1 and rows[-1]["epoch"] == 3
    assert any(ckpt is best for ckpt, _ in handed_out)
    fresh_steps = len(steps)
    _, rows = trainer.train(cfg, resume_from=str(tmp_path / "best"))
    assert [r["epoch"] for r in rows] == [2, 3]
    assert len(runs) == 2 and len(steps) == fresh_steps + fresh_steps // 2 and all(steps)
    for ckpt, saved in handed_out:
        assert _arrays_bytes(ckpt) == saved


def _arrays_bytes(ckpt):
    return [ckpt.params[k].tobytes() + ckpt.momentum[k].tobytes() for k in ckpt.params]


class Crash(RuntimeError):
    pass


def _full_and_resumed_runs(tmp_path, data_dir):
    """A 4-epoch run, and the same run crashed at epoch 2 and resumed; each
    returns (best checkpoint, rows) and the resumed run's log is recorded."""
    cfg = small_config(data_dir, epochs=4, out_dir=str(tmp_path / "full"))
    full = trainer.train(cfg)

    def crashing_log(row):
        if row["epoch"] == 2:
            raise Crash

    cfg_part = replace(cfg, out_dir=str(tmp_path / "part"))
    with pytest.raises(Crash):
        trainer.train(cfg_part, log=crashing_log)

    logged = []
    resumed = trainer.train(cfg_part, resume_from=str(tmp_path / "part" / "last"),
                            log=logged.append)
    return full, resumed, logged


def test_resume_after_interruption_reproduces_run(tmp_path, small_dataset):
    (_, rows_full), (_, rows_out), resumed_rows = _full_and_resumed_runs(
        tmp_path, str(small_dataset))
    assert [r["epoch"] for r in resumed_rows] == [2, 3]
    assert resumed_rows == rows_full[2:]
    assert rows_out[-1] == rows_full[-1]


def test_resume_keeps_every_metrics_row(tmp_path, small_dataset):
    _full_and_resumed_runs(tmp_path, str(small_dataset))
    full_csv = (tmp_path / "full" / "metrics.csv").read_text()
    assert len(full_csv.splitlines()) == 1 + 4
    assert (tmp_path / "part" / "metrics.csv").read_text() == full_csv

    # resuming a finished run trains nothing and leaves the file whole
    cfg = small_config(str(small_dataset), epochs=4, out_dir=str(tmp_path / "full"))
    trainer.train(cfg, resume_from=str(tmp_path / "full" / "last"))
    assert (tmp_path / "full" / "metrics.csv").read_text() == full_csv


def test_resume_returns_the_saved_best(tmp_path, small_dataset):
    (best_full, rows_full), (best_resumed, _), _ = _full_and_resumed_runs(
        tmp_path, str(small_dataset))
    # the best epoch precedes the crash, so the resumed epochs do not improve on it
    assert best_full.epoch < 2
    assert best_full.best_val_loss == min(r["val_loss"] for r in rows_full)

    cfg = small_config(str(small_dataset), epochs=4, out_dir=str(tmp_path / "full"))
    best_finished, _ = trainer.train(cfg, resume_from=str(tmp_path / "full" / "last"))
    for best in (best_resumed, best_finished):
        assert best.epoch == best_full.epoch
        assert best.best_val_loss == best_full.best_val_loss
        assert best.params.keys() == best_full.params.keys()
        for k in best_full.params:
            assert np.array_equal(best.params[k], best_full.params[k])
            assert np.array_equal(best.momentum[k], best_full.momentum[k])


def test_resume_from_a_copied_last_returns_the_best_saved_under_out_dir(tmp_path, small_dataset):
    # resume refuses any other config, so out_dir is where the run's best/ was saved
    cfg = small_config(str(small_dataset), out_dir=str(tmp_path / "run"))
    trainer.train(cfg)
    shutil.copytree(tmp_path / "run" / "last", tmp_path / "copy" / "ck")
    best, rows = trainer.train(cfg, resume_from=str(tmp_path / "copy" / "ck"))
    saved = trainer.load_checkpoint(tmp_path / "run" / "best")
    assert rows == [] and best.epoch == saved.epoch
    _same_arrays(best, saved)


def test_resume_with_another_config_names_each_differing_field(uninterrupted_run):
    cfg, *_ = uninterrupted_run
    last = str(Path(cfg.out_dir) / "last")
    with pytest.raises(ValueError, match="different config: epochs: 4 != 5$"):
        trainer.train(replace(cfg, epochs=5), resume_from=last)
    with pytest.raises(ValueError) as refused:
        trainer.train(replace(cfg, out_dir=cfg.out_dir + "/", seed=6), resume_from=last)
    assert str(refused.value).endswith(f"out_dir: {cfg.out_dir!r} != {cfg.out_dir + '/'!r}, "
                                       "seed: 5 != 6")


@pytest.fixture(scope="module")
def uninterrupted_run(small_dataset, tmp_path_factory):
    """The 4-epoch run of small_config: its config, rows, best checkpoint,
    metrics.csv bytes and last/ checkpoint."""
    out = tmp_path_factory.mktemp("uninterrupted")
    cfg = small_config(str(small_dataset), epochs=4, out_dir=str(out))
    best, rows = trainer.train(cfg)
    return cfg, rows, best, (out / "metrics.csv").read_bytes(), trainer.load_checkpoint(out / "last")


def _same_arrays(a, b):
    assert a.params.keys() == b.params.keys()
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()
        assert a.momentum[k].tobytes() == b.momentum[k].tobytes()


# Each write of an epoch, in the order the run makes them; best/ is only
# written by epoch 1, the one later epoch that improves the validation loss.
@pytest.mark.parametrize("point, crash_epoch", [
    *[("log", k) for k in (1, 2, 3)],
    *[("metrics", k) for k in (1, 2, 3)],
    ("best", 1),
    *[("last", k) for k in (1, 2, 3)],
])
def test_resume_after_crash_at_each_write_reproduces_run(tmp_path, monkeypatch, uninterrupted_run,
                                                         point, crash_epoch):
    cfg, rows_full, *_ = uninterrupted_run
    cfg = replace(cfg, out_dir=str(tmp_path))
    real_metrics, real_save = trainer.write_metrics, trainer.save_checkpoint

    def crashing_log(row):
        if point == "log" and row["epoch"] == crash_epoch:
            raise Crash

    def crashing_metrics(path, rows):
        if point == "metrics" and rows[-1]["epoch"] == crash_epoch:
            raise Crash
        real_metrics(path, rows)

    def crashing_save(ckpt, path):
        if path.name == point and ckpt.epoch == crash_epoch:
            raise Crash
        real_save(ckpt, path)

    with monkeypatch.context() as patch:
        patch.setattr(trainer, "write_metrics", crashing_metrics)
        patch.setattr(trainer, "save_checkpoint", crashing_save)
        with pytest.raises(Crash):
            trainer.train(cfg, log=crashing_log)

    rows = _resume_and_check(cfg, uninterrupted_run)
    assert rows == rows_full[crash_epoch:]


def _resume_and_check(cfg, uninterrupted_run):
    """Resume the crashed run under cfg.out_dir from its last/; check that
    its metrics.csv, best and last/ equal the uninterrupted run's, and
    return the rows it trained."""
    _, _, best_full, csv_full, last_full = uninterrupted_run
    out = Path(cfg.out_dir)
    best, rows = trainer.train(cfg, resume_from=str(out / "last"))
    assert (out / "metrics.csv").read_bytes() == csv_full
    assert (best.epoch, best.best_val_loss) == (best_full.epoch, best_full.best_val_loss)
    _same_arrays(best, best_full)
    last = trainer.load_checkpoint(out / "last")
    assert (last.epoch, last.best_val_loss) == (last_full.epoch, last_full.best_val_loss)
    _same_arrays(last, last_full)
    return rows


class _DiesMidWrite:
    """A file that writes the first half of the one buffer it is given, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise Crash


# The run saves 6 times: best/ in epochs 0 and 1, the ones that improve, and last/ in each.
@pytest.mark.parametrize("stage", ["mid-write", "before-rename"])
@pytest.mark.parametrize("save", range(6))
def test_resume_after_crash_inside_a_save_reproduces_run(tmp_path, monkeypatch, uninterrupted_run,
                                                         save, stage):
    cfg, rows_full, *_ = uninterrupted_run
    improving = [r for i, r in enumerate(rows_full)
                 if all(r["val_loss"] < q["val_loss"] for q in rows_full[:i])]
    assert len(improving) + len(rows_full) == 6
    cfg = replace(cfg, out_dir=str(tmp_path))
    real_open, real_replace = open, os.replace
    opened, replaced = [], []

    def crashing_open(path, mode):
        opened.append(path)
        fh = real_open(path, mode)
        return _DiesMidWrite(fh) if stage == "mid-write" and len(opened) > save else fh

    def crashing_replace(src, dst):
        replaced.append(dst)
        if stage == "before-rename" and len(replaced) > save:
            raise Crash
        real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(blobio, "open", crashing_open, raising=False)
        patch.setattr(blobio.os, "replace", crashing_replace)
        with pytest.raises(Crash):
            trainer.train(cfg)
    assert len(opened if stage == "mid-write" else replaced) == save + 1
    assert Path(opened[-1]).exists()  # the crashed save's .tmp file

    rows = _resume_and_check(cfg, uninterrupted_run)
    assert rows == rows_full[rows[0]["epoch"]:]


def test_an_epoch_encodes_its_checkpoint_once_for_best_and_last(tmp_path, monkeypatch,
                                                                small_dataset):
    real_encode, encoded = blobio.encode, []

    def counting_encode(params, momentum, meta=None):
        encoded.append(meta["epoch"])
        return real_encode(params, momentum, meta)

    monkeypatch.setattr(blobio, "encode", counting_encode)
    # both epochs improve the validation loss, so each saves best/ and last/
    best, rows = trainer.train(small_config(str(small_dataset), out_dir=str(tmp_path)))
    assert best.epoch == rows[-1]["epoch"] == 1
    assert encoded == [0, 1]
    assert ((tmp_path / "best" / blobio.FILE_NAME).read_bytes()
            == (tmp_path / "last" / blobio.FILE_NAME).read_bytes())


def test_resume_drops_a_partial_metrics_row(tmp_path, monkeypatch, small_dataset):
    # The run dies after writing b"1" of epoch 10's row. Resumed from last/
    # (epoch 9), that "1" parses as an epoch <= 9, yet must not survive.
    cfg = small_config(str(small_dataset), epochs=11, out_dir=str(tmp_path / "full"))
    trainer.train(cfg)
    real_write = trainer.write_metrics

    def dying_write(path, rows):
        if rows[-1]["epoch"] == 10:
            with open(path, "ab") as fh:
                fh.write(b"1")
            raise Crash
        real_write(path, rows)

    part = replace(cfg, out_dir=str(tmp_path / "part"))
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "write_metrics", dying_write)
        with pytest.raises(Crash):
            trainer.train(part)
    trainer.train(part, resume_from=str(tmp_path / "part" / "last"))
    assert ((tmp_path / "part" / "metrics.csv").read_bytes()
            == (tmp_path / "full" / "metrics.csv").read_bytes())


def test_resume_rejects_different_config(tmp_path, small_dataset):
    data_dir = str(small_dataset)
    cfg = small_config(data_dir, epochs=2, out_dir=str(tmp_path / "run"))
    trainer.train(cfg)
    other = replace(cfg, lr=0.5)
    with pytest.raises(ValueError):
        trainer.train(other, resume_from=str(tmp_path / "run" / "last"))


def test_validation_is_one_forward_over_every_validation_video(small_dataset, monkeypatch):
    cfg = small_config(small_dataset, epochs=1, batch_size=4, val_fraction=0.5)
    manifest, _ = sampler.load_dataset(small_dataset)
    train_idx, val_idx = trainer.split_train_val(manifest, cfg)
    assert len(val_idx) > cfg.batch_size
    real_forward, results = trainer.forward_sample, []

    def forward(*args):
        results.append(real_forward(*args))
        return results[-1]

    monkeypatch.setattr(trainer, "forward_sample", forward)
    _, rows = trainer.train(cfg)
    assert len(results) == -(-len(train_idx) // cfg.batch_size) + 1  # training batches, then one
    val = results[-1]
    assert val.loss.data.shape == (len(val_idx),)
    assert float(rows[0]["val_loss"]).hex() == float(val.loss.data.mean()).hex()
    assert rows[0]["val_acc"] == val.correct.mean()


def test_val_permutation_id_fixed_per_video():
    ids = [trainer.val_permutation_id(7, i, 3) for i in range(50)]
    assert ids == [trainer.val_permutation_id(7, i, 3) for i in range(50)]
    assert all(0 <= pid < sampler.num_permutations(3) for pid in ids)
    assert len(set(ids)) > 1


def test_write_metrics_produces_csv(tmp_path):
    rows = [{"epoch": 1, "total_loss": 2.0, "graph_loss": 1.5,
             "order_loss": 0.5, "train_acc": 0.5, "val_acc": 0.25,
             "val_loss": 2.1}]
    path = tmp_path / "metrics.csv"
    trainer.write_metrics(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "epoch"
    assert lines[0].split(",")[-1] == "val_loss"
    assert lines[1] == "1,2.0,1.5,0.5,0.5,0.25,2.1"


def _sample_losses_and_grads(model, config, stats, draws):
    params = model.named_params()
    for tensor in params.values():
        tensor.grad = None
    res = trainer.forward_sample(model, config, stats, draws)
    dc.backward(dc.tsum(res.loss))
    grads = {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for k, t in params.items()}
    return res, grads


@pytest.mark.parametrize("alpha", [1.0, 0.0])
@pytest.mark.parametrize("p_r, p_m", [(0.2, 0.1), (0.0, 0.0), (0.0, 0.3)])
def test_draw_batch_matches_generate_view(alpha, p_r, p_m):
    cfg = small_config("", alpha=alpha, beta=alpha, p_r=p_r, p_m=p_m)
    n, m, f = cfg.n, cfg.m, cfg.feature_dim
    batch_rng = np.random.default_rng(3)
    draws = trainer.draw_batch(cfg, [batch_rng] * 5)
    if alpha == 0.0:  # no graph branch runs, so no view is built
        assert draws.inter is None and draws.intra is None

    # per sample: the permutation id, the inter view, then each snippet's intra view
    rng = np.random.default_rng(3)
    inter = tgraph.build_chain_graph(np.ones((n, f)))
    intra = tgraph.build_chain_graph(np.ones((m, f)))
    for i in range(5):
        assert draws.perm_ids[i] == rng.integers(sampler.num_permutations(n))
        view = tgraph.generate_view(inter, p_r, p_m, rng)
        if alpha == 0.0:
            continue
        adj, mask = draws.inter[0][i], draws.inter[1][i]
        assert np.array_equal(adj, view.adjacency)
        assert np.array_equal(np.broadcast_to(mask, (n, f)), view.features.data)
        for j in range(n):
            view = tgraph.generate_view(intra, p_r, p_m, rng)
            adj, mask = draws.intra[0][i, j], draws.intra[1][i, j]
            assert np.array_equal(adj, view.adjacency)
            assert np.array_equal(np.broadcast_to(mask, (m, f)), view.features.data)
    # both consumed the same stream
    assert batch_rng.random() == rng.random()


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_batch_matches_batches_of_one(small_dataset, alpha, beta):
    cfg = small_config(str(small_dataset), alpha=alpha, beta=beta)
    _, videos = sampler.load_dataset(small_dataset)
    model = trainer.build_model(cfg)
    stats = trainer.video_statistics(videos[:6], cfg)

    # a shared stream is drawn sample by sample, in the per-video order
    batch_draws = trainer.draw_batch(cfg, [np.random.default_rng(4)] * 6)
    rng = np.random.default_rng(4)
    single_draws = [trainer.draw_batch(cfg, [rng]) for _ in range(6)]
    assert batch_draws.perm_ids.tolist() == [d.perm_ids[0] for d in single_draws]

    batch, batch_grads = _sample_losses_and_grads(model, cfg, stats, batch_draws)
    summed = {k: np.zeros_like(g) for k, g in batch_grads.items()}
    for i, draws in enumerate(single_draws):
        one, grads = _sample_losses_and_grads(model, cfg, stats[i:i + 1], draws)
        assert abs(one.loss.data[0] - batch.loss.data[i]) <= 1e-12 * abs(one.loss.data[0])
        assert one.graph_loss[0] == pytest.approx(batch.graph_loss[i], rel=1e-12)
        assert one.correct[0] == batch.correct[i]
        for k in summed:
            summed[k] += grads[k]
    for k, g in summed.items():
        assert np.max(np.abs(batch_grads[k] - g)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300), k


# Metrics rows of a 2-epoch run of small_config on small_dataset, recorded
# with the per-video training step that the batched one replaced.
PER_VIDEO_ROWS = [
    {"epoch": 0, "total_loss": 12.57376360794377, "graph_loss": 7.20567652297195,
     "order_loss": 5.368087084971821, "train_acc": 0.18518518518518517,
     "val_acc": 0.0, "val_loss": 10.669822980571567},
    {"epoch": 1, "total_loss": 10.71046993715671, "graph_loss": 7.230251997886752,
     "order_loss": 3.4802179392699544, "train_acc": 0.14814814814814814,
     "val_acc": 0.3333333333333333, "val_loss": 9.206284328615492},
]


def test_batched_training_reproduces_per_video_rows(small_dataset):
    _, rows = trainer.train(small_config(str(small_dataset)))
    assert len(rows) == len(PER_VIDEO_ROWS)
    for row, ref in zip(rows, PER_VIDEO_ROWS):
        assert row.keys() == ref.keys()
        for key, want in ref.items():
            assert row[key] == pytest.approx(want, rel=1e-9, abs=0), key


def _tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _batch_tape_nodes(alpha):
    # a default 16-sample batch, joint (alpha = beta = 1) or order-only
    cfg = trainer.TrainConfig(alpha=alpha, beta=alpha)
    stats = np.random.default_rng(0).random((16, cfg.n, 2 * cfg.l))
    draws = trainer.draw_batch(cfg, [np.random.default_rng(1)] * 16)
    res = trainer.forward_sample(trainer.build_model(cfg), cfg, stats, draws)
    return _tape_nodes(dc.tsum(res.loss))


@pytest.mark.parametrize("alpha, most", [(1.0, 66), (0.0, 31)])
def test_batch_tape_size_does_not_grow(alpha, most):
    assert _batch_tape_nodes(alpha) <= most


@pytest.mark.parametrize("alpha, most", [(1.0, 53), (0.0, 18)])
def test_fused_order_head_shrinks_the_batch_tape(alpha, most):
    # the shuffle, the head and its loss are one node: 13 fewer than as composed ops
    assert _batch_tape_nodes(alpha) <= most


@pytest.mark.parametrize("alpha, beta, lambda_g", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.5),
                                                   (0.0, 1.0, 1.0), (0.0, 0.0, 0.0)])
def test_draws_without_views_encode_the_snippets_only(monkeypatch, alpha, beta, lambda_g):
    # the drawn views switch the graph branches, whatever the config's weights
    cfg = small_config("", alpha=alpha, beta=beta, lambda_g=lambda_g)
    model = trainer.build_model(cfg)
    stats = np.random.default_rng(0).random((4, cfg.n, 2 * cfg.l))
    encoded, encode = [], encoder.encode
    monkeypatch.setattr(encoder, "encode", lambda x, p: encoded.append(p) or encode(x, p))
    res = trainer.forward_sample(model, cfg, stats, trainer.Draws(np.arange(4), None))
    assert len(encoded) == 1 and encoded[0] is model.enc_snip
    assert np.array_equal(res.graph_loss, np.zeros(4))


def test_intra_only_batch_has_graph_loss_alpha_times_its_intra_sum(monkeypatch):
    # beta = 0 draws no inter view, so the intra views alone must switch J_g on
    cfg = small_config("", alpha=1.0, beta=0.0)
    stats = np.random.default_rng(0).random((4, cfg.n, 2 * cfg.l))
    draws = trainer.draw_batch(cfg, [np.random.default_rng(2)] * 4)
    assert draws.inter is None and draws.intra is not None
    losses, graph_loss = [], contrast.graph_loss
    monkeypatch.setattr(contrast, "graph_loss",
                        lambda *args: losses.append(graph_loss(*args)) or losses[-1])
    res = trainer.forward_sample(trainer.build_model(cfg), cfg, stats, draws)
    (intra,) = losses  # (B, n), one loss per snippet's intra graph
    assert intra.shape == (4, cfg.n)
    assert np.array_equal(res.graph_loss, cfg.alpha * intra.data.sum(axis=-1))
    assert np.all(res.graph_loss > 0)


def test_draws_under_alpha_zero_reach_the_inter_projection_only():
    cfg = small_config("", alpha=0.0, beta=1.0)
    stats = np.random.default_rng(0).random((4, cfg.n, 2 * cfg.l))
    draws = trainer.draw_batch(cfg, [np.random.default_rng(2)] * 4)
    assert draws.inter is not None and draws.intra is None
    model = trainer.build_model(cfg)
    res, grads = _sample_losses_and_grads(model, cfg, stats, draws)
    assert all(np.any(grads[f"proj_inter.{k}"]) for k in ("w1", "b1", "w2", "b2"))
    assert all(getattr(model.proj_intra, k).grad is None for k in ("w1", "b1", "w2", "b2"))
    # a joint config running the same draws runs the same branches
    joint = trainer.forward_sample(model, replace(cfg, alpha=1.0), stats, draws)
    assert np.array_equal(joint.loss.data, res.loss.data)
