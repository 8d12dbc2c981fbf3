"""Command-line interface: config resolution, subcommands, exit codes."""

import argparse
import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from tcgl import blobio, cli, sampler, trainer

from conftest import small_config


def _train_args(**kw):
    parser = cli.build_parser()
    argv = ["train"]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return parser.parse_args(argv)


def test_parse_config_file_key_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nlr = 0.01\nepochs=5\n\ntau = 0.25  # inline\n")
    assert cli.parse_config_file(path) == {
        "lr": "0.01", "epochs": "5", "tau": "0.25"}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.01\n")
    with pytest.raises(cli.CliError):
        cli.parse_config_file(path)


def test_parse_config_file_rejects_bare_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just-words\n")
    with pytest.raises(cli.CliError):
        cli.parse_config_file(path)


def test_a_config_file_that_is_not_utf8_exits_one_naming_it(tmp_path, small_dataset, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"lr = 0.01\nepochs = \xff\n")
    with pytest.raises(cli.CliError, match=f"^{path}:2: not UTF-8 text"):
        cli.parse_config_file(path)
    assert cli.run(["train", "--data-dir", str(small_dataset), "--config", str(path)]) == 1
    assert f"{path}:2: not UTF-8 text (invalid start byte at byte 19)" in capsys.readouterr().err


def test_resolve_config_precedence_flag_beats_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.25\nepochs = 9\n")
    args = _train_args(config=path, lr=0.5)
    config = cli.resolve_config(args)
    assert config.lr == 0.5       # flag wins
    assert config.epochs == 9     # file beats the dataclass default
    assert config.tau == 0.5      # untouched default


def test_resolve_config_rejects_unparseable_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = fast\n")
    with pytest.raises(cli.CliError):
        cli.resolve_config(_train_args(config=path))


def test_file_values_and_flags_take_each_field_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 9\nout_dir = runs/x\nalpha = 2\n")
    from_file = cli.resolve_config(_train_args(config=path))
    from_flags = cli.resolve_config(_train_args(epochs=9, out_dir="runs/x", alpha=2))
    for config in (from_file, from_flags):
        assert (config.epochs, config.out_dir, config.alpha) == (9, "runs/x", 2.0)
        assert type(config.epochs) is int and type(config.alpha) is float
    with pytest.raises(cli.CliError):
        cli._coerce("epochs", "2.5")


def test_resolve_config_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("TCGL_SEED", "99")
    assert cli.resolve_config(_train_args()).seed == 99
    # explicit flag still wins over the environment
    assert cli.resolve_config(_train_args(seed=3)).seed == 3


def test_an_empty_seed_variable_means_unset_for_gen_data_and_train(tmp_path, monkeypatch):
    monkeypatch.setenv("TCGL_SEED", "")
    assert cli.run(["gen-data", "--out", str(tmp_path / "data"), "--num-videos", "2",
                    "--num-classes", "2"]) == 0
    assert json.loads((tmp_path / "data" / "manifest.json").read_text())["seed"] == 7
    assert cli.resolve_config(_train_args()).seed == 7
    monkeypatch.setenv("TCGL_SEED", "x")  # a value that is no integer is a validation error
    assert cli.run(["gen-data", "--out", str(tmp_path / "bad"), "--num-videos", "2"]) == 1


def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code = cli.run(["gen-data", "--out", str(out), "--num-videos", "4",
                    "--num-classes", "2", "--seed", "1"])
    assert code == 0
    manifest, videos = sampler.load_dataset(out)
    assert len(videos) == 4
    assert manifest["num_classes"] == 2
    assert "wrote 4 videos" in capsys.readouterr().out


def test_train_requires_data_dir():
    assert cli.run(["train", "--epochs", "1"]) == 1


def test_bad_value_exits_one(tmp_path):
    assert cli.run(["train", "--data-dir", str(tmp_path / "absent"),
                    "--epochs", "1"]) == 1


def test_train_writes_only_its_checkpoints_and_metrics(tmp_path, small_dataset):
    # every checkpoint's meta holds the resolved config; no config.json beside them
    out = tmp_path / "run"
    assert cli.run(["train", "--data-dir", str(small_dataset), "--out-dir", str(out),
                    "--epochs", "1", "--feature-dim", "16", "--gcn-dim", "16"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["best", "last", "metrics.csv"]


def test_train_eval_retrieve_round_trip(tmp_path, small_dataset, capsys):
    out = tmp_path / "run"
    code = cli.run([
        "train", "--data-dir", str(small_dataset), "--out-dir", str(out),
        "--epochs", "1", "--batch-size", "8", "--seed", "5",
        "--feature-dim", "16", "--gcn-dim", "16",
    ])
    assert code == 0
    assert (out / "last").is_dir() and (out / "metrics.csv").is_file()
    epoch_line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("epoch")]
    assert len(epoch_line) == 1
    assert all(f" {k} " in epoch_line[0] for k in trainer.METRIC_FIELDS if k != "epoch")

    code = cli.run(["eval-order", "--ckpt", str(out / "last")])
    assert code == 0
    assert "order prediction accuracy" in capsys.readouterr().out

    table = tmp_path / "topk.csv"
    code = cli.run(["retrieve", "--ckpt", str(out / "last"),
                    "--k", "1,3", "--out", str(table)])
    assert code == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["top1", "top3"]
    assert all(0.0 <= float(x) <= 1.0 for x in rows[1])


@pytest.mark.parametrize("command", ["eval-order", "train"])
def test_checkpoint_without_arrays_bin_exits_one(tmp_path, small_dataset, capsys, command):
    # a checkpoint directory in the older three-file layout
    old = tmp_path / "old"
    old.mkdir()
    for name in ("data.bin", "manifest.txt", "meta.json"):
        (old / name).write_text("")
    argv = (["eval-order", "--ckpt", str(old)] if command == "eval-order" else
            ["train", "--data-dir", str(small_dataset), "--resume", str(old)])
    assert cli.run(argv) == 1
    assert f"no arrays.bin in {old}" in capsys.readouterr().err


def test_resume_from_a_last_without_a_save_continues_best_or_starts_afresh(
        tmp_path, small_dataset, capsys):
    out = tmp_path / "run"
    argv = ["train", "--data-dir", str(small_dataset), "--out-dir", str(out), "--epochs", "2",
            "--batch-size", "8", "--seed", "5", "--feature-dim", "16", "--gcn-dim", "16"]
    assert cli.run(argv) == 0
    last, best = out / "last", out / "best"
    # what a crash in the first last/ save leaves
    (last / blobio.FILE_NAME).replace(last / blobio.TMP_NAME)
    capsys.readouterr()
    assert cli.run(argv + ["--resume", str(last)]) == 0
    assert f"{last} holds no checkpoint; resuming from {best}" in capsys.readouterr().err

    # what a crash in the first best/ save leaves: an empty last/
    (last / blobio.TMP_NAME).unlink()
    (best / blobio.FILE_NAME).replace(best / blobio.TMP_NAME)
    assert cli.run(argv + ["--resume", str(last)]) == 0
    captured = capsys.readouterr()
    assert f"{last} holds no checkpoint; starting afresh" in captured.err
    assert len([ln for ln in captured.out.splitlines() if ln.startswith("epoch")]) == 2

    assert cli.run(argv + ["--resume", str(tmp_path / "absent")]) == 1
    assert f"no arrays.bin in {tmp_path / 'absent'}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--num-videos", "0"], ["--num-videos", "-3"],
                                   ["--num-classes", "0"]])
def test_gen_data_without_videos_or_classes_exits_one(tmp_path, capsys, flags):
    out = tmp_path / "data"
    assert cli.run(["gen-data", "--out", str(out), *flags]) == 1
    assert "a dataset needs at least one video and one class" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_with_more_classes_than_the_generator_has_exits_one(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.run(["gen-data", "--out", str(out), "--num-classes", "12"]) == 1
    assert "at most 10 classes" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_a_val_fraction_above_one_half_exits_one(small_dataset, capsys):
    argv = ["train", "--data-dir", str(small_dataset), "--epochs", "1", "--val-fraction", "0.9"]
    assert cli.run(argv) == 1
    assert "val_fraction must lie in (0, 0.5], got 0.9" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "retrieve"])
def test_empty_dataset_exits_one(tmp_path, small_dataset, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.json").write_text(json.dumps({"seed": 1, "num_classes": 1, "videos": []}))
    cfg = small_config(str(empty))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    trainer.save_checkpoint(trainer.Checkpoint(params, momentum, 0, cfg), tmp_path / "ck")
    argv = (["train", "--data-dir", str(empty), "--epochs", "1"] if command == "train" else
            ["retrieve", "--ckpt", str(tmp_path / "ck")])
    assert cli.run(argv) == 1
    assert f"{empty / 'manifest.json'} lists no videos" in capsys.readouterr().err


_NOT_A_VIDEO_LIST = "must be a JSON object whose 'videos' is a list"


@pytest.mark.parametrize("manifest, message", [
    ({}, _NOT_A_VIDEO_LIST),
    ([], _NOT_A_VIDEO_LIST),
    ({"videos": "x"}, _NOT_A_VIDEO_LIST),
    ({"videos": [{"name": "video_00000.bin", "class_id": 0}, {"class_id": 1}]}, "video entry 1"),
    ({"videos": [{"name": "video_00000.bin"}]}, "video entry 0"),
    ("{not json", "is not JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
], ids=["empty-object", "list", "videos-not-a-list", "entry-without-file",
        "entry-without-class-id", "not-json"])
def test_malformed_manifest_exits_one(tmp_path, capsys, manifest, message):
    data = tmp_path / "data"
    sampler.generate_dataset(data, num_videos=2, num_classes=2, seed=3)
    (data / "manifest.json").write_text(manifest if isinstance(manifest, str)
                                        else json.dumps(manifest))
    assert cli.run(["train", "--data-dir", str(data), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert str(data / "manifest.json") in err and message in err


def _checkpoint_on(data_dir, ckpt_dir):
    """Save a freshly built small-config model whose config names ``data_dir``."""
    cfg = small_config(str(data_dir))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    trainer.save_checkpoint(trainer.Checkpoint(params, momentum, 0, cfg), ckpt_dir)


@pytest.mark.parametrize("command", ["train", "eval-order", "retrieve"])
def test_a_dataset_of_per_video_files_exits_one_naming_videos_bin(tmp_path, capsys, command):
    # the layout before videos.bin: one file per video, a 20-byte header (frames, channels,
    # height, width, class id) before its float32 frames, and manifest entries naming it
    data = tmp_path / "data"
    data.mkdir()
    entries = []
    for i in range(4):
        video = sampler.gen_synthetic_video(3 + i, sampler.label_for_class(i % 2))
        name = f"video_{i:05d}.bin"
        (data / name).write_bytes(struct.pack("<5i", *video.data.shape, video.class_id)
                                  + video.data.astype("<f4").tobytes())
        entries.append({"file": name, "class_id": video.class_id})
    (data / "manifest.json").write_text(json.dumps({"seed": 3, "num_classes": 2,
                                                    "videos": entries}))
    _checkpoint_on(data, tmp_path / "ck")
    argv = (["train", "--data-dir", str(data), "--epochs", "1"] if command == "train" else
            [command, "--ckpt", str(tmp_path / "ck")])
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert f"error: no videos.bin in {data}" in captured.err
    assert "accuracy" not in captured.out and "top" not in captured.out


@pytest.mark.parametrize("flag, value", [("lr", "nan"), ("tau", "nan"), ("alpha", "inf"),
                                         ("lambda-g", "nan"), ("momentum", "inf")])
def test_non_finite_float_flag_exits_one(small_dataset, capsys, flag, value):
    argv = ["train", "--data-dir", str(small_dataset), "--epochs", "1", f"--{flag}", value]
    assert cli.run(argv) == 1
    assert f"{flag.replace('-', '_')} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval-order", "retrieve"])
def test_video_with_an_empty_frame_exits_one(tmp_path, capsys, command):
    # a header with zero-height frames is refused, not evaluated as an empty video
    data = tmp_path / "data"
    sampler.generate_dataset(data, num_videos=4, num_classes=2, seed=3)
    path = data / sampler.VIDEOS_FILE
    path.write_bytes(sampler._HEADER.pack(1, 4, 1, 0, 16) + path.read_bytes()[20:])
    _checkpoint_on(data, tmp_path / "ck")
    assert cli.run([command, "--ckpt", str(tmp_path / "ck")]) == 1
    captured = capsys.readouterr()
    assert f"{path}: non-positive size 1x0x16 or frame count 64" in captured.err
    assert "accuracy" not in captured.out


def _redigest(ckpt_dir, edit):
    """Rewrite the checkpoint's header as ``edit(header)`` under a valid digest."""
    path = ckpt_dir / blobio.FILE_NAME
    head, rest = path.read_bytes()[:-32].split(b"\n", 1)
    body = json.dumps(edit(json.loads(head))).encode() + b"\n" + rest
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_checkpoint_with_a_malformed_header_exits_one(tmp_path, capsys):
    # a list header under a valid digest
    blobio.save_arrays(tmp_path / "ck", blobio.encode({"x": np.ones(2)}, {"x": np.ones(2)},
                                                      meta={"kind": "checkpoint"}))
    _redigest(tmp_path / "ck", lambda header: list(header.values()))
    assert cli.run(["eval-order", "--ckpt", str(tmp_path / "ck")]) == 1
    assert "header" in capsys.readouterr().err


def test_a_format_2_checkpoint_exits_one_naming_both_versions(tmp_path, small_dataset, capsys):
    # the layout before format 3: one five-field entry per parameter and one per momentum
    cfg = small_config(str(small_dataset))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    arrays = {**{f"param/{k}": v for k, v in params.items()},
              **{f"momentum/{k}": np.zeros_like(v) for k, v in params.items()}}
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "dtype": "<f8", "shape": arr.shape, "offset": offset,
                        "length": arr.nbytes})
        offset += arr.nbytes
    meta = {"kind": "checkpoint", "epoch": 0, "best_val_loss": 1.0, "config": vars(cfg)}
    body = (json.dumps({"format_version": 2, "meta": meta, "arrays": entries}).encode() + b"\n"
            + b"".join(arr.tobytes() for arr in arrays.values()))
    (tmp_path / "ck").mkdir()
    (tmp_path / "ck" / blobio.FILE_NAME).write_bytes(body + hashlib.sha256(body).digest())
    assert cli.run(["eval-order", "--ckpt", str(tmp_path / "ck")]) == 1
    assert "format version 2 != 3" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["epoch", "config", "best_val_loss"])
def test_checkpoint_meta_without_a_required_key_exits_one(tmp_path, small_dataset, capsys,
                                                          key):
    cfg = small_config(str(small_dataset))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    trainer.save_checkpoint(trainer.Checkpoint(params, momentum, 0, cfg), tmp_path / "ck")
    _redigest(tmp_path / "ck", lambda header: {**header, "meta": {
        k: v for k, v in header["meta"].items() if k != key}})
    assert cli.run(["eval-order", "--ckpt", str(tmp_path / "ck"),
                    "--data-dir", str(small_dataset)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "ck") in err and repr(key) in err


def test_checkpoint_config_with_an_unknown_key_exits_one(tmp_path, small_dataset, capsys):
    cfg = small_config(str(small_dataset))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    trainer.save_checkpoint(trainer.Checkpoint(params, momentum, 0, cfg), tmp_path / "ck")
    _redigest(tmp_path / "ck", lambda header: {**header, "meta": {
        **header["meta"], "config": {**header["meta"]["config"], "dropout": 0.5}}})
    assert cli.run(["eval-order", "--ckpt", str(tmp_path / "ck"),
                    "--data-dir", str(small_dataset)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'ck'}: unknown config keys ['dropout']" in err


@pytest.mark.parametrize("k", ["-1", "0"])
def test_retrieve_with_k_below_one_exits_one(tmp_path, small_dataset, capsys, k):
    cfg = small_config(str(small_dataset))
    params = {k: t.data for k, t in trainer.build_model(cfg).named_params().items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    trainer.save_checkpoint(trainer.Checkpoint(params, momentum, 0, cfg), tmp_path / "ck")
    assert cli.run(["retrieve", "--ckpt", str(tmp_path / "ck"), "--k", k]) == 1
    captured = capsys.readouterr()
    assert f"k={k} must lie in 1.." in captured.err and "top" not in captured.out


def test_retrieve_with_a_k_that_is_not_an_integer_exits_one_naming_the_flag(tmp_path, capsys):
    # refused before the checkpoint is read
    assert cli.run(["retrieve", "--ckpt", str(tmp_path / "absent"), "--k", "1,abc"]) == 1
    captured = capsys.readouterr()
    assert "--k: cannot parse '1,abc' as comma-separated integers" in captured.err
    assert "top" not in captured.out


def test_train_on_videos_too_short_for_the_snippets_exits_one(tmp_path, capsys):
    sampler.generate_dataset(tmp_path / "data", num_videos=20, num_classes=2, seed=3, frames=40)
    assert cli.run(["train", "--data-dir", str(tmp_path / "data"), "--epochs", "1"]) == 1
    assert "video has 40 frames, sampling l=16, p=8, n=3 needs at least 64" in \
        capsys.readouterr().err


def test_gradcheck_exit_codes(tmp_path, capsys, monkeypatch):
    report_path = tmp_path / "report.csv"
    assert cli.run(["gradcheck", "--out", str(report_path)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "passed", "measured", "threshold"]
    assert all(row[1] == "1" for row in rows[1:])

    class FailingReport:
        all_passed = False
        checks = []

        def lines(self):
            return ["[FAIL] forced"]

    monkeypatch.setattr(cli.evalkit, "verify_all", lambda seed=0: FailingReport())
    assert cli.run(["gradcheck"]) == 2


def test_unknown_subcommand_exits_one(capsys):
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
