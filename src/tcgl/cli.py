"""Command-line entry point: gen-data | train | eval-order | retrieve | gradcheck.

Configuration precedence is flag > config file > default. Config files are
plain key=value lines mirroring TrainConfig; unknown keys are rejected.
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import evalkit, sampler, trainer


class CliError(Exception):
    pass


def parse_config_file(path):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CliError(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in trainer.CONFIG_TYPES:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _coerce(key, value):
    try:
        return trainer.CONFIG_TYPES[key](value)
    except ValueError:
        raise CliError(f"config key {key!r}: cannot parse {value!r}")


def resolve_config(args):
    """Build a TrainConfig from defaults, then file values, then flags."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    for key in trainer.CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values and (seed := _env_seed()) is not None:
        values["seed"] = seed
    return trainer.TrainConfig(**values).validate()


def _env_seed():
    """The TCGL_SEED environment variable as an int; None when it is unset or empty."""
    raw = os.environ.get("TCGL_SEED", "")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise CliError(f"TCGL_SEED: cannot parse {raw!r}")


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    for name, kind in trainer.CONFIG_TYPES.items():
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)


def _echo_config(config):
    resolved = asdict(config)
    print("resolved configuration:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]}")


def cmd_gen_data(args):
    seed = args.seed if args.seed is not None else _env_seed()
    seed = trainer.TrainConfig.seed if seed is None else seed
    sampler.generate_dataset(args.out, args.num_videos, args.num_classes, seed, frames=args.frames)
    print(f"wrote {args.num_videos} videos ({args.num_classes} classes) to {args.out}")
    return 0


def cmd_train(args):
    config = resolve_config(args)
    if not config.data_dir:
        raise CliError("train needs --data-dir (or data_dir in the config file)")
    _echo_config(config)

    trainer.train(config, resume_from=args.resume,
                  log=lambda row: print(trainer.metrics_line(row)))
    if config.out_dir:
        print(f"checkpoints and metrics.csv under {config.out_dir}")
    return 0


def cmd_eval_order(args):
    ckpt = trainer.load_checkpoint(args.ckpt)
    _, videos = sampler.load_dataset(args.data_dir or ckpt.config.data_dir)
    acc = evalkit.eval_order(ckpt, videos)
    print(f"order prediction accuracy: {acc:.4f} over {len(videos)} videos "
          f"(chance {evalkit.chance_level(ckpt.config.n):.4f})")
    return 0


def cmd_retrieve(args):
    try:
        ks = [int(k) for k in args.k.split(",")]
    except ValueError:
        raise CliError(f"--k: cannot parse {args.k!r} as comma-separated integers")
    ckpt = trainer.load_checkpoint(args.ckpt)
    config = ckpt.config
    manifest, videos = sampler.load_dataset(args.data_dir or config.data_dir)
    model = trainer.restore_model(ckpt, videos[0].channels)
    train_idx, val_idx = trainer.split_train_val(manifest, config)
    gallery = evalkit.build_gallery([videos[i] for i in train_idx], model, config,
                                    split="train", backbone_only=args.backbone_only)
    queries = evalkit.build_gallery([videos[i] for i in val_idx], model, config,
                                    split="test", backbone_only=args.backbone_only)
    table = evalkit.retrieval_table(queries, gallery, ks)
    lines = [[f"top{k}" for k in ks], [f"{table[k]:.4f}" for k in ks]]
    csv.writer(sys.stdout).writerows(lines)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(lines)
    return 0


def cmd_gradcheck(args):
    report = evalkit.verify_all(seed=args.seed if args.seed is not None else 0)
    for line in report.lines():
        print(line)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["check", "passed", "measured", "threshold"])
            for c in report.checks:
                w.writerow([c.name, int(c.passed), c.measured, c.threshold])
    return 0 if report.all_passed else 2


def build_parser():
    parser = argparse.ArgumentParser(prog="tcgl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic video dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num-videos", type=int, default=200)
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run the joint training loop")
    _add_config_flags(p)
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval-order", help="order accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data-dir")
    p.set_defaults(fn=cmd_eval_order)

    p = sub.add_parser("retrieve", help="nearest-neighbor retrieval accuracy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data-dir")
    p.add_argument("--k", default="1,5,10,20,50")
    p.add_argument("--backbone-only", action="store_true")
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("gradcheck", help="run the verification suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write a machine-readable report CSV")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())
