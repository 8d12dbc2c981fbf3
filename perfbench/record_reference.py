"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py --seeds 0-31

For every workload and seed this runs one cycle on the seed's inputs and
stores its outputs in ``perfbench/reference.json``: each epoch's metrics
row of the training workloads, and the eval accuracy and top-k retrieval
table of ``eval-retrieve``. Record only from a commit whose outputs are
known good; a later change is checked against these values within the
tolerances stated in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import envinfo, workloads  # noqa: E402
from perfbench.spread import seed_range  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference.json"


def plain(value):
    """JSON-ready copy with numpy scalars turned into Python numbers."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value.item() if hasattr(value, "item") else value


def record(workload, seed, scratch):
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        inputs = workload.generate(work, seed)
        ledger = workloads.Ledger()
        cycle = workload.cycle(inputs, ledger, workloads.Expect())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ledger.failed:
        raise RuntimeError(f"{workload.name} seed {seed} failed its own checks: {ledger.reasons}")
    return plain(cycle.outputs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)
    env = envinfo.environment(ROOT)
    out = {"recorded_with": {k: env[k] for k in ("git_commit", "tcgl_sha256")}}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS.values():
            entry = out.setdefault(workload.name, {"seeds": {}})
            if isinstance(workload, workloads.TrainWorkload):
                entry["epochs"] = workload.epochs
            for seed in args.seeds:
                entry["seeds"][str(seed)] = record(workload, seed, scratch)
                print(f"{workload.name} seed {seed} recorded", flush=True)
    finally:
        if not any(scratch.iterdir()):
            scratch.rmdir()
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
