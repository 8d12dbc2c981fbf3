"""Run one tcgl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-joint --seed 1 --seconds 25 --trace 0

Inputs are generated from ``--seed`` into a scratch directory under
``.perfbench_work/`` in the repository root and removed afterwards. The
program prints one line per metric (name, value, unit, sample count), an
``env`` line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones. It exits with 2, printing no result, when tcgl's sources are not in
``src/`` beside it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_tcgl():
    """Put this checkout's ``src`` first on the path; None if it has no tcgl."""
    src = ROOT / "src"
    if not (src / "tcgl" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(src), str(ROOT)]
    import tcgl
    if src.resolve() not in Path(tcgl.__file__).resolve().parents:
        return None
    return tcgl


def main(argv=None):
    args = parse_args(argv)
    if import_tcgl() is None:
        print(f"perfbench: no tcgl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import envinfo, harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; know {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = references.get(workload.name, {}).get("seeds", {}).get(str(args.seed))

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_DIR))
    try:
        inputs = workload.generate(work, args.seed)
        if args.trace:
            ledger, values, problems = harness.run_traced(workload, inputs, args.seconds,
                                                          reference)
            metrics = {name: (values[name], harness.LAYER_METRICS[name][0])
                       for name in harness.LAYER_METRICS}
            for name, (value, unit) in metrics.items():
                print(f"{name:<42} {value:>14.6g} {unit}")
        else:
            ledger, values, summary = harness.run_timed(workload, inputs, args.seconds,
                                                        reference)
            problems = []
            metrics = {name: (values[name], harness.END_TO_END[name][0])
                       for name in harness.END_TO_END}
            for name, (value, unit, n) in summary.items():
                print(f"{name:<28} {value:>14.6g} {unit:<6} n={n}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    for reason in ledger.reasons + problems:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(f"reference: {'seed ' + str(args.seed) if reference else 'none for this seed'}; "
          f"ops attempted {ledger.attempted}, failed {ledger.failed}")
    print("env " + json.dumps(envinfo.environment(ROOT), sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
