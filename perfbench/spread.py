"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload train-order-only --seeds 1-10 [--out runs.json]

Runs are sequential, one process at a time. The spread is the distance
between the first and third quartile of the values as a share of their
median; a metric, setup_s too, passes when the spread stays within a
third of its bound.
With ``--baseline runs.json`` (an earlier ``--out``) it also reports how
far each median moved, the worse direction counting against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    values, correct = {m["name"]: [] for m in bench["end_to_end"]}, True
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        correct &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None

    ok = correct
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        median, spread = statistics.median(values[name]), quartile_spread(values[name])
        steady = spread <= bound / 3
        line = f"{name:<18} median {median:.6g} spread {spread:.4f} bound {bound}"
        if baseline is not None:
            before = statistics.median(baseline[name])
            worse = (median - before) / before * (1 if metric["better"] == "lower" else -1)
            steady &= worse <= bound
            line += f" worse-than-baseline {worse:+.4f}"
        ok &= steady
        print(line + ("" if steady else "  <-- over"))
    print(f"{args.workload}: {'all correct' if correct else 'INCORRECT RUNS'}; "
          f"{'steady' if ok else 'NOT steady'}")
    if args.out:
        Path(args.out).write_text(json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
