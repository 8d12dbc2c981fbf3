"""Tests of the benchmark harness itself (not of tcgl).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from tcgl import diffcore as dc
from tcgl import evalkit, trainer

from perfbench import harness, stats, tracer as tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def small_train(epochs=2, graph_weight=1.0):
    w = workloads.TrainWorkload("train-small", "test", graph_weight, epochs)
    w.num_videos, w.num_classes = 20, 4
    return w


def small_eval():
    w = workloads.EvalWorkload()
    w.num_videos, w.num_classes = 120, 4  # gallery > 50 rows
    return w


def tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# -- tracer ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    tr.enter("root")
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.exit()
    tr.enter("c")
    tr.exit()
    tr.exit()
    s = tr.stats
    assert (s["root"].total_s, s["root"].self_s) == (10, 3)
    assert (s["a"].total_s, s["a"].self_s) == (3, 2)
    assert (s["b"].total_s, s["b"].self_s) == (1, 1)
    assert (s["c"].total_s, s["c"].self_s) == (4, 4)
    assert sum(st.self_s for st in s.values()) == s["root"].total_s


def test_excluded_time_is_charged_to_no_enclosing_span():
    # root [0, 10] holds a [1, 8]; inside a, harness work [2, 5] is excluded
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 5, 8, 10))
    tr.enter("root")
    tr.enter("a")
    with tr.excluded():
        pass
    tr.exit()
    tr.exit()
    assert (tr.stats["a"].total_s, tr.stats["a"].self_s) == (4, 4)
    assert (tr.stats["root"].total_s, tr.stats["root"].self_s) == (7, 3)


def test_span_counts_a_raising_call_as_failed():
    tr = tracing.Tracer()
    wrapped = tr.wrap("f", lambda x: 1 / x)
    assert wrapped(2) == 0.5
    with pytest.raises(ZeroDivisionError):
        wrapped(0)
    assert (tr.stats["f"].calls, tr.stats["f"].failed) == (2, 1)


def test_instrument_wraps_and_restores_module_functions():
    original = evalkit.retrieve
    tr = tracing.Tracer()
    gallery = evalkit.EmbeddingGallery(np.eye(3), np.arange(3))
    with tracing.instrument(tr):
        assert evalkit.retrieve is not original
        evalkit.retrieve(np.array([1.0, 0.0, 0.0]), gallery, 2)
    assert evalkit.retrieve is original
    assert tr.stats["evalkit.retrieve"].calls == 1


def test_tape_size_counts_shared_nodes_once():
    x = dc.Tensor(np.ones(3), requires_grad=True)
    y = dc.mul(x, x)              # x reached twice, counted once
    loss = dc.tsum(dc.add(y, y))  # y reached twice, counted once
    assert tracing.tape_size(loss) == 4


# -- statistics -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, reported", [(100, False), (999, False), (1000, True),
                                         (2500, True)])
def test_p99_needs_ten_samples_beyond_it(n, reported):
    values = list(range(n, 0, -1))
    assert stats.p99(values) == (stats.percentile(values, 99) if reported else None)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 30.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)


# -- failure counting -----------------------------------------------------


def test_ledger_ratio_counts_failures_against_attempts():
    ledger = workloads.Ledger()
    for ok in (True, False, True, True):
        ledger.record(ok, "bad")
    assert (ledger.attempted, ledger.failed, ledger.failed_ratio) == (4, 1, 0.25)
    assert ledger.reasons == ["bad"]


def _row(i, **changes):
    row = {"epoch": i, "total_loss": 3.0, "graph_loss": 2.0, "order_loss": 1.0,
           "train_acc": 0.5, "val_acc": 0.5, "val_loss": 3.0}
    row.update(changes)
    return row


def test_train_rows_fail_on_nonfinite_drift_and_nondeterminism():
    w = small_train()
    inputs = {"n_train": 100, "n_val": 10}
    ref = [_row(0), _row(1)]
    check = lambda i, row, first=None: w.check_row(i, row, inputs, workloads.Expect(ref, first))
    assert check(0, _row(0)) is None
    assert check(1, _row(1, val_acc=0.6)) is None           # one flipped prediction
    assert check(1, _row(1, val_acc=0.7)) is not None       # two
    assert check(0, _row(0, val_loss=math.nan)) is not None
    assert check(0, _row(0, total_loss=3.0 + 3e-5, graph_loss=2.0 + 3e-5)) is not None  # drift
    assert check(0, _row(0, total_loss=4.0)) is not None    # not graph + order
    assert check(0, _row(0), first=[_row(0, val_loss=3.0000001)]) is not None


@pytest.mark.parametrize("target, fail_epoch, failed", [
    ("save_checkpoint", 2, 1),  # every epoch logged, the last one's write raised
    ("sgd_step", 1, 2),         # epoch 1 raised mid-training, epoch 2 never ran
])
def test_train_call_that_raises_fails_its_unfinished_epochs(tmp_path, monkeypatch,
                                                            target, fail_epoch, failed):
    w = small_train(epochs=3)
    inputs = w.generate(tmp_path, seed=1)
    real = getattr(trainer, target)
    steps_per_epoch = math.ceil(inputs["n_train"] / inputs["config"].batch_size)
    seen = {"steps": 0}

    def flaky(*args):
        epoch = args[0].epoch if target == "save_checkpoint" else seen["steps"] // steps_per_epoch
        seen["steps"] += 1
        if epoch == fail_epoch:
            raise OSError("injected")
        return real(*args)

    monkeypatch.setattr(trainer, target, flaky)
    ledger = workloads.Ledger()
    w.cycle(inputs, ledger, workloads.Expect())
    assert (ledger.attempted, ledger.failed) == (3, failed)


def test_check_topk_accepts_only_the_k_nearest_rows_in_order():
    dists = np.array([0.5, 0.1, 0.3, 0.2])
    assert workloads.check_topk(np.array([1, 3]), dists, 2) is None
    assert workloads.check_topk(np.array([3, 1]), dists, 2) is not None   # order
    assert workloads.check_topk(np.array([1, 2]), dists, 2) is not None   # skips row 3
    assert workloads.check_topk(np.array([1, 1]), dists, 2) is not None   # repeat
    assert workloads.check_topk(np.array([1]), dists, 2) is not None      # short


def test_retrieve_failures_count_once_per_call(tmp_path, monkeypatch):
    w = small_eval()
    inputs = w.generate(tmp_path, seed=2)
    real = evalkit.retrieve

    def flaky(query, gallery, k):
        if k == 50:
            raise ValueError("k exceeds gallery")
        if k == 10:
            return real(query, gallery, k)[::-1]  # wrong order
        return real(query, gallery, k)

    monkeypatch.setattr(evalkit, "retrieve", flaky)
    ledger = workloads.Ledger()
    cycle = w.cycle(inputs, ledger, workloads.Expect())
    n_queries = len(cycle.timings["query_s"]) // len(workloads.KS)
    assert ledger.attempted == 1 + n_queries * len(workloads.KS)
    assert ledger.failed == 2 * n_queries


def test_eval_accuracy_checked_against_reference():
    w = small_eval()
    ref = {"eval_acc": 0.5}
    assert w.check_accuracy(0.5, None, workloads.Expect(ref))[0]
    assert not w.check_accuracy(0.6, None, workloads.Expect(ref))[0]
    assert not w.check_accuracy(math.nan, None, workloads.Expect())[0]
    assert not w.check_accuracy(0.5, ValueError("x"), workloads.Expect())[0]


# -- inputs and counts ----------------------------------------------------


@pytest.mark.parametrize("make", [small_train, small_eval])
def test_one_seed_gives_byte_identical_inputs(tmp_path, make):
    w = make()
    digests = []
    for seed in (3, 3, 4):
        work = tmp_path / "work"
        w.generate(work, seed)
        digests.append(tree_digest(work))
        for f in sorted(work.rglob("*"), reverse=True):
            f.unlink() if f.is_file() else f.rmdir()
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_traced_counts_repeat_exactly_between_runs(tmp_path):
    w = small_train(epochs=1)
    counts = []
    for run in range(2):
        inputs = w.generate(tmp_path / str(run), seed=5)
        ledger, metrics, problems = harness.run_traced(w, inputs, 0.01, None)
        assert problems == [] and ledger.failed == 0
        counts.append({k: v for k, v in metrics.items()
                       if harness.LAYER_METRICS[k][0] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["diffcore.backward.calls"] > 0
    assert 0 < metrics["trace.unattributed_share"] < 1


@pytest.mark.parametrize("make", [small_train, small_eval])
def test_setup_spans_stop_where_the_work_starts(tmp_path, make):
    w = make()
    inputs = w.generate(tmp_path, seed=1)
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        cycle = w.cycle(inputs, workloads.Ledger(), workloads.Expect(), tr)
    assert cycle.setup_s > 0
    assert cycle.setup_totals["sampler.load_dataset"] == tr.stats["sampler.load_dataset"].total_s
    assert "trainer.forward_sample" not in cycle.setup_totals
    assert tr.stats["trainer.forward_sample"].calls > 0


# -- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in harness.LAYER_METRICS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == \
        next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
