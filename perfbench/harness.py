"""Timed and traced runs of one workload, and the metrics they report.

The timed run (``--trace 0``) repeats cycles, each with its own set-up,
until the time budget is spent, and reports the median set-up time and the
workload's medians. Only ``trainer.build_model`` is marked, to tell a
``train`` call's set-up from its epochs; no span wrapper is installed. The
traced run (``--trace 1``) alternates a plain cycle with a traced one and
reports per-layer numbers per traced cycle.
"""

from __future__ import annotations

import resource
import statistics
import time

from . import tracer as tracing
from .workloads import Expect, Ledger

# Fewest cycles per run, so that setup_s is a median of several set-ups.
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
ROOT_SPAN = "cycle"


def _budget_left(start, done, seconds):
    """True while one more cycle of average length fits in ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload, inputs, seconds, reference):
    """Returns (ledger, BENCHMARK.json end-to-end metrics, per-workload summary)."""
    ledger, expect = Ledger(), Expect(reference=reference)
    cycles, start = [], time.perf_counter()
    while len(cycles) < MIN_CYCLES or _budget_left(start, len(cycles), seconds):
        cycles.append(workload.cycle(inputs, ledger, expect))

    setup_s = [c.setup_s for c in cycles if c.setup_s is not None]
    summary = workload.summarize(cycles)
    summary["setup_s"] = (statistics.median(setup_s) if setup_s else float("nan"), "s",
                          len(setup_s))
    summary["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    summary["ops_failed_ratio"] = (ledger.failed_ratio, "ratio", ledger.attempted)
    metrics = {"setup_s": summary["setup_s"][0], "peak_rss_mb": summary["peak_rss_mb"][0],
               **workload.end_to_end(summary)}
    return ledger, metrics, summary


def _traced_cycle(workload, inputs, ledger, expect):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        start = time.perf_counter()
        with tracer.span(ROOT_SPAN):
            cycle = workload.cycle(inputs, ledger, expect, tracer)
        wall = time.perf_counter() - start
    return tracer, cycle, wall


def _plain_cycle(workload, inputs, ledger, expect):
    start = time.perf_counter()
    workload.cycle(inputs, ledger, expect)
    return time.perf_counter() - start


def run_traced(workload, inputs, seconds, reference):
    """Returns (ledger, per-layer metrics, problems).

    Cycles alternate plain and traced; the difference in their median wall
    time is the tracing overhead. Counts must repeat exactly across traced
    cycles; any that do not are listed in ``problems``.
    """
    ledger, expect = Ledger(), Expect(reference=reference)
    plain, traced, start = [], [], time.perf_counter()
    while len(traced) < MIN_TRACED_CYCLES or _budget_left(start, len(traced), seconds):
        plain.append(_plain_cycle(workload, inputs, ledger, expect))
        traced.append(_traced_cycle(workload, inputs, ledger, expect))
    problems = count_mismatches([t for t, _, _ in traced])
    metrics = layer_metrics(traced, plain)
    return ledger, metrics, problems


def _counts(tr):
    out = {f"{name}.calls": st.calls for name, st in tr.stats.items()}
    out.update({name: v for name, v in tr.counters.items() if not name.endswith("_s")})
    return out


def count_mismatches(tracers):
    """Count metrics that differ between traced cycles (they must not)."""
    first = _counts(tracers[0])
    problems = []
    for i, tr in enumerate(tracers[1:], start=1):
        other = _counts(tr)
        for name in sorted(set(first) | set(other)):
            if first.get(name) != other.get(name):
                problems.append(f"count {name} was {first.get(name)} in traced cycle 0, "
                                f"{other.get(name)} in cycle {i}")
    return problems


# name -> (unit, better); the metrics of ``--trace 0``, on every workload.
# The host this was tuned on switches between a fast and a slow state every
# few seconds, in a share that varies from run to run; the slow-side
# percentiles follow one state and spread about half as much as medians,
# so they are the ones gated. The medians are printed beside them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s.p10": ("1/s", "higher"),
    "latency_s.p90": ("s", "lower"),
}

# name -> (unit, better, how); "how" is (kind, key) read by ``_layer_value``.
# A "setup_s" metric is the span's total time during the cycle's set-up only:
# eval_order restores the model on each of its calls, and those restores
# belong to evalkit.eval_order.s, not to the set-up.
LAYER_METRICS = {
    "diffcore.backward.calls": ("count", "lower", ("calls", "diffcore.backward")),
    "diffcore.backward.self_s": ("s", "lower", ("self_s", "diffcore.backward")),
    "diffcore.tape_nodes_per_sample": ("count", "lower", ("per_trained", "diffcore.tape_nodes")),
    "contrast.graph_loss.calls": ("count", "lower", ("calls", "contrast.graph_loss")),
    "contrast.graph_loss.self_s": ("s", "lower", ("self_s", "contrast.graph_loss")),
    "contrast.total_graph_loss.self_s": ("s", "lower", ("self_s", "contrast.total_graph_loss")),
    "tgraph.generate_view.calls": ("count", "lower", ("calls", "tgraph.generate_view")),
    "tgraph.generate_view.self_s": ("s", "lower", ("self_s", "tgraph.generate_view")),
    "tgraph.gcn_forward.calls": ("count", "lower", ("calls", "tgraph.gcn_forward")),
    "tgraph.gcn_forward.self_s": ("s", "lower", ("self_s", "tgraph.gcn_forward")),
    "tgraph.build_chain_graph.self_s": ("s", "lower", ("self_s", "tgraph.build_chain_graph")),
    "encoder.encode.calls": ("count", "lower", ("calls", "encoder.encode")),
    "encoder.encode.self_s": ("s", "lower", ("self_s", "encoder.encode")),
    "encoder.clip_statistics.calls": ("count", "lower", ("calls", "encoder.clip_statistics")),
    "encoder.clip_statistics.self_s": ("s", "lower", ("self_s", "encoder.clip_statistics")),
    "encoder.clip_statistics.calls_per_sample":
        ("count", "lower", ("calls_per_forward", "encoder.clip_statistics")),
    "orderhead.order_head_forward.calls":
        ("count", "lower", ("calls", "orderhead.order_head_forward")),
    "orderhead.order_head_forward.self_s":
        ("s", "lower", ("self_s", "orderhead.order_head_forward")),
    "sampler.load_dataset.s": ("s", "lower", ("setup_s", "sampler.load_dataset")),
    "sampler.sample_snippets.calls": ("count", "lower", ("calls", "sampler.sample_snippets")),
    "sampler.sample_snippets.self_s": ("s", "lower", ("self_s", "sampler.sample_snippets")),
    "sampler.shuffle_tuple.calls": ("count", "lower", ("calls", "sampler.shuffle_tuple")),
    "sampler.shuffle_tuple.self_s": ("s", "lower", ("self_s", "sampler.shuffle_tuple")),
    "sampler.split_framesets.calls": ("count", "lower", ("calls", "sampler.split_framesets")),
    "sampler.split_framesets.self_s": ("s", "lower", ("self_s", "sampler.split_framesets")),
    "trainer.forward_sample.self_s": ("s", "lower", ("self_s", "trainer.forward_sample")),
    "trainer.sgd_step.calls": ("count", "lower", ("calls", "trainer.sgd_step")),
    "trainer.sgd_step.self_s": ("s", "lower", ("self_s", "trainer.sgd_step")),
    "trainer.save_checkpoint.calls": ("count", "lower", ("calls", "trainer.save_checkpoint")),
    "trainer.save_checkpoint.self_s": ("s", "lower", ("self_s", "trainer.save_checkpoint")),
    "trainer.validate_s": ("s", "lower", ("counter", "trainer.validate_s")),
    "trainer.load_checkpoint.s": ("s", "lower", ("setup_s", "trainer.load_checkpoint")),
    "trainer.restore_model.s": ("s", "lower", ("setup_s", "trainer.restore_model")),
    "blobio.save_arrays.self_s": ("s", "lower", ("self_s", "blobio.save_arrays")),
    "blobio.save_arrays.bytes": ("B", "lower", ("counter", "blobio.save_arrays.bytes")),
    "blobio.load_arrays.self_s": ("s", "lower", ("self_s", "blobio.load_arrays")),
    "blobio.load_arrays.bytes": ("B", "lower", ("counter", "blobio.load_arrays.bytes")),
    "evalkit.eval_order.s": ("s", "lower", ("total_s", "evalkit.eval_order")),
    "evalkit.embed_video.calls": ("count", "lower", ("calls", "evalkit.embed_video")),
    "evalkit.embed_video.self_s": ("s", "lower", ("self_s", "evalkit.embed_video")),
    "evalkit.retrieve.calls": ("count", "lower", ("calls", "evalkit.retrieve")),
    "evalkit.retrieve.self_s": ("s", "lower", ("self_s", "evalkit.retrieve")),
    "evalkit.retrieve.failed": ("count", "lower", ("failed", "evalkit.retrieve")),
    "trace.overhead_share": ("ratio", "lower", ("overhead", None)),
    "trace.unattributed_share": ("ratio", "lower", ("unattributed", None)),
}


def _layer_value(kind, key, tr, cycle):
    st = tr.stats.get(key, tracing.SpanStats())
    if kind in ("calls", "self_s", "total_s", "failed"):
        return getattr(st, kind)
    if kind == "setup_s":
        return cycle.setup_totals.get(key, 0.0)
    if kind == "counter":
        return tr.counters.get(key, 0)
    if kind == "per_trained":
        return tr.counters.get(key, 0) / cycle.samples_trained if cycle.samples_trained else 0.0
    if kind == "calls_per_forward":
        return st.calls / cycle.samples_forward if cycle.samples_forward else 0.0
    if kind == "unattributed":
        root = tr.stats[ROOT_SPAN]
        return root.self_s / root.total_s
    raise ValueError(f"unknown layer metric kind {kind!r}")


def layer_metrics(traced, plain_walls):
    """Per-layer metrics, each the mean over traced cycles."""
    out = {}
    for name, (_, _, (kind, key)) in LAYER_METRICS.items():
        if kind == "overhead":
            traced_wall = statistics.median(wall for _, _, wall in traced)
            out[name] = traced_wall / statistics.median(plain_walls) - 1.0
        else:
            out[name] = statistics.fmean(_layer_value(kind, key, tr, cycle)
                                         for tr, cycle, _ in traced)
    return out
