"""Span tracer with self-time accounting, and the wrappers that feed it.

A span covers one call of a wrapped tcgl function. Spans nest along the
call stack; a span's self time is its duration minus the durations of the
spans it directly contains. Work the harness does for its own bookkeeping
inside a span (counting tape nodes, sizing files) is *excluded*: it is
subtracted from every enclosing span, so it shows up only in the tracing
overhead, never as a layer's time.

Aggregates are kept in memory per span name and read out when the run
ends. Wrappers are installed by replacing module attributes, so calls
made inside a module (``encode`` -> ``clip_statistics``) are seen as well
as calls across modules; ``instrument`` restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from pathlib import Path

# The public functions wrapped per module. Helpers called only inside one
# of these (contrast.project, orderhead.fuse, the diffcore primitives) stay
# unwrapped on purpose: their time belongs to the calling layer's self time,
# and wrapping ~340 primitive ops per sample would swamp what is measured.
SPANS = {
    "diffcore": ("backward",),
    "sampler": ("load_dataset", "sample_snippets", "shuffle_tuple", "split_framesets"),
    "encoder": ("encode", "clip_statistics"),
    "tgraph": ("build_chain_graph", "generate_view", "gcn_forward"),
    "contrast": ("graph_loss", "total_graph_loss"),
    "orderhead": ("order_head_forward",),
    "trainer": ("build_model", "split_train_val", "forward_sample", "sgd_step",
                "save_checkpoint", "load_checkpoint", "restore_model", "write_metrics"),
    "blobio": ("save_arrays", "load_arrays"),
    "evalkit": ("eval_order", "build_gallery", "embed_video", "retrieve"),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Nested spans aggregated by name; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.last_end: dict[str, float] = {}
        self._stack = []  # frames: [name, start, child_s, excluded_s]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0, 0.0])

    def exit(self, failed=False):
        end = self.clock()
        name, start, child_s, excluded_s = self._stack.pop()
        duration = end - start - excluded_s
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        st.failed += bool(failed)
        self.last_end[name] = end
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += excluded_s
        return duration

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.exit(failed)

    @contextlib.contextmanager
    def excluded(self):
        """Harness work inside a span that no span should be charged for."""
        start = self.clock()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1][3] += self.clock() - start

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before``/``after`` run excluded from it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                with self.excluded():
                    before(self, *args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                with self.excluded():
                    after(self, *args, **kwargs)
            return out
        return wrapper


def tape_size(root):
    """Autodiff nodes reachable from ``root`` through parent links."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _dir_bytes(path):
    p = Path(path)
    return sum(f.stat().st_size for f in p.iterdir() if f.is_file()) if p.is_dir() else 0


def _count_tape(tracer, loss):
    tracer.count("diffcore.tape_nodes", tape_size(loss))


def _bytes_read(tracer, dir_path):
    tracer.count("blobio.load_arrays.bytes", _dir_bytes(dir_path))


def _bytes_written(tracer, dir_path, *args, **kwargs):
    tracer.count("blobio.save_arrays.bytes", _dir_bytes(dir_path))


HOOKS = {
    "diffcore.backward": {"before": _count_tape},
    "blobio.load_arrays": {"before": _bytes_read},
    "blobio.save_arrays": {"after": _bytes_written},
}


@contextlib.contextmanager
def instrument(tracer):
    """Install span wrappers on the tcgl modules in ``SPANS``; restore on exit."""
    originals = []
    try:
        for module_name, names in SPANS.items():
            module = importlib.import_module(f"tcgl.{module_name}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                originals.append((module, fn_name, fn))
                span_name = f"{module_name}.{fn_name}"
                setattr(module, fn_name,
                        tracer.wrap(span_name, fn, **HOOKS.get(span_name, {})))
        yield tracer
    finally:
        for module, fn_name, fn in reversed(originals):
            setattr(module, fn_name, fn)
