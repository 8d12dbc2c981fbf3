"""The benchmark tracer wraps tcgl functions by name (``perfbench.tracer.SPANS``),
so deleting or renaming any of them breaks ``perfbench/run.py --trace 1``."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer as tracing  # noqa: E402


def _traced():
    return {(module, name): getattr(importlib.import_module(f"tcgl.{module}"), name)
            for module, names in tracing.SPANS.items() for name in names}


def test_tracer_wraps_and_restores_every_traced_name():
    originals = _traced()
    with tracing.instrument(tracing.Tracer()):
        wrapped = _traced()
    assert all(wrapped[key] is not fn and wrapped[key].__wrapped__ is fn
               for key, fn in originals.items())
    assert _traced() == originals
