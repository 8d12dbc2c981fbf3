"""The trace-matrix digest tool: equal runs hash equal, a changed run does not."""

import importlib.util
from pathlib import Path

from conftest import small_config

_spec = importlib.util.spec_from_file_location(
    "trace_matrix", Path(__file__).resolve().parents[1] / "tools" / "trace_matrix.py")
trace_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_matrix)


def test_digest_matches_an_identical_run_and_not_a_changed_lr(tmp_path, small_dataset):
    def digest(run, **overrides):
        return trace_matrix.run_digest(small_config(
            str(small_dataset), epochs=2, out_dir=str(tmp_path / run), **overrides))

    first = digest("a")
    assert digest("b") == first  # another out_dir, so the checkpoint meta differs
    assert digest("c", lr=0.002) != first

