"""The trace-matrix digest tool: equal runs hash equal, a changed run does not."""

import importlib.util
from pathlib import Path

import numpy as np

from tcgl import evalkit, sampler, trainer

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



def test_eval_digest_matches_identical_inputs_and_not_another_seeds_checkpoint(tmp_path):
    data = tmp_path / "data"  # enough videos that the gallery holds the top 50
    sampler.generate_dataset(data, num_videos=120, num_classes=4, seed=2)

    def digest(seed):
        config = trainer.TrainConfig(data_dir=str(data), val_fraction=0.5, seed=seed,
                                     feature_dim=8, gcn_dim=8).validate()
        return trace_matrix.eval_digest(data, trace_matrix.fresh_checkpoint(config))

    first = digest(7)
    assert digest(7) == first
    assert digest(8) != first


def test_report_digest_matches_an_equal_report_and_not_a_changed_measurement():
    def digest(measured):
        report = evalkit.VerificationReport()
        report.add("grad/relu", measured, 1e-4)
        report.add("views/edge_removal_rate", 0.003, 0.02, detail="rate 0.1970 vs nominal 0.2")
        return trace_matrix.report_digest(report)

    first = digest(2.5e-9)
    assert digest(2.5e-9) == first
    assert digest(np.nextafter(2.5e-9, 1.0)) != first
