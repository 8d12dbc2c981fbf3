"""Every demo script runs to completion: one subprocess per demo, exit code 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_the_demo_directory_holds_the_four_demos():
    assert [d.name for d in _DEMOS] == ["01_generate_data.py", "02_gradcheck.py",
                                         "03_train_order.py", "04_retrieval.py"]


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_exits_zero(demo):
    src = str(_ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
