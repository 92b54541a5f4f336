"""Each demo runs to completion against the library in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_margin_sweep.py"}  # trains one model per margin value


@pytest.mark.parametrize(
    "demo",
    [pytest.param(d, id=d.name, marks=[pytest.mark.slow] if d.name in SLOW else []) for d in DEMOS],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
