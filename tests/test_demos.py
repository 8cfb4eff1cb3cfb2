"""Every demo script runs to completion with no stray RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
