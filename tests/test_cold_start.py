"""Importing laplev and running the pipeline must not load scipy.

scipy serves only some analytic targets (quadrature truths, gamma-function
normalizations, the skew-normal likelihood) and is imported inside their
builders. These checks run in a fresh interpreter, because the test process
has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

PIPELINE = """
import contextlib, io
import laplev
from laplev import cli

for name in ("gaussian", "cigar", "mixture4", "bimodal-asym", "correlated",
             "rotated-cigar"):
    laplev.get_target(name, 4)
target = laplev.get_target("gaussian", 4)
laplev.run(target.problem, laplev.preset_config("fast", seed=1))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--problem", "gaussian", "--dim", "4"]) == 0
"""


def scipy_modules_after(code):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + REPORT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_pipeline_load_no_scipy():
    assert scipy_modules_after(PIPELINE) == []


def test_full_route_loads_no_scipy():
    # rotated-cigar/8 takes the full-Hessian route, whose log det comes
    # from numpy's LAPACK Cholesky rather than scipy's.
    loaded = scipy_modules_after(
        "import laplev\n"
        "res = laplev.run(laplev.get_target('rotated-cigar', 8).problem,\n"
        "                 laplev.preset_config('fast', seed=1))\n"
        "assert [m.hessian_kind for m in res.modes] == ['full']\n")
    assert loaded == []


def test_scipy_target_loads_scipy():
    # The same probe sees scipy once a target that needs it is built.
    loaded = scipy_modules_after("import laplev\nlaplev.get_target('student-t-3', 2)")
    assert "scipy.special" in loaded
