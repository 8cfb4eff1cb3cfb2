"""Behaviour baseline: a fixed grid of pipeline runs against committed results.

Every cell records log Z, the mode count, each mode's Hessian route and
rotation decision, and the per-stage evaluation counts. A change that
claims "no behaviour change" must reproduce ``baseline.json`` exactly:
counts, modes and routes compare equal, log Z to 1e-12 absolute.

After an intended behaviour change, regenerate the file and say why in the
change description::

    PYTHONPATH=src python tests/test_baseline.py
"""

import json
from pathlib import Path

import pytest

from laplev.errors import LaplevError
from laplev.pipeline import preset_config, run
from laplev.targets import get_target

BASELINE = Path(__file__).with_name("baseline.json")
GRID = (("gaussian", 2), ("gaussian", 8), ("cigar", 8), ("correlated", 8),
        ("rotated-cigar", 8), ("mixture4", 4), ("bimodal-asym", 2))
PRESETS = ("fast", "slow")
SEED = 1
LOG_Z_ATOL = 1e-12


def cell_key(name, dim, preset):
    return f"{name}/{dim}/{preset}"


def observe(name, dim, preset):
    """One run's behaviour summary; a raised pipeline error is recorded too."""
    target = get_target(name, dim, allow_large=True)
    try:
        res = run(target.problem, preset_config(preset, seed=SEED))
    except LaplevError as err:
        return {"error": type(err).__name__, "stage": getattr(err, "stage", None)}
    return {
        "log_z": float(res.log_z_total),
        "n_modes": len(res.modes),
        "modes": [{"hessian_kind": m.hessian_kind, "decision": m.verdict.decision}
                  for m in res.modes],
        "eval_counts": {k: int(v) for k, v in res.eval_counts.items()},
    }


def observe_grid():
    return {cell_key(n, d, p): observe(n, d, p) for n, d in GRID for p in PRESETS}


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def test_baseline_covers_the_grid(baseline):
    assert sorted(baseline) == sorted(cell_key(n, d, p)
                                      for n, d in GRID for p in PRESETS)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("name,dim", GRID)
def test_run_matches_baseline(baseline, name, dim, preset):
    want = baseline[cell_key(name, dim, preset)]
    got = observe(name, dim, preset)
    if "error" in want:
        assert got == want
        return
    assert "error" not in got, got
    assert got["eval_counts"] == want["eval_counts"]
    assert got["n_modes"] == want["n_modes"]
    assert got["modes"] == want["modes"]
    assert abs(got["log_z"] - want["log_z"]) <= LOG_Z_ATOL


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(observe_grid(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
