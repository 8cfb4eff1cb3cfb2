"""Behaviour baseline: a fixed grid of pipeline runs against committed results.

Every cell records log Z, the mode count, each mode's Hessian route and
rotation decision, the per-stage evaluation counts, and the length scale
the survey inferred (as ``float.hex``, with the fallback flag). A
change that claims "no behaviour change" must reproduce ``baseline.json``
exactly: counts, modes, routes and scales compare equal, log Z to 1e-12
absolute. A cell whose run raises records the error.

The grid runs ``fast`` and ``slow`` on every target. A smaller slice runs
``conservative``, the only preset with a longer ascent step budget (45
steps, against 15): eggbox, mixture4 and bimodal-asym at d=2, and mixture4
and bimodal-asym at d=8.

After an intended behaviour change, regenerate the file and say why in the
change description::

    PYTHONPATH=src python tests/test_baseline.py

It prints, per cell, every field that moved against the committed file
(``eval_counts.discover: 9037 -> 2073``) before it overwrites it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from laplev.discovery import estimate_scales, survey
from laplev.errors import LaplevError
from laplev.pipeline import preset_config, run
from laplev.precheck import active_subproblem, precheck
from laplev.targets import get_target

BASELINE = Path(__file__).with_name("baseline.json")
GRID = (("gaussian", 2), ("gaussian", 8), ("gaussian", 32), ("cigar", 8),
        ("cigar", 32), ("correlated", 8), ("correlated", 16),
        ("rotated-cigar", 8), ("rotated-cigar", 16), ("mixture4", 4),
        ("mixture4", 16), ("bimodal-asym", 2))
PRESETS = ("fast", "slow")
CONSERVATIVE_GRID = (("eggbox", 2), ("mixture4", 2), ("bimodal-asym", 2),
                     ("mixture4", 8), ("bimodal-asym", 8))
CELLS = (tuple((n, d, p) for n, d in GRID for p in PRESETS)
         + tuple((n, d, "conservative") for n, d in CONSERVATIVE_GRID))
SEED = 1
LOG_Z_ATOL = 1e-12
# A mode's rotation decision is its Hessian route under another name
# (rotated <=> full); the committed file keeps both fields.
DECISION = {"diagonal": "axis_aligned", "full": "rotated"}


def cell_key(name, dim, preset):
    return f"{name}/{dim}/{preset}"


def observe_scales(problem, config):
    """The length scale ``run`` reads off its survey.

    Same generator (the first stream spawned off the seed) and same active
    subproblem as the pipeline.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[0])
    active = active_subproblem(problem, precheck(problem))
    est = estimate_scales(survey(active, rng), active.bounds)
    return {"lam": float(est.lam_fine).hex(), "fallback": est.fallback}


def observe(name, dim, preset):
    """One run's behaviour summary; a raised pipeline error is recorded too."""
    config = preset_config(preset, seed=SEED)
    target = get_target(name, dim, allow_large=True)
    scales = observe_scales(target.problem, config)
    try:
        res = run(target.problem, config)
    except LaplevError as err:
        return {"error": type(err).__name__, "stage": getattr(err, "stage", None),
                "scales": scales}
    return {
        "log_z": float(res.log_z_total),
        "n_modes": len(res.modes),
        "modes": [{"hessian_kind": m.hessian_kind,
                   "decision": DECISION[m.hessian_kind]} for m in res.modes],
        "eval_counts": {k: int(v) for k, v in res.eval_counts.items()},
        "scales": scales,
    }


def observe_grid():
    return {cell_key(n, d, p): observe(n, d, p) for n, d, p in CELLS}


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def test_baseline_covers_the_grid(baseline):
    assert sorted(baseline) == sorted(cell_key(n, d, p) for n, d, p in CELLS)


@pytest.mark.parametrize("name,dim,preset", CELLS)
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
    assert got["scales"] == want["scales"]
    assert abs(got["log_z"] - want["log_z"]) <= LOG_Z_ATOL


def moved_fields(old, new, prefix=""):
    """``(field, old, new)`` for every leaf that differs; dicts are walked by key."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [moved for key in sorted(set(old) | set(new))
                for moved in moved_fields(old.get(key), new.get(key),
                                          f"{prefix}.{key}" if prefix else key)]
    return [] if old == new else [(prefix or "cell", old, new)]


if __name__ == "__main__":
    committed = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    grid = observe_grid()
    for cell in sorted(set(committed) | set(grid)):
        for field, was, now in moved_fields(committed.get(cell), grid.get(cell)):
            print(f"{cell} {field}: {was} -> {now}")
    BASELINE.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
