"""Behaviour baseline: a fixed grid of pipeline runs against committed results.

Every cell records log Z, the mode count, each mode's Hessian route and
rotation decision, the per-stage evaluation counts, and the length-scale
triple the survey inferred (as ``float.hex``, with the fallback flag). A
change that claims "no behaviour change" must reproduce ``baseline.json``
exactly: counts, modes, routes and scales compare equal, log Z to 1e-12
absolute. A cell whose run raises records the error. Some cells pin known
faults as they stand: correlated/16 takes the diagonal route and
rotated-cigar/16 raises ``NoValidMaximaError``. That records current
behaviour; it does not endorse it.

The grid runs ``fast`` and ``slow`` on every target. A smaller slice runs
``conservative``, the only preset whose later oscillations take the
smoothed ascent between rounds: eggbox, mixture4 and bimodal-asym at d=2,
and mixture4 and bimodal-asym at d=8.

After an intended behaviour change, regenerate the file and say why in the
change description::

    PYTHONPATH=src python tests/test_baseline.py
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


def cell_key(name, dim, preset):
    return f"{name}/{dim}/{preset}"


def observe_scales(problem, config):
    """The scale triple ``run`` reads off its survey.

    Same generator (the first stream spawned off the seed), same active
    subproblem and survey budget as the pipeline.
    """
    tol, bud = config.tolerances, config.budgets
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[0])
    report = precheck(problem, eps_flat=tol["eps_flat"], eps_soft=tol["eps_soft"])
    active = active_subproblem(problem, report)
    est = estimate_scales(survey(active, rng, n_coarse=bud["n_coarse"]), active.bounds)
    return {"lam": [float(x).hex() for x in est.as_tuple()], "fallback": est.fallback}


def observe(name, dim, preset):
    """One run's behaviour summary; a raised pipeline error is recorded too."""
    config = preset_config(preset, seed=SEED)
    scales = observe_scales(get_target(name, dim, allow_large=True).problem, config)
    # A fresh problem: the survey above moved the running peak_logl.
    target = get_target(name, dim, allow_large=True)
    try:
        res = run(target.problem, config)
    except LaplevError as err:
        return {"error": type(err).__name__, "stage": getattr(err, "stage", None),
                "scales": scales}
    return {
        "log_z": float(res.log_z_total),
        "n_modes": len(res.modes),
        "modes": [{"hessian_kind": m.hessian_kind, "decision": m.verdict.decision}
                  for m in res.modes],
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


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(observe_grid(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
