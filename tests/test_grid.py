"""Honest-failure grid: every registry target at every desk-scale dimension.

The grid is each registry target x d in {2, 3, 4, 8, 16} within the CLI
caps (a dimension the target rejects is left out) x ``fast`` and
``conservative``, at seed 1. Each cell records its outcome class and its
mode count:

* ``accurate``: |Z / Z_true - 1| <= 1e-2 and no warning;
* ``warned``: the run answered with at least one warning;
* ``error``: the run raised a package error, recorded with its class and
  the stage that raised it;
* ``silent``: the run answered more than 1e-2 off without a warning.

Every cell must match ``grid.json``, so a cell cannot turn silent, change
class or change its mode count unless the file changes with it, and a
silent cell cannot drop out of the file unnoticed. After an intended
change, regenerate the file and say why in the change description::

    PYTHONPATH=src python tests/test_grid.py

It prints every cell that moved against the committed file before it
overwrites it.

A sweep over more seeds writes its own file and leaves ``grid.json`` as it
is; each entry is one (cell, seed), keyed ``name/dim/preset/seed``::

    PYTHONPATH=src python tests/test_grid.py --seeds 1-10 --out sweep.json

When the output file exists, the sweep prints every entry that moved
against it before it overwrites it. So running the sweep in two trees into
the same file shows what moved between them.
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from laplev.errors import LaplevError
from laplev.pipeline import preset_config, run
from laplev.targets import dim_cap, get_target, list_targets

GRID_FILE = Path(__file__).with_name("grid.json")
DIMS = (2, 3, 4, 8, 16)
PRESETS = ("fast", "conservative")
SEED = 1
ACCURATE = 1e-2


def _accepts(name, dim):
    if dim > dim_cap(name):
        return False
    try:
        get_target(name, dim)
    except LaplevError:
        return False
    return True


CELLS = tuple((n, d, p) for n in list_targets() for d in DIMS if _accepts(n, d)
              for p in PRESETS)


def cell_key(name, dim, preset):
    return f"{name}/{dim}/{preset}"


def observe(name, dim, preset, seed=SEED):
    """One cell's outcome class and mode count at ``seed``."""
    target = get_target(name, dim)
    try:
        res = run(target.problem, preset_config(preset, seed=seed))
    except LaplevError as err:
        return {"class": "error", "error": type(err).__name__,
                "stage": getattr(err, "stage", None)}
    err = float(abs(np.expm1(res.log_z_total - target.true_log_integral)))
    if res.warnings:
        outcome = "warned"
    elif err <= ACCURATE:
        outcome = "accurate"
    else:
        outcome = "silent"
    return {"class": outcome, "n_modes": len(res.modes)}


@pytest.fixture(scope="module")
def grid():
    return json.loads(GRID_FILE.read_text())


def test_grid_covers_every_cell(grid):
    assert sorted(grid) == sorted(cell_key(n, d, p) for n, d, p in CELLS)


@pytest.mark.parametrize("name,dim,preset", CELLS)
def test_cell_matches_grid(grid, name, dim, preset):
    assert observe(name, dim, preset) == grid[cell_key(name, dim, preset)]


def parse_seeds(text):
    """``"3"`` or an inclusive range ``"1-10"`` as a tuple of seeds."""
    lo, _, hi = text.partition("-")
    return tuple(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=(SEED,),
                        help="a seed or an inclusive range, e.g. 1-10 (default 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write a per-seed sweep here instead of grid.json")
    args = parser.parse_args(argv)
    if args.out is None and args.seeds != (SEED,):
        parser.error(f"grid.json holds seed {SEED} only; give --out for other seeds")
    out = args.out or GRID_FILE
    previous = json.loads(out.read_text()) if out.exists() else {}
    if args.out is None:
        cells = {cell_key(n, d, p): observe(n, d, p) for n, d, p in CELLS}
    else:
        cells = {f"{cell_key(n, d, p)}/{s}": observe(n, d, p, seed=s)
                 for s in args.seeds for n, d, p in CELLS}
    for cell in sorted(set(previous) | set(cells)):
        if previous.get(cell) != cells.get(cell):
            print(f"{cell}: {previous.get(cell)} -> {cells.get(cell)}")
    counts = {}
    for obs in cells.values():
        counts[obs["class"]] = counts.get(obs["class"], 0) + 1
    out.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(cells)} entries, {counts}")


if __name__ == "__main__":
    main()
