"""Mode recall and cost of the ``conservative`` preset over a seed sweep.

Runs eggbox/2 at seeds 1-20; mixture4 at d in {2, 3, 4, 8}, seeds 1-6, and
d=16, seeds 1-4; bimodal-asym at d in {2, 3, 8}, seeds 1-6. Prints one line
per cell (mode count, relative error of Z, ``discover`` and total
evaluations), then the totals. ``conservative`` differs from ``fast`` only
in its ascent's step budget (45 steps against 15), so a cell where every
sample stops within 15 steps reads as it does on ``fast``. Run it on two
trees and diff the output to compare their recall and cost::

    PYTHONPATH=src python tests/conservative_sweep.py
"""

import numpy as np

from laplev.pipeline import preset_config, run
from laplev.targets import get_target

SWEEP = ([("eggbox", 2, s) for s in range(1, 21)]
         + [("mixture4", d, s) for d in (2, 3, 4, 8) for s in range(1, 7)]
         + [("mixture4", 16, s) for s in range(1, 5)]
         + [("bimodal-asym", d, s) for d in (2, 3, 8) for s in range(1, 7)])


def main():
    total = discover = 0
    for name, dim, seed in SWEEP:
        target = get_target(name, dim)
        res = run(target.problem, preset_config("conservative", seed=seed))
        err = float(np.expm1(res.log_z_total - target.true_log_integral))
        evals = sum(res.eval_counts.values())
        total += evals
        discover += res.eval_counts["discover"]
        print(f"{name}/{dim} seed {seed}: modes {len(res.modes)} "
              f"err {err:+.3e} discover {res.eval_counts['discover']} total {evals}")
    print(f"{len(SWEEP)} cells: discover {discover}, total {total} evaluations")


if __name__ == "__main__":
    main()
