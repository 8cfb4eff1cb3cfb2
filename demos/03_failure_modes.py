"""Honest failure: heavy tails bias the answer, funnels warn or refuse.

A Gaussian integral around each peak is only as good as the Gaussian
assumption. On a Student-t (nu=3) the tails carry mass the local
curvature cannot see: the evidence is *underestimated*, the bias grows
with dimension, and the run says so out loud via the tail diagnostic.
On a funnel the mass sits in a neck the Gaussian step cannot represent.
At d=3 the search reaches the neck and the answer is far too low, so it
comes with warnings; at d=4 and d=8 no ascent sticks and the pipeline
raises a typed error instead of returning a number.
"""

import numpy as np

from laplev import NoModesFoundError, get_target, preset_config, run

print("Student-t nu=3: underestimation grows with dimension")
for dim in (2, 8, 16):
    target = get_target("student-t-3", dim)
    result = run(target.problem, preset_config("slow", seed=1))
    err = np.expm1(result.log_z_total - target.true_log_integral)
    flags = "; ".join(result.warnings) or "-"
    print(f"  d={dim:<3d} ratio error {err:+.1%}   warnings: {flags}")

print()
print("Funnel (sigma=3): the Gaussian step cannot see the neck")
for dim in (3, 4, 8):
    target = get_target("funnel-3", dim)
    try:
        result = run(target.problem, preset_config("slow", seed=1))
    except NoModesFoundError as err:
        print(f"  d={dim}: refused loudly -> {type(err).__name__} "
              f"[stage {err.stage}]")
        continue
    gap = result.log_z_total - target.true_log_integral
    if not result.warnings:
        print(f"  d={dim}: unexpectedly returned a result without warnings")
        continue
    print(f"  d={dim}: log Z off by {gap:+.1f} nats, flagged -> "
          f"{'; '.join(result.warnings)}")
