"""Quickstart: integrate your own log-likelihood over a box prior.

The only contract: a callable taking an (N, d) array of points and
returning N log-likelihood values. Everything else - mode discovery,
curvature estimation, the Gaussian integral per mode - is automatic
and deterministic for a fixed (seed, config).
"""

import numpy as np

from laplev import BoundsBox, Problem, preset_config, result_json, run

# A correlated 3-d Gaussian, peak normalized to 0 at (1, -1, 0.5).
prec = np.array([[2.0, 0.6, 0.0],
                 [0.6, 1.5, -0.4],
                 [0.0, -0.4, 1.0]])
mu = np.array([1.0, -1.0, 0.5])


def log_likelihood(x):
    dx = x - mu
    return -0.5 * np.einsum("ni,ij,nj->n", dx, prec, dx)


problem = Problem(log_likelihood, BoundsBox.cube(3, -6.0, 6.0))
result = run(problem, preset_config("slow", seed=1))

# Closed form for comparison: (2 pi)^{d/2} / sqrt(det prec).
truth = 1.5 * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(prec)[1]

print(f"log Z estimated : {result.log_z_total:.12f}")
print(f"log Z analytic  : {truth:.12f}")
print(f"ratio error     : {abs(np.expm1(result.log_z_total - truth)):.3e}")
print(f"modes found     : {len(result.modes)}")
m = result.modes[0]
print(f"peak            : {np.round(m.peak.position, 6)}")
print(f"geometry        : {m.hessian_kind} Hessian, "
      f"condition {m.condition_number:.2f}")
print(f"evaluations     : {sum(result.eval_counts.values())} "
      f"{result.eval_counts}")
print(f"likelihood calls: {sum(result.call_counts.values())} "
      f"{result.call_counts}")
print()
print("canonical JSON (byte-stable across reruns):")
print(result_json(result, indent=2)[:400] + " ...")
