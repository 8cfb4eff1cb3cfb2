"""Dimensional reduction: split a mode's curvature into what matters.

The eigenvalues of the negative Hessian at a peak sort directions into
informative (real constraints), nuisance (so weak the prior box barely
clips the Gaussian), and degenerate (no curvature at all - their mass is
the box chord length, not a Gaussian integral).

Part 1 runs the pipeline with reduce=True: exactly-flat *axes* are
already stripped by the precheck, and each surviving mode gets a
reduction report for the subtler in-search directions.

Part 2 hand-rolls a reduction on a rotated trough - a line of maxima
that is not aligned with any axis, so only the eigenbasis can see it.
"""

import numpy as np

from laplev import BoundsBox, Problem, preset_config, reduce_mode, run
from laplev.refine import refine_peaks
from laplev.discovery import Peak
from laplev.lbfgs import make_state

# --- Part 1: pipeline view -------------------------------------------------
# Axis 2 is exactly flat: the precheck marginalizes it before any search.
# Only an axis the likelihood moves by at most FLAT_NATS across the box is
# set aside, so a weak direction stays in the search and reaches mode
# level. Here curvature 25 and 1e-7 live at 0.4 rad to the axes, so both
# axis probes look healthy and the eigenbasis has to make the nuisance
# call.
theta0 = 0.4
c, s = np.cos(theta0), np.sin(theta0)
rot_xy = np.array([[c, -s], [s, c]])
prec_xy = rot_xy @ np.diag([25.0, 1e-7]) @ rot_xy.T


def log_likelihood(x):
    return -0.5 * np.einsum("ni,ij,nj->n", x[:, :2], prec_xy, x[:, :2])


problem = Problem(log_likelihood, BoundsBox.cube(3, -4.0, 4.0))
result = run(problem, preset_config("slow", seed=2, reduce=True))
report = result.reduction[0]
print("pipeline on [sharp x weak, rotated 0.4 rad] x [flat axis]:")
print(f"  precheck flat axes : {tuple(result.precheck.flat)} "
      "(marginalized before search)")
print(f"  mode eigenvalues   : {report.eigenvalues}")
print(f"  informative        : {report.informative}  (d_eff={report.d_eff})")
print(f"  nuisance           : {report.nuisance}  "
      f"(Gaussian mass {report.log_z_nuisance:+.4f})")
print()

# --- Part 2: a trough no axis probe can see --------------------------------
# Curvature 25 across the line y = x tan(0.4), exactly zero along it.
theta = 0.4
u = np.array([np.cos(theta), np.sin(theta)])      # along the trough
v = np.array([-np.sin(theta), np.cos(theta)])     # across it
prec = 25.0 * np.outer(v, v)


def trough(x):
    return -0.5 * 25.0 * (x @ v) ** 2


problem2 = Problem(trough, BoundsBox.cube(2, -4.0, 4.0))
start = 0.3 * u  # somewhere on the line of maxima, where the gradient is 0
# An ascent state there holds the value and diagonal Hessian that the
# search would hand over for a held peak.
state = make_state(problem2, start[None, :], problem2.logl(start), (), 0.01)
hess, steps = state.hess_diag([0])
held = Peak(start, float(state.logl[0]), hess[0], steps[0])
peaks, _ = refine_peaks(problem2, [held])

rep, reduced = reduce_mode(problem2, peaks[0], -prec)
chord = np.exp(rep.log_z_degen)
print("hand-rolled reduction on the rotated trough:")
print(f"  eigenvalues of -H  : {np.round(rep.eigenvalues, 9)}")
print(f"  degenerate         : {rep.degenerate} -> chord length "
      f"{chord:.3f} through the box")
print(f"  reduced problem    : dim {reduced.dim} (from {problem2.dim})")
phi = np.zeros((1, rep.d_eff))
print(f"  evaluator at peak  : {reduced.logl(phi)[0]:+.3e} "
      f"(peak logl {peaks[0].logl:+.3e})")

# The exact integral is the 1-d Gaussian across the trough times the
# chord along it: sqrt(2 pi / 25) * chord.
truth = 0.5 * np.log(2 * np.pi / 25.0) + rep.log_z_degen
laplace_info = 0.5 * np.log(2 * np.pi / 25.0)
est = laplace_info + rep.log_z_degen + peaks[0].logl
print(f"  assembled log Z    : {est:+.6f}  analytic {truth:+.6f}")
