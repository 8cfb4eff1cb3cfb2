"""Pre-screening of pathological coordinates before any search runs.

One batch of 2d+1 axis probes from the box center splits coordinates into
flat (no sensitivity at all), soft (orders of magnitude below the dominant
axes), and active. Flat and soft coordinates are integrated out analytically
and the expensive machinery only sees the active subspace: a ``View`` over
the active axes, with the rest pinned at the box center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterEvaluationError, DegenerateProblemError
from .problem import BoundsBox, Problem, View

EPS_FLAT = 1e-6
EPS_SOFT = 1e-3


@dataclass(frozen=True)
class PrecheckReport:
    """Outcome of the 2d+1 probe screen."""

    sensitivities: np.ndarray
    flat: tuple
    soft: tuple
    active: tuple
    log_z_marginal: float
    center_logl: float
    eval_cost: int

    def to_dict(self):
        return {
            "sensitivities": [float(s) for s in self.sensitivities],
            "flat": list(self.flat),
            "soft": list(self.soft),
            "active": list(self.active),
            "log_z_marginal": float(self.log_z_marginal),
            "center_logl": float(self.center_logl),
            "eval_cost": int(self.eval_cost),
        }


def _lower_median(values) -> float:
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(v[(v.size - 1) // 2])


def precheck(problem: Problem) -> PrecheckReport:
    """Classify coordinates by axis sensitivity around the box center.

    Sensitivity of axis i is s_i = |l(c + D_i e_i) - l(c)| +
    |l(c - D_i e_i) - l(c)| with D_i the half width. Flat axes have exactly
    zero sensitivity or fall below EPS_FLAT times the (lower) median of the
    finite sensitivities; soft axes fall below EPS_SOFT times the largest
    finite sensitivity without being flat. A probe that reads an infinite
    value (a support edge on one face) gives its axis an infinite
    sensitivity, which is not the scale of the others.

    Flat axes contribute their prior width log(b_i - a_i) to the marginal.
    Soft axes get a Gaussian marginal with the probe-implied scale
    D_i / sqrt(s_i).

    All 2d+1 evaluations go out as a single batch.
    """
    d = problem.dim
    center = problem.bounds.center
    half = 0.5 * problem.bounds.widths
    pts = np.tile(center, (2 * d + 1, 1))
    idx = np.arange(d)
    pts[1 + idx, idx] += half
    pts[1 + d + idx, idx] -= half
    vals = problem.logl(pts)
    l0 = vals[0]
    if not np.isfinite(l0):
        raise CenterEvaluationError(f"log-likelihood at the box center is {l0}")
    up = vals[1 : 1 + d]
    dn = vals[1 + d :]
    s = np.abs(up - l0) + np.abs(dn - l0)
    if np.all(s == 0.0):
        raise DegenerateProblemError(
            "every axis probe at +-half width read the center's value; the "
            "likelihood may still vary between the probes"
        )
    finite = s[np.isfinite(s)]
    med = _lower_median(finite) if finite.size else 0.0
    smax = float(np.max(finite, initial=0.0))
    flat_mask = (s == 0.0) | (s < EPS_FLAT * med)
    soft_mask = (s < EPS_SOFT * smax) & ~flat_mask
    flat = tuple(int(i) for i in np.where(flat_mask)[0])
    soft = tuple(int(i) for i in np.where(soft_mask)[0])
    active = tuple(int(i) for i in np.where(~flat_mask & ~soft_mask)[0])
    widths = problem.bounds.widths
    marginal = 0.0
    for i in flat:
        marginal += np.log(widths[i])
    for i in soft:
        # Gaussian scale implied by the probe drop: s ~ (D/sigma)^2.
        sigma = half[i] / np.sqrt(s[i])
        marginal += 0.5 * np.log(2.0 * np.pi) + np.log(sigma)
    return PrecheckReport(
        sensitivities=s,
        flat=flat,
        soft=soft,
        active=active,
        log_z_marginal=float(marginal),
        center_logl=float(l0),
        eval_cost=2 * d + 1,
    )


def active_subproblem(problem: Problem, report: PrecheckReport):
    """Restrict the problem to active axes, pinning the rest at the center."""
    if len(report.active) == problem.dim:
        return problem
    axes = np.asarray(report.active, dtype=np.intp)
    box = problem.bounds
    return View(problem, box.center, axes,
                BoundsBox(box.lower[axes], box.upper[axes]))
