"""Pre-screening of coordinates the likelihood does not move.

One batch of 2d+1 axis probes from the box center splits coordinates into
flat (the likelihood does not move along them, to within ``FLAT_NATS``)
and active. Flat coordinates are integrated out analytically over their
prior width, and the expensive machinery only sees the active subspace: a
``View`` over the active axes, with the flat ones pinned at the box center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterEvaluationError, DegenerateProblemError
from .lbfgs import axis_points
from .problem import BoundsBox, Problem, View

# Six decades below the smallest sensitivity of any registry target.
FLAT_NATS = 1e-6


@dataclass(frozen=True)
class PrecheckReport:
    """Outcome of the 2d+1 probe screen."""

    sensitivities: np.ndarray
    flat: tuple
    active: tuple
    log_z_marginal: float
    center_logl: float

    def to_dict(self):
        return {
            "sensitivities": [float(s) for s in self.sensitivities],
            "flat": list(self.flat),
            "active": list(self.active),
            "log_z_marginal": float(self.log_z_marginal),
            "center_logl": float(self.center_logl),
        }


def precheck(problem: Problem) -> PrecheckReport:
    """Classify coordinates by axis sensitivity around the box center.

    Sensitivity of axis i is s_i = |l(c + D_i e_i) - l(c)| +
    |l(c - D_i e_i) - l(c)| with D_i the half width, in nats. An axis is
    flat when s_i <= ``FLAT_NATS``: the likelihood then moves by no more
    than that across the box along it, and its prior width log(b_i - a_i)
    is its marginal. Every other axis is active, including one whose probe
    reads an infinite or NaN value (a support edge on one face).

    All 2d+1 evaluations go out as a single batch.
    """
    d = problem.dim
    center = problem.bounds.center
    half = 0.5 * problem.bounds.widths
    vals = problem.logl(np.vstack([center, axis_points(center[None], half)]))
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
    flat_mask = s <= FLAT_NATS
    return PrecheckReport(
        sensitivities=s,
        flat=tuple(int(i) for i in np.flatnonzero(flat_mask)),
        active=tuple(int(i) for i in np.flatnonzero(~flat_mask)),
        log_z_marginal=float(np.sum(np.log(problem.bounds.widths[flat_mask]))),
        center_logl=float(l0),
    )


def active_subproblem(problem: Problem, report: PrecheckReport):
    """Restrict the problem to active axes, pinning the rest at the center."""
    if len(report.active) == problem.dim:
        return problem
    axes = np.asarray(report.active, dtype=np.intp)
    box = problem.bounds
    return View(problem, box.center, axes,
                BoundsBox(box.lower[axes], box.upper[axes]))
