"""Eigendecomposition-based dimensional reduction of a mode.

Directions of -H at a peak are sorted into three classes by eigenvalue,
with cutoffs relative to the largest eigenvalue lambda_max:

- informative: enough curvature that a downstream sampler should explore
  the direction (lambda above EPS_INFORM_REL * lambda_max);
- nuisance: weakly constrained (lambda above EPS_NUISANCE_REL *
  lambda_max); integrated out analytically with the Gaussian marginal
  1/2 log(2 pi / lambda) each;
- degenerate: curvature indistinguishable from zero; integrated as uniform
  mass over the chord of the parameter box along the eigenvector, log(chord)
  each.

The reduced evaluator is a ``View`` of the problem on the informative
subspace only, phi -> l(V_info phi + peak), with every non-informative
direction pinned at the peak. Its bounds are the informative directions'
box chords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SaddleDirectionError
from .linalg import LOG_2PI, eig_symmetric
from .problem import BoundsBox, View

# Classification cutoffs as fractions of lambda_max: they make the split
# scale-free. The informative cut sits a decade from every registry
# target's spectrum (rotated-cigar's weakest direction is 1e-6 of its
# strongest), so no target's d_eff hangs on the last bits of H.
EPS_INFORM_REL = 1e-7
EPS_NUISANCE_REL = 1e-12


@dataclass(frozen=True)
class ReductionReport:
    """Classification of a mode's curvature directions.

    eigenvalues are of -H, ascending; the index tuples partition
    range(d) as indices into that ascending order. rotation holds the
    matching eigenvectors as columns.
    """

    rotation: np.ndarray
    eigenvalues: np.ndarray
    informative: tuple
    nuisance: tuple
    degenerate: tuple
    d_eff: int
    log_z_nuisance: float
    log_z_degen: float

    def to_dict(self):
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "informative": list(self.informative),
            "nuisance": list(self.nuisance),
            "degenerate": list(self.degenerate),
            "d_eff": int(self.d_eff),
            "log_z_nuisance": float(self.log_z_nuisance),
            "log_z_degen": float(self.log_z_degen),
        }


def box_chords(bounds, center, directions):
    """Extents [t_lo, t_hi] of {center + t * u} inside the box, per column u.

    directions is (d, m); returns two (m,) arrays. A zero component of u
    never bounds t along it.
    """
    directions = np.asarray(directions, dtype=np.float64)
    offset = np.asarray(center, dtype=np.float64)[:, None]
    moving = directions != 0.0
    step = np.where(moving, directions, 1.0)
    a = (bounds.lower[:, None] - offset) / step
    b = (bounds.upper[:, None] - offset) / step
    t_lo = np.where(moving, np.minimum(a, b), -np.inf).max(axis=0)
    t_hi = np.where(moving, np.maximum(a, b), np.inf).min(axis=0)
    return t_lo, t_hi


def reduce_mode(problem, peak, hessian):
    """Split a mode's directions by curvature and build the reduced evaluator.

    hessian is the full symmetric Hessian of the log-likelihood at the
    peak. Returns (ReductionReport, View): the view evaluates the parent on
    phi -> peak + V_info phi over the informative directions' box chords.
    Raises SaddleDirectionError when -H has no positive eigenvalue or one
    below -EPS_NUISANCE_REL * lambda_max (negative beyond roundoff: the
    point is not a maximum along that direction), and InvalidParameterError
    when the Hessian's shape does not match the problem.
    """
    hessian = np.asarray(hessian, dtype=np.float64)
    if hessian.shape != (problem.dim, problem.dim):
        raise InvalidParameterError(
            f"hessian shape {hessian.shape} does not match problem "
            f"dimension {problem.dim}"
        )
    eigenvalues, rotation = eig_symmetric(-hessian)
    lam_max = float(eigenvalues[-1])
    if lam_max <= 0.0:
        raise SaddleDirectionError(
            "no positive-curvature direction at the peak"
        )
    eps_inform = EPS_INFORM_REL * lam_max
    eps_nuisance = EPS_NUISANCE_REL * lam_max
    if eigenvalues[0] < -eps_nuisance:
        raise SaddleDirectionError(
            f"negative curvature direction (lambda {eigenvalues[0]:.3g})"
        )

    informative, nuisance, degenerate = [], [], []
    for i, lam in enumerate(eigenvalues):
        if lam > eps_inform:
            informative.append(i)
        elif lam > eps_nuisance:
            nuisance.append(i)
        else:
            degenerate.append(i)

    log_z_nuisance = float(sum(
        0.5 * (LOG_2PI - np.log(eigenvalues[i])) for i in nuisance
    ))

    center = np.asarray(peak.position, dtype=np.float64)
    t_lo, t_hi = box_chords(problem.bounds, center, rotation)
    log_z_degen = float(sum(np.log(t_hi[i] - t_lo[i]) for i in degenerate))

    report = ReductionReport(
        rotation=rotation,
        eigenvalues=eigenvalues,
        informative=tuple(informative),
        nuisance=tuple(nuisance),
        degenerate=tuple(degenerate),
        d_eff=len(informative),
        log_z_nuisance=log_z_nuisance,
        log_z_degen=log_z_degen,
    )
    reduced = View(problem, center, rotation[:, informative],
                   BoundsBox(t_lo[informative], t_hi[informative]))
    return report, reduced
