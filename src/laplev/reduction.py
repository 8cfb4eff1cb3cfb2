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

The reduced evaluator exposes the log-likelihood on the informative
subspace only, phi -> l(V_info phi + peak), with every non-informative
direction pinned at the peak. Downstream consumers get the reduced bounds
(per-direction box chords) alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SaddleDirectionError
from .linalg import LOG_2PI, eig_symmetric
from .problem import BoundsBox

# Classification cutoffs as fractions of lambda_max: they make the split
# scale-free.
EPS_INFORM_REL = 1e-6
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


class ReducedProblem:
    """Log-likelihood restricted to the informative subspace of a peak.

    Mirrors the evaluator interface (bounds/dim/logl); evaluations
    are delegated to the parent problem, so they appear in the parent's
    eval_counter.
    """

    def __init__(self, parent, center, basis, bounds):
        self._parent = parent
        self._center = np.asarray(center, dtype=np.float64)
        self._basis = np.asarray(basis, dtype=np.float64)  # (d, d_eff)
        self.bounds = bounds

    @property
    def dim(self) -> int:
        return self._basis.shape[1]

    @property
    def eval_counter(self) -> int:
        return self._parent.eval_counter

    @property
    def peak_logl(self) -> float:
        return self._parent.peak_logl

    def embed(self, phi) -> np.ndarray:
        """Map reduced coordinates (N, d_eff) to full coordinates (N, d)."""
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
        return phi @ self._basis.T + self._center

    def logl(self, phi) -> np.ndarray:
        return self._parent.logl(self.embed(phi))


def box_chord(bounds, center, direction):
    """Extent [t_lo, t_hi] of {center + t * direction} inside the box."""
    center = np.asarray(center, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    t_lo, t_hi = -np.inf, np.inf
    for j in range(center.size):
        v = direction[j]
        if v == 0.0:
            continue
        a = (bounds.lower[j] - center[j]) / v
        b = (bounds.upper[j] - center[j]) / v
        t_lo = max(t_lo, min(a, b))
        t_hi = min(t_hi, max(a, b))
    return t_lo, t_hi


def reduce_mode(problem, peak, hessian):
    """Split a mode's directions by curvature and build the reduced evaluator.

    hessian is the full symmetric Hessian of the log-likelihood at the
    peak. Returns (ReductionReport, ReducedProblem). Raises
    SaddleDirectionError when -H has no positive eigenvalue or one below
    -EPS_NUISANCE_REL * lambda_max (negative beyond roundoff: the point is
    not a maximum along that direction), and InvalidParameterError when
    the Hessian's shape does not match the problem.
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
    log_z_degen = 0.0
    for i in degenerate:
        t_lo, t_hi = box_chord(problem.bounds, center, rotation[:, i])
        log_z_degen += float(np.log(t_hi - t_lo))

    basis = rotation[:, informative]
    chords = np.array([
        box_chord(problem.bounds, center, basis[:, k])
        for k in range(len(informative))
    ])
    if len(informative):
        reduced_bounds = BoundsBox(chords[:, 0], chords[:, 1])
    else:
        reduced_bounds = BoundsBox(np.zeros(0), np.zeros(0))

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
    reduced = ReducedProblem(problem, center, basis, reduced_bounds)
    return report, reduced
