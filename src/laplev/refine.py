"""Peak validation: measure each held peak's curvature, filter, merge.

Every coarse peak reaching this stage has already stuck in the search: its
gradient sup-norm is below the search's stick threshold and its value is
finite. It is taken as it stands, position, value and gradient, and is not
climbed again. One fused batch of 2d rows per peak measures the diagonal
Hessian at every peak at once; a peak whose stencil is non-finite or that
curves upward along some axis is rejected, and the survivors are merged
by their widths. The evidence stage's off-diagonal probe starts from that
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoValidMaximaError
from .lbfgs import axis_values
# Unused here: the benchmark tracer (perfbench/spans.py) wraps this name.
from .lbfgs import step_batch  # noqa: F401
from .linalg import dedup_linf

# Hessian stencil step per coordinate (see ``hess_steps``).
HESS_STEP_WIDTH = 1e-4
HESS_STEP_ABS = 1e-6
WIDTH_FLOOR_SCALE = 1e-12


def hess_steps(position, widths):
    """Per-coordinate step of ``diag_hessian`` and the evidence stage's
    full-Hessian stencil.

    The larger of a fixed fraction of the width hint and an absolute floor
    that grows with |position|, keeping the difference signal above the
    subtraction noise that grows with |logl|. Broadcasts like its arguments.
    """
    return np.maximum(HESS_STEP_WIDTH * widths,
                      HESS_STEP_ABS * (1.0 + np.abs(position)))


def diag_hessian(problem, centers, center_logl, widths):
    """Per-axis second differences at given centers, one fused batch.

    ``widths`` is one scalar length hint per row, turned into a step per
    coordinate by ``hess_steps``. Center values are passed in, so the cost
    is exactly 2*N*d evaluations. Returns (hess_diag, bad) where ``bad``
    flags rows with any non-finite entry.
    """
    th = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n, d = th.shape
    v0 = np.asarray(center_logl, dtype=np.float64).reshape(n)
    w = np.asarray(widths, dtype=np.float64).reshape(n, 1)
    eps = hess_steps(th, w)
    vals = axis_values(problem, th, eps)
    hess = (vals[:, :d] - 2.0 * v0[:, None] + vals[:, d:]) / eps**2
    bad = ~np.isfinite(hess).all(axis=1)
    return hess, bad


def peak_widths(hess_diag, bound_widths):
    """Per-axis sigma from strictly negative diagonals, one per row.

    Returns the widths, floored at a fraction of the box, and a flag per row
    that is set when any of its axes hit that floor.
    """
    w = 1.0 / np.sqrt(-np.asarray(hess_diag, dtype=np.float64))
    floor = WIDTH_FLOOR_SCALE * np.asarray(bound_widths, dtype=np.float64)
    return np.maximum(w, floor), (w < floor).any(axis=-1)


@dataclass
class RefinedPeak:
    position: np.ndarray
    logl: float
    hess_diag: np.ndarray
    widths: np.ndarray
    grad_inf: float
    origin: int
    width_floored: bool


def refine_peaks(problem, coarse_peaks, lam_fine):
    """Validate held coarse peaks into maxima with a measured curvature.

    Each peak keeps its position, value and gradient; its Hessian stencil
    steps follow its width, never below ``lam_fine``. The only likelihood
    call is the one ``diag_hessian`` batch, 2d rows per peak.

    Returns (peaks, warnings); warnings holds at most one line, counting the
    peaks whose width hit the resolution floor. Raises the no-valid-maxima
    error, with a per-filter casualty count, when every peak is rejected.
    """
    if not coarse_peaks:
        raise NoValidMaximaError({"no_input_peaks": 0}, 0)

    theta = np.array([pk.position for pk in coarse_peaks], dtype=np.float64)
    logl = np.array([pk.logl for pk in coarse_peaks], dtype=np.float64)
    hints = np.maximum([pk.width for pk in coarse_peaks], lam_fine)
    hess, bad = diag_hessian(problem, theta, logl, hints)
    saddle = ~bad & (hess >= 0).any(axis=1)
    reasons = {"hessian_nonfinite": int(bad.sum()), "saddle": int(saddle.sum())}
    alive = np.flatnonzero(~(bad | saddle))
    if alive.size == 0:
        raise NoValidMaximaError(reasons, len(coarse_peaks))

    hess = hess[alive]
    widths, floored = peak_widths(hess, problem.bounds.widths)
    n_floored = int(floored.sum())
    warnings = ([f"peak width hit the resolution floor on {n_floored} of"
                 f" {alive.size} peaks"] if n_floored else [])
    kept = dedup_linf(theta[alive], logl[alive], 1.0, widths=widths.min(axis=0))
    peaks = [
        RefinedPeak(
            position=theta[r].copy(),
            logl=float(logl[r]),
            hess_diag=hess[i],
            widths=widths[i],
            grad_inf=coarse_peaks[r].grad_inf,
            origin=int(r),
            width_floored=bool(floored[i]),
        )
        for i, r in zip(kept, alive[kept])
    ]
    peaks.sort(key=lambda p: -p.logl)
    return peaks, warnings
