"""Peak polishing: re-seed around each coarse peak, converge hard, filter.

Every surviving peak leaves this stage with a machine-tight position, a
diagonal Hessian measured at the converged point and per-axis widths. The
evidence stage's off-diagonal probe starts from that diagonal.

The filter cascade is ordered by cost: checks that reuse already-computed
values run first, the single Hessian batch runs only for deduplicated
survivors, and nothing is evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoValidMaximaError
from .lbfgs import axis_values, run_batch
# Unused here: the benchmark tracer (perfbench/spans.py) wraps this name.
from .lbfgs import step_batch  # noqa: F401
from .linalg import dedup_linf, dedup_radius

GRAD_FILTER_SCALE = 1e-6
# Gradient sup-norm at which a polish seed stops climbing.
POLISH_GRAD_TOL = 1e-10
# Hessian stencil step per coordinate (see ``hess_steps``).
HESS_STEP_WIDTH = 1e-4
HESS_STEP_ABS = 1e-6
WIDTH_FLOOR_SCALE = 1e-12
FAST_SEED_COUNT = 20
SEED_OFFSET = 0.9


def refine_iterations(dim: int) -> int:
    """Iteration budget: flat floor of 10, growing as 3*log2(d) above d=10."""
    return max(10, int(np.ceil(3.0 * np.log2(max(dim, 2)))))


def seed_peak(position, width, dim, rng, bounds, min_width, fast=False):
    """Seed cloud around one coarse peak, clipped into the box.

    Default: one pair of seeds per axis at 0.9 width. Fast: a fixed count
    of uniform draws in the 0.9-width sup-norm ball, which costs less than
    2d rows once the dimension passes ten.
    """
    w = SEED_OFFSET * max(float(width), float(min_width))
    pos = np.asarray(position, dtype=np.float64)
    if fast:
        u = rng.uniform(-w, w, size=(FAST_SEED_COUNT, dim))
        seeds = pos[None, :] + u
    else:
        eye = np.eye(dim)
        seeds = np.vstack([pos[None, :] + w * eye, pos[None, :] - w * eye])
    return bounds.clip(seeds)


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


def refine_peaks(problem, coarse_peaks, lam_fine, rng, *, fast=False):
    """Polish coarse peaks into validated maxima.

    Every seed climbs for ``refine_iterations`` L-BFGS steps, or until its
    gradient sup-norm falls below ``POLISH_GRAD_TOL``.

    Returns (peaks, warnings). Raises the no-valid-maxima error, with a
    per-filter casualty count, when nothing survives the cascade.
    """
    bounds = problem.bounds
    d = bounds.dim
    if not coarse_peaks:
        raise NoValidMaximaError({"no_input_peaks": 0}, 0)

    seed_rows, origins, hints = [], [], []
    for k, pk in enumerate(coarse_peaks):
        s = seed_peak(pk.position, pk.width, d, rng, bounds, lam_fine, fast=fast)
        seed_rows.append(s)
        origins.extend([k] * s.shape[0])
        hints.extend([max(pk.width, lam_fine)] * s.shape[0])
    seeds = np.vstack(seed_rows)
    origins = np.asarray(origins)
    hints = np.asarray(hints, dtype=np.float64)

    state = run_batch(problem, seeds, refine_iterations(d), POLISH_GRAD_TOL,
                      widths=hints[:, None])
    grad_inf = state.grad_inf()

    reasons = {"nonfinite_start": 0, "gradient": 0, "hessian_nonfinite": 0,
               "saddle": 0}

    alive = np.flatnonzero(np.isfinite(state.logl) & ~state.bad_grad)
    reasons["nonfinite_start"] = state.logl.size - alive.size

    # Gradient filter from cached optimizer gradients: free of evaluations.
    if alive.size:
        thresh = GRAD_FILTER_SCALE * np.maximum(1.0, np.abs(state.logl[alive]))
        ok = grad_inf[alive] <= thresh
        reasons["gradient"] = int((~ok).sum())
        alive = alive[ok]

    if alive.size:
        kept = dedup_linf(state.theta[alive], state.logl[alive],
                          dedup_radius(bounds))
        alive = alive[kept]

    if alive.size:
        hess, bad = diag_hessian(
            problem, state.theta[alive], state.logl[alive], hints[alive]
        )
        reasons["hessian_nonfinite"] = int(bad.sum())
        saddle = (~bad) & (hess >= 0).any(axis=1)
        reasons["saddle"] = int(saddle.sum())
        keep = ~(bad | saddle)
        alive, hess = alive[keep], hess[keep]
    if alive.size == 0:
        raise NoValidMaximaError(reasons, state.logl.size)

    widths, floored = peak_widths(hess, bounds.widths)
    warnings = ["peak width hit the resolution floor"] * int(floored.sum())
    kept = dedup_linf(state.theta[alive], state.logl[alive], 1.0,
                      widths=widths.min(axis=0))
    peaks = [
        RefinedPeak(
            position=state.theta[r].copy(),
            logl=float(state.logl[r]),
            hess_diag=hess[i],
            widths=widths[i],
            grad_inf=float(grad_inf[r]),
            origin=int(origins[r]),
            width_floored=bool(floored[i]),
        )
        for i, r in zip(kept, alive[kept])
    ]
    peaks.sort(key=lambda p: -p.logl)
    return peaks, warnings
