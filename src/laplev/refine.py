"""Peak validation: filter the held peaks by their curvature, merge.

Every coarse peak reaching this stage has already stuck in the search: its
gradient sup-norm is below the search's stick threshold and its value is
finite. It is taken as it stands, position, value and diagonal Hessian,
the last read off the values the ascent's final gradient evaluated there,
so for most peaks this stage makes no likelihood call.

Those values sit at the steps of the survey's one length scale, the
finest width it read, which can be far below a wider peak's own width.
There the rounding of the values, up to eps_mach |logl| each, can swamp
the second difference. A peak whose diagonal is within that rounding
bound's reach is measured again, in one batch for all such peaks, at the
ascent's step rule taken at the peak's own widths; the few that stay
within reach are counted in a warning. A peak whose diagonal is
non-finite or that curves upward along some axis is rejected, and the
survivors are merged by their widths. The evidence stage's off-diagonal
probe starts from that diagonal.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NoValidMaximaError
from .lbfgs import axis_values, fd_steps, second_difference
# Unused here: the benchmark tracer (perfbench/spans.py) wraps this name.
from .lbfgs import step_batch  # noqa: F401
from .linalg import dedup_linf

WIDTH_FLOOR_SCALE = 1e-12
# A diagonal entry whose rounding bound exceeds this fraction of it is
# measured again, at most ``REMEASURE_ROUNDS`` times: the first lands
# within the width the rounding allows, the second at the peak's own.
NOISE_REL = 1e-4
REMEASURE_ROUNDS = 2

_EPS = float(np.finfo(np.float64).eps)


def rounding_bound(logl, steps):
    """Rounding error bound of the second differences at ``steps``.

    (f(x + eps) - 2 f(x) + f(x - eps)) / eps^2 with each value off by up
    to eps_mach |logl|, one row per peak value in ``logl``.
    """
    return 4.0 * _EPS * np.abs(logl)[:, None] / steps**2


def remeasure_noisy(problem, theta, logl, hess, steps):
    """Measure again the diagonals the rounding of their values can swamp.

    A row is measured again when some entry's ``rounding_bound`` exceeds
    ``NOISE_REL`` of it and the ascent's step rule, ``fd_steps`` at the
    widest width the entry and its bound allow, 1/sqrt(|H_ii| + bound),
    would take a longer step there; a row with a non-finite entry is left
    to the filter that rejects it. All such rows go out in one batch of 2d
    rows each, every axis at that rule's step (never a shorter one).
    Returns the diagonals, their steps and a flag per finite row whose
    diagonal is still within the bound's reach.
    """
    hess, steps = hess.copy(), steps.copy()
    for done in range(REMEASURE_ROUNDS + 1):
        bound = rounding_bound(logl, steps)
        noisy = bound > NOISE_REL * np.abs(hess)
        if done == REMEASURE_ROUNDS or not noisy.any():
            break
        # |H_ii| + bound is zero only where logl is, and then the bound is
        # zero on the whole row, which is never measured again.
        with np.errstate(divide="ignore"):
            wide = np.maximum(steps, fd_steps(theta, 1.0 / np.sqrt(np.abs(hess) + bound)))
        redo = (noisy & (wide > steps)).any(axis=1) & np.isfinite(hess).all(axis=1)
        if not redo.any():
            break
        vals = axis_values(problem, theta[redo], wide[redo])
        steps[redo] = wide[redo]
        hess[redo] = second_difference(vals, logl[redo], steps[redo])
    return hess, steps, noisy.any(axis=1) & np.isfinite(hess).all(axis=1)


def peak_widths(hess_diag, bound_widths):
    """Per-axis sigma from strictly negative diagonals, one per row.

    Returns the widths, floored at a fraction of the box, and a flag per row
    that is set when any of its axes hit that floor.
    """
    w = 1.0 / np.sqrt(-np.asarray(hess_diag, dtype=np.float64))
    floor = WIDTH_FLOOR_SCALE * np.asarray(bound_widths, dtype=np.float64)
    return np.maximum(w, floor), (w < floor).any(axis=-1)


def refine_peaks(problem, coarse_peaks):
    """Validate held peaks into maxima with a measured curvature.

    Each peak is taken as it stands, with the diagonal Hessian the search
    read off its last gradient's values. Only a peak whose diagonal the
    rounding of those values can swamp is measured again
    (``remeasure_noisy``) and comes back with its new ``hess_diag`` and
    ``steps``; otherwise no likelihood call is made.

    Returns (peaks, warnings); warnings holds a line counting the peaks
    whose width hit the resolution floor and one counting those whose
    diagonal stayed within the rounding bound's reach, each only when the
    count is not zero. Raises the no-valid-maxima error, with a per-filter
    casualty count and the rounding warning, when every peak is rejected.
    """
    if not coarse_peaks:
        raise NoValidMaximaError({"no_input_peaks": 0}, 0)

    theta = np.array([pk.position for pk in coarse_peaks], dtype=np.float64)
    logl = np.array([pk.logl for pk in coarse_peaks], dtype=np.float64)
    hess = np.array([pk.hess_diag for pk in coarse_peaks], dtype=np.float64)
    steps = np.array([pk.steps for pk in coarse_peaks], dtype=np.float64)
    hess, steps, noisy = remeasure_noisy(problem, theta, logl, hess, steps)
    n_noisy = int(noisy.sum())
    warnings = ([f"diagonal Hessian within rounding noise on {n_noisy} of"
                 f" {len(coarse_peaks)} peaks"] if n_noisy else [])
    bad = ~np.isfinite(hess).all(axis=1)
    saddle = ~bad & (hess >= 0).any(axis=1)
    reasons = {"hessian_nonfinite": int(bad.sum()), "saddle": int(saddle.sum())}
    alive = np.flatnonzero(~(bad | saddle))
    if alive.size == 0:
        raise NoValidMaximaError(reasons, len(coarse_peaks), warnings)

    widths, floored = peak_widths(hess[alive], problem.bounds.widths)
    n_floored = int(floored.sum())
    if n_floored:
        warnings.append(f"peak width hit the resolution floor on {n_floored} of"
                        f" {alive.size} peaks")
    kept = alive[dedup_linf(theta[alive], logl[alive], 1.0, widths=widths.min(axis=0))]
    peaks = []
    for r in kept:
        pk = coarse_peaks[r]
        # A row measured again took a longer step on some axis.
        if not np.array_equal(steps[r], pk.steps):
            pk = replace(pk, hess_diag=hess[r], steps=steps[r])
        peaks.append(pk)
    peaks.sort(key=lambda p: -p.logl)
    return peaks, warnings
