"""Dense linear algebra for the evidence pipeline.

The eigen work goes to LAPACK: ``eig_symmetric`` is ``np.linalg.eigh`` and
``condition_pd`` reads the extreme eigenvalues from ``np.linalg.eigvalsh``.
Their bits depend on the numpy build, like every BLAS product the targets
already make; the canonical JSON is checked byte-identical under one and
two BLAS threads on full-route and ``reduce`` cells. A matrix with no
off-diagonal entry skips LAPACK: its eigenvalues are its diagonal, exact,
and at d = 1024 that is far cheaper than ``eigh``.

``cholesky_lower`` is LAPACK's ``potrf`` through ``np.linalg.cholesky``. It
is the evidence route's PD check, reports the pivot at which a non-concave
mode breaks down, and gives, in ``log_det_pd``, the log det every
full-route log Z is built from. It is numpy's rather than scipy's
``dpotrf``, which would report the pivot itself, because importing
``scipy.linalg`` costs about 0.25 s and 26 MB on a run that otherwise loads
no scipy; numpy hides the pivot, so the error path bisects for it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NotPositiveDefiniteError, NumericInputError

LOG_2PI = float(np.log(2.0 * np.pi))
# Leading coordinates ``dedup_linf`` screens candidate pairs on.
DEDUP_SCREEN = 3


def eig_symmetric(a):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns) with
    A = V diag(w) V^T. A matrix with no off-diagonal entry returns its
    stably sorted diagonal and the matching identity columns. That test
    comes before the d x d symmetry test, which a diagonal matrix passes
    by construction; any other matrix must pass it and goes to
    ``np.linalg.eigh``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("eig_symmetric needs a square matrix")
    if not np.isfinite(a).all():
        raise NumericInputError("eig_symmetric: non-finite entries")
    diag = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        order = np.argsort(diag, kind="stable")
        return diag[order], np.eye(a.shape[0])[:, order]
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise NumericInputError("eig_symmetric: matrix is not symmetric")
    return np.linalg.eigh(a)


def cholesky_lower(a):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    LAPACK's ``potrf`` through ``np.linalg.cholesky``, which reads the lower
    triangle. Raises NotPositiveDefiniteError carrying the pivot index at
    which the factorization broke down.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("cholesky_lower needs a square matrix")
    if not np.isfinite(a).all():
        raise NumericInputError("cholesky_lower: non-finite entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_failing_pivot(a)) from None


def _failing_pivot(a) -> int:
    """Pivot at which the factorization of ``a``, known to fail, breaks down.

    numpy does not pass on LAPACK's ``info``, so this bisects for the
    smallest leading block that does not factor: a block factors only if
    every block inside it does.
    """
    lo, hi = 0, a.shape[0] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(a[:mid + 1, :mid + 1])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo


def log_det_pd(a) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    l = cholesky_lower(a)
    return float(2.0 * np.sum(np.log(np.diag(l))))


def condition_pd(a) -> float:
    """Condition number of a symmetric matrix: largest over smallest eigenvalue.

    inf when the smallest eigenvalue is <= 0.
    """
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    return float(w[-1] / w[0]) if w[0] > 0.0 else float("inf")


def logsumexp(values) -> float:
    """log(sum(exp(values))) with the usual shift by the maximum.

    All -inf inputs give -inf. An empty input is an error rather than -inf:
    every call site combines at least one mode and silence would hide bugs.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise InvalidParameterError("logsumexp of an empty collection")
    if np.isnan(v).any():
        raise NumericInputError("logsumexp: NaN input")
    m = float(np.max(v))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(v - m))))


def dedup_linf(points, scores, radius, widths=None):
    """Greedy L-infinity deduplication, best scores first.

    Candidates are visited in descending score order (ties broken by lowest
    index). A candidate is dropped iff it lies within ``radius`` (Chebyshev
    distance, optionally whitened by per-coordinate ``widths``) of an already
    kept survivor and no kept survivor lies at a NaN distance from it.
    Returns the kept indices, ascending.

    The loop runs once per survivor, not per candidate: each survivor
    measures its distance to every later candidate in one array operation,
    and the next survivor is the first later candidate nothing dropped.
    A pair within the radius is within it on every coordinate, so one
    n x n test on the first ``DEDUP_SCREEN`` coordinates finds the
    survivors that can drop no later candidate, and those skip the
    measure. A point with a non-finite coordinate always measures: a NaN
    distance (NaN, or inf - inf) keeps a later candidate.

    The greedy order makes the output order-independent for distinct scores
    and idempotent: rerunning on the survivors keeps all of them.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sc = np.asarray(scores, dtype=np.float64).reshape(-1)
    if pts.shape[0] != sc.shape[0]:
        raise InvalidParameterError("dedup_linf: points and scores disagree on N")
    if radius < 0:
        raise InvalidParameterError("dedup_linf: radius must be non-negative")
    n = pts.shape[0]
    if widths is not None:
        w = np.asarray(widths, dtype=np.float64)
        if np.any(w <= 0) or not np.isfinite(w).all():
            raise InvalidParameterError("dedup_linf: widths must be positive finite")
        pts = pts / w
    if n < 2:
        return np.arange(n, dtype=np.intp)
    order = np.lexsort((np.arange(n), -sc))
    pts = pts[order]
    # measure[i]: some later candidate is within the radius of i on the
    # screened coordinates, or i has a non-finite coordinate.
    close = ~np.tri(n, dtype=bool)
    # inf - inf is NaN, never close: no warning for a case handled here.
    with np.errstate(invalid="ignore"):
        for col in pts[:, :DEDUP_SCREEN].T:
            close &= np.abs(col[:, None] - col) <= radius
    measure = close.any(axis=1) | ~np.isfinite(pts).all(axis=1)
    # Per candidate in visiting order, its distance to the nearest survivor
    # so far. np.minimum propagates NaN, so one NaN distance keeps it NaN,
    # and a NaN is never within the radius: the NaN past the end stops the
    # walk.
    nearest = np.full(n + 1, np.inf)
    nearest[n] = np.nan
    keep = np.zeros(n, dtype=bool)
    i = 0
    while i < n:
        keep[i] = True
        if measure[i]:
            rest = nearest[i + 1:n]
            with np.errstate(invalid="ignore"):
                np.minimum(rest, np.abs(pts[i + 1:] - pts[i]).max(axis=1), out=rest)
        i += 1 + int((~(nearest[i + 1:] <= radius)).argmax())
    return np.sort(order[keep])
