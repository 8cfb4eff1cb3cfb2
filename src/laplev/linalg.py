"""Deterministic dense linear algebra for the evidence pipeline.

Everything here is hand-rolled on purpose. LAPACK results can differ between
builds and thread counts; the operations below always execute the same
floating-point program for the same input, which is what makes whole pipeline
runs byte-reproducible. Sizes are small (d up to a few hundred), so the
O(d^3) Python-orchestrated loops cost nothing next to likelihood evaluations.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NotPositiveDefiniteError, NumericInputError

LOG_2PI = float(np.log(2.0 * np.pi))
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def eig_symmetric(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps pairs (p, q) in fixed row-major order until the off-diagonal
    Frobenius norm drops below JACOBI_TOL times the matrix norm. Returns
    (eigenvalues ascending, eigenvectors as columns) with A = V diag(w) V^T.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("eig_symmetric needs a square matrix")
    if not np.isfinite(a).all():
        raise NumericInputError("eig_symmetric: non-finite entries")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise NumericInputError("eig_symmetric: matrix is not symmetric")
    d = a.shape[0]
    w = a.copy()
    v = np.eye(d)
    if d == 1:
        return w.reshape(1).copy(), v
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return np.zeros(d), v
    for _ in range(JACOBI_MAX_SWEEPS):
        # Off-diagonal Frobenius norm. Summing squares of the off entries
        # directly avoids the catastrophic cancellation that subtracting the
        # diagonal mass from the total would suffer near convergence.
        strict = w.copy()
        np.fill_diagonal(strict, 0.0)
        off = float(np.linalg.norm(strict))
        if off < JACOBI_TOL * norm:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                # Stable tangent of the rotation angle. theta may overflow to
                # inf for denormal apq; the limit t -> 0 is the right answer.
                with np.errstate(over="ignore"):
                    theta = (w[q, q] - w[p, p]) / (2.0 * apq)
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * w[:, p] - s * w[:, q]
                rot_q = s * w[:, p] + c * w[:, q]
                w[:, p], w[:, q] = rot_p, rot_q
                rot_p = c * w[p, :] - s * w[q, :]
                rot_q = s * w[p, :] + c * w[q, :]
                w[p, :], w[q, :] = rot_p, rot_q
                w[p, q] = 0.0
                w[q, p] = 0.0
                vp = c * v[:, p] - s * v[:, q]
                vq = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
    vals = np.diag(w).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def cholesky_lower(a):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefiniteError carrying the pivot index at which the
    factorization broke down.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("cholesky_lower needs a square matrix")
    if not np.isfinite(a).all():
        raise NumericInputError("cholesky_lower: non-finite entries")
    d = a.shape[0]
    l = np.zeros_like(a)
    for j in range(d):
        s = a[j, j] - np.dot(l[j, :j], l[j, :j])
        if s <= 0.0 or not np.isfinite(s):
            raise NotPositiveDefiniteError(j)
        l[j, j] = np.sqrt(s)
        if j + 1 < d:
            l[j + 1 :, j] = (a[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


def log_det_pd(a) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    l = cholesky_lower(a)
    return float(2.0 * np.sum(np.log(np.diag(l))))


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
    kept survivor. Returns (kept_indices, survivor_map) where survivor_map[i]
    is the index of the kept point that absorbed candidate i (itself if kept).

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
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if widths is not None:
        w = np.asarray(widths, dtype=np.float64)
        if np.any(w <= 0) or not np.isfinite(w).all():
            raise InvalidParameterError("dedup_linf: widths must be positive finite")
        pts = pts / w
    order = np.lexsort((np.arange(n), -sc))
    survivor = np.full(n, -1, dtype=np.intp)
    # Survivors fill the first m slots of these buffers, in visiting order.
    kept = np.empty(n, dtype=np.intp)
    kept_pts = np.empty_like(pts)
    m = 0
    for i in order:
        if m:
            dist = np.max(np.abs(kept_pts[:m] - pts[i]), axis=1)
            j = int(np.argmin(dist))
            if dist[j] <= radius:
                survivor[i] = kept[j]
                continue
        kept[m] = i
        kept_pts[m] = pts[i]
        m += 1
        survivor[i] = i
    return np.sort(kept[:m]), survivor
