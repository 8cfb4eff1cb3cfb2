"""Deterministic dense linear algebra for the evidence pipeline.

Everything here is hand-rolled on purpose. LAPACK results can differ between
builds and thread counts; the operations below always execute the same
floating-point program for the same input, which is what makes whole pipeline
runs byte-reproducible.

That costs time, and the cost is not negligible from d = 32 on. The cyclic
Jacobi ``eig_symmetric`` loops over the d(d-1)/2 pairs in Python on every
sweep: the benchmark's micro probes (2-vCPU VM, one BLAS thread) put it at
69-94 ms at d=32 and 2.1-2.2 s at d=128, more than a whole cheap-likelihood
run. It runs only in ``reduce``, which needs the eigenvectors. The
full-Hessian evidence route takes its log det and condition number from the
row-vectorised Cholesky factor instead (``log_det_pd`` takes about 1.1 ms at
d=128).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NotPositiveDefiniteError, NumericInputError

LOG_2PI = float(np.log(2.0 * np.pi))
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
# Power iterations per extreme eigenvalue in ``condition_pd``. On 800 random
# PD matrices, d up to 64, log-uniform spectra and condition up to 1e8, the
# estimate stayed within 5% of the eigenvalue ratio (64 iterations: 7.4%).
CONDITION_ITERATIONS = 96
# Duplicate-peak radius as a fraction of the mean box width (``dedup_radius``).
DEDUP_WIDTH_FRACTION = 1e-3
_GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


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


def condition_pd(l) -> float:
    """Condition number of A = L L^T, estimated from its Cholesky factor.

    Runs CONDITION_ITERATIONS power iterations on A and on A^-1 =
    L^-T L^-1 side by side and multiplies the two Rayleigh quotients. Both
    quotients are lower bounds of their top eigenvalues, so the estimate
    never exceeds the true ratio. The start vector 1 + frac(k * golden
    ratio) is fixed, so the result repeats bit for bit; it is not constant,
    so it is no eigenvector of an equicorrelated A (the (1,...,1) start
    would read a condition of 1 on [[2, 1], [1, 2]]).
    """
    l = np.asarray(l, dtype=np.float64)
    d = l.shape[0]
    inv = np.zeros_like(l)
    for j in range(d):
        inv[j, :j] = -(l[j, :j] @ inv[:j, :j]) / l[j, j]
        inv[j, j] = 1.0 / l[j, j]
    mats = np.stack([l @ l.T, inv.T @ inv])
    v = np.tile(1.0 + np.mod(np.arange(1, d + 1) * _GOLDEN, 1.0), (2, 1))
    for _ in range(CONDITION_ITERATIONS):
        v = np.matmul(mats, v[:, :, None])[:, :, 0]
        v /= np.sqrt(np.sum(v * v, axis=1))[:, None]
    top = np.sum(v * np.matmul(mats, v[:, :, None])[:, :, 0], axis=1)
    return float(top[0] * top[1])


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


def dedup_radius(bounds) -> float:
    """Radius within which two peaks in ``bounds`` are one peak."""
    return DEDUP_WIDTH_FRACTION * float(np.mean(bounds.widths))


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
        return np.zeros(0, dtype=np.intp)
    if widths is not None:
        w = np.asarray(widths, dtype=np.float64)
        if np.any(w <= 0) or not np.isfinite(w).all():
            raise InvalidParameterError("dedup_linf: widths must be positive finite")
        pts = pts / w
    order = np.lexsort((np.arange(n), -sc))
    pts = pts[order]
    # Per candidate in visiting order, its distance to the nearest survivor
    # so far. np.minimum propagates NaN, so one NaN distance keeps it NaN,
    # and a NaN is never within the radius.
    nearest = np.full(n, np.inf)
    keep = np.zeros(n, dtype=bool)
    i = 0
    while True:
        keep[i] = True
        rest = nearest[i + 1:]
        np.minimum(rest, np.abs(pts[i + 1:] - pts[i]).max(axis=1), out=rest)
        far = np.flatnonzero(~(rest <= radius))
        if far.size == 0:
            return np.sort(order[keep])
        i += 1 + int(far[0])
