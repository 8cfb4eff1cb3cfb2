"""Problem container: a batched log-likelihood on a bounds box, and the
``View`` that evaluates it on an affine slice of that box.

The evaluator contract is the backbone of everything downstream: it takes an
(N, d) array of positions questioned in one batch, returns an (N,) array of
log-likelihood values, and counts exactly N evaluations. All parallelism in
the pipeline is expressed through batch size, never through concurrent
stateful calls, which is what makes runs bit-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class BoundsBox:
    """Axis-aligned hyperrectangle, lower[i] < upper[i] for every i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise InvalidParameterError("bounds must be two 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InvalidParameterError("bounds must be finite")
        if not np.all(lo < hi):
            raise InvalidParameterError("every lower bound must be below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def log_volume(self) -> float:
        return float(np.sum(np.log(self.widths)))

    def clip(self, points) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)

    @staticmethod
    def cube(dim, lower, upper) -> "BoundsBox":
        return BoundsBox(np.full(dim, float(lower)), np.full(dim, float(upper)))


class Problem:
    """A log-likelihood bound to a box, with exact evaluation accounting.

    ``fn`` maps an (N, d) float64 array to an (N,) float64 array and must be
    pure: no state, no dependence on call order. The evaluation counter
    increments by exactly N per batch and the call counter by one.
    """

    def __init__(self, fn, bounds: BoundsBox, name: str = ""):
        self._fn = fn
        self.bounds = bounds
        self.name = name
        self._count = 0
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self.bounds.dim

    @property
    def eval_counter(self) -> int:
        return self._count

    @property
    def call_counter(self) -> int:
        return self._calls

    def logl(self, points) -> np.ndarray:
        pts = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidParameterError(
                f"expected (N, {self.dim}) positions, got shape {pts.shape}"
            )
        n = pts.shape[0]
        vals = np.asarray(self._fn(pts), dtype=np.float64)
        if vals.size != n:
            raise InvalidParameterError("evaluator returned a wrong-sized batch")
        vals = vals.reshape(n)
        with self._lock:
            self._count += n
            self._calls += 1
        return vals


class View:
    """The parent's log-likelihood on an affine slice of its box, x = c + B phi.

    ``basis`` is either a 1-d array of coordinate indices, the rest of x
    pinned at ``center`` (scattered into a copy of it), or a dense (d, k)
    matrix of directions (one matrix product). Evaluations flow through to
    the parent, so its counters stay the single source of truth: each batch
    of N rows counts N evaluations and one call there.
    """

    def __init__(self, parent, center, basis, bounds: BoundsBox):
        self.parent = parent
        self.center = np.asarray(center, dtype=np.float64)
        self.basis = np.asarray(basis)
        self.bounds = bounds

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def eval_counter(self) -> int:
        return self.parent.eval_counter

    @property
    def call_counter(self) -> int:
        return self.parent.call_counter

    def embed(self, phi) -> np.ndarray:
        """Map view coordinates (N, k) to the parent's coordinates (N, d)."""
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
        if self.basis.ndim == 1:
            x = np.tile(self.center, (phi.shape[0], 1))
            x[:, self.basis] = phi
            return x
        return phi @ self.basis.T + self.center

    def logl(self, phi) -> np.ndarray:
        return self.parent.logl(self.embed(phi))
