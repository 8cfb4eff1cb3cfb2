"""Analytic test likelihoods with independently known evidence values.

Every target couples a batched log-likelihood to the exact value of
log integral exp(logl) over R^d (over the bounds box for the periodic
egg-box, whose unbounded integral diverges). Truths are either closed form
or come from 1-d/2-d quadrature oracles accurate to ~1e-12 relative, so a
pipeline answer can be graded without trusting any pipeline code.

Evaluators are pure functions of their input batch. Nothing here keeps
state, which is what makes repeated runs bit-identical. A row's value also
does not depend on how rows are batched: every target returns the same bits
for a row evaluated alone, in a chunk or in a whole batch. Full-covariance
Gaussians are evaluated in whitened form, one BLAS matrix product per batch
(see ``make_gaussian``); the other targets use row-wise array operations
only.

scipy is imported inside the builders that need it (quadrature truths,
gamma-function normalizations, the skew-normal likelihood), so importing
laplev and running the pipeline load numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, UnsupportedDimensionError
from .problem import BoundsBox, Problem

# Kept separate from the pipeline's copy in linalg: the truths here must
# not depend on any pipeline code.
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class AnalyticTarget:
    """A problem plus the truth needed to grade an evidence estimate."""

    name: str
    dim: int
    problem: Problem
    true_log_integral: float
    known_modes: tuple = ()
    tags: frozenset = field(default_factory=frozenset)


def _target(name, dim, fn, bounds, truth, modes=(), tags=()):
    prob = Problem(fn, bounds, name=name)
    modes = tuple(np.asarray(m, dtype=np.float64) for m in modes)
    return AnalyticTarget(name, dim, prob, float(truth), modes, frozenset(tags))


def _check_dim(name, dim, low):
    if int(dim) != dim or dim < low:
        raise UnsupportedDimensionError(f"{name} needs integer dim >= {low}, got {dim}")
    return int(dim)


# ------------------------------------------------------------ gaussian family


def make_gaussian(dim, mean=None, cov=None, bounds=None, name="gaussian"):
    """Gaussian log-likelihood -(x-mu)^T P (x-mu)/2 with exact evidence.

    ``cov`` may be a scalar variance, a vector of per-axis variances, or a
    full covariance matrix. The reference log integral is
    d/2 log(2 pi) + log det(cov)/2, with the determinant from numpy so the
    truth stays independent of this package's own factorizations.

    A full covariance is factored once, at construction: P = W W^T with W
    the Cholesky factor of the precision. A batch then costs one gemm and a
    row sum of squares, z = (x - mu) W and logl = -|z|^2/2. A 1-row batch is
    padded to two rows, so each row's value is the same bits however the
    rows are batched. The last bits can depend on the BLAS build and, from
    about d=128, on its thread count.
    """
    dim = _check_dim(name, dim, 1)
    mu = np.zeros(dim) if mean is None else np.asarray(mean, dtype=np.float64)
    if mu.shape != (dim,):
        raise InvalidParameterError("mean shape mismatch")
    if cov is None:
        cov = 1.0
    cov_arr = np.asarray(cov, dtype=np.float64)
    isotropic = cov_arr.ndim == 0
    if isotropic:
        if cov_arr <= 0:
            raise InvalidParameterError("variance must be positive")
        cov_arr = np.full(dim, float(cov_arr))
    if cov_arr.ndim == 1:
        if cov_arr.shape != (dim,) or np.any(cov_arr <= 0):
            raise InvalidParameterError("variance vector must be positive, length dim")
        prec_diag = 1.0 / cov_arr
        logdet = float(np.sum(np.log(cov_arr)))

        def fn(x, mu=mu, p=prec_diag):
            dx = x - mu
            return -0.5 * np.einsum("ni,i,ni->n", dx, p, dx)

        tags = ("gaussian",) if isotropic else ("gaussian", "anisotropic")
    else:
        if cov_arr.shape != (dim, dim):
            raise InvalidParameterError("covariance matrix must be (dim, dim)")
        sign, logdet = np.linalg.slogdet(cov_arr)
        if sign <= 0:
            raise InvalidParameterError("covariance must be positive definite")
        prec = np.linalg.inv(cov_arr)
        whiten = np.linalg.cholesky(0.5 * (prec + prec.T))

        def fn(x, mu=mu, w=whiten):
            dx = x - mu
            if dx.shape[0] == 1:
                # numpy sends a 1-row product to gemv, whose last bits differ
                # from gemm's; a padded 2-row gemm keeps the row's value
                # independent of how the batch was cut.
                dx = np.concatenate([dx, dx])
            z = dx @ w
            return -0.5 * np.einsum("ni,ni->n", z, z)[: x.shape[0]]

        tags = ("gaussian", "rotated")
    if bounds is None:
        bounds = BoundsBox.cube(dim, -6.0, 6.0)
    truth = 0.5 * dim * LOG_2PI + 0.5 * logdet
    return _target(name, dim, fn, bounds, truth, modes=[mu], tags=tags)


def _make_isotropic(dim):
    # Mode deliberately off box center so discovery has to earn it.
    return make_gaussian(dim, mean=np.zeros(dim), cov=1.0,
                         bounds=BoundsBox.cube(dim, -4.0, 6.0), name="gaussian")


def _make_cigar(dim):
    dim = _check_dim("cigar", dim, 2)
    var = np.full(dim, 1e-6)
    var[0] = 1.0  # variances span a 1e6:1 ratio, one wide axis
    return make_gaussian(dim, cov=var, bounds=BoundsBox.cube(dim, -5.0, 5.0), name="cigar")


def _make_correlated(dim, rho=0.5):
    dim = _check_dim("correlated", dim, 2)
    cov = np.full((dim, dim), rho)
    np.fill_diagonal(cov, 1.0)
    return make_gaussian(dim, cov=cov, bounds=BoundsBox.cube(dim, -6.0, 6.0), name="correlated")


def _make_rotated_cigar(dim):
    dim = _check_dim("rotated-cigar", dim, 2)
    spectrum = np.geomspace(1.0, 1e-6, dim)
    # The rotation is part of the problem identity, so its seed is fixed by
    # (name, dim) rather than taken from any pipeline configuration.
    rng = np.random.default_rng(1000 + dim)
    rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (rot * spectrum) @ rot.T
    cov = 0.5 * (cov + cov.T)
    t = make_gaussian(dim, cov=cov, bounds=BoundsBox.cube(dim, -5.0, 5.0), name="rotated-cigar")
    return AnalyticTarget(t.name, t.dim, t.problem,
                          0.5 * dim * LOG_2PI + 0.5 * float(np.sum(np.log(spectrum))),
                          t.known_modes, frozenset(("gaussian", "anisotropic", "rotated")))


# ------------------------------------------------------------------- mixtures


def make_mixture(dim, means, weights, bounds, name="mixture"):
    """Mixture of unit-variance normalized Gaussian components.

    Because each component integrates to its weight, the exact evidence is
    log(sum(weights)) regardless of geometry.
    """
    dim = _check_dim(name, dim, 1)
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if means.shape[1] != dim or means.shape[0] != weights.shape[0]:
        raise InvalidParameterError("means and weights disagree")
    if np.any(weights <= 0):
        raise InvalidParameterError("weights must be positive")
    log_wk = np.log(weights) - 0.5 * dim * LOG_2PI

    def fn(x, m=means, lw=log_wk):
        # (N, K) squared distances, then a batched logsumexp over components.
        d2 = np.sum((x[:, None, :] - m[None, :, :]) ** 2, axis=2)
        z = lw[None, :] - 0.5 * d2
        top = np.max(z, axis=1)
        return top + np.log(np.sum(np.exp(z - top[:, None]), axis=1))

    truth = float(np.log(np.sum(weights)))
    return _target(name, dim, fn, bounds, truth, modes=list(means),
                   tags=("multimodal",))


def _mixture4_layout(dim):
    if dim == 2:
        offset = 3.0
        signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)
    else:
        # Four sign patterns from the order-4 Hadamard code, tiled across
        # coordinates: pairwise Hamming distance grows like d/2, so the modes
        # separate on their own in high dimension. At d=4 the separation is
        # about 3.8 sigma, the partial-overlap regime where a sum of
        # per-mode Gaussian integrals double counts shared mass. Column 0 is
        # all +1, so d=3 takes columns 1-3 instead: a tetrahedron with the
        # same 3.8 sigma edges, where columns 0-2 would leave neighbours 2.7
        # apart.
        offset = 1.35
        h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                      dtype=np.float64)
        cols = np.arange(1, 4) if dim == 3 else np.arange(dim) % 4
        signs = h4[:, cols]
    return offset * signs, 2.0 * offset


def _make_mixture4(dim):
    dim = _check_dim("mixture4", dim, 2)
    means, half = _mixture4_layout(dim)
    bounds = BoundsBox.cube(dim, -half, half)
    return make_mixture(dim, means, np.full(4, 0.25), bounds, name="mixture4")


def _make_bimodal_asym(dim):
    dim = _check_dim("bimodal-asym", dim, 1)
    m = np.zeros((2, dim))
    m[0, 0] = -3.5
    m[1, 0] = 3.5
    t = make_mixture(dim, m, [0.9, 0.1], BoundsBox.cube(dim, -8.0, 8.0), name="bimodal-asym")
    return AnalyticTarget(t.name, t.dim, t.problem, t.true_log_integral, t.known_modes,
                          frozenset(("multimodal", "asymmetric")))


TWO_SCALE_NARROW = 1e-3
TWO_SCALE_PEAK = -1e4


def _make_two_scale(dim):
    # Two equal-height Gaussians, sigma 1 at -2 and sigma 1e-3 at +2 on
    # every axis, peaking at -1e4 as the log-likelihood of a large data set
    # does. Once the survey reads the narrow mode, its width sets the
    # ascent's steps, far below the wide mode's, where each value's rounding,
    # eps_mach * 1e4, is what the wide mode's second difference must resolve.
    dim = _check_dim("two-scale", dim, 1)
    centres = np.stack([np.full(dim, -2.0), np.full(dim, 2.0)])

    def fn(x, c=centres, s=TWO_SCALE_NARROW, top=TWO_SCALE_PEAK):
        wide = -0.5 * np.sum((x - c[0]) ** 2, axis=1)
        narrow = -0.5 * np.sum(((x - c[1]) / s) ** 2, axis=1)
        return top + np.logaddexp(wide, narrow)

    truth = TWO_SCALE_PEAK + 0.5 * dim * LOG_2PI + np.log1p(TWO_SCALE_NARROW**dim)
    return _target("two-scale", dim, fn, BoundsBox.cube(dim, -6.0, 6.0), truth,
                   modes=list(centres), tags=("multimodal",))


# --------------------------------------------------------------- heavy tailed


def _make_student_t(dim, nu):
    from scipy.special import gammaln

    name = "cauchy" if nu == 1 else f"student-t-{nu:g}"
    dim = _check_dim(name, dim, 1)

    def fn(x, nu=float(nu), d=dim):
        return -0.5 * (nu + d) * np.log1p(np.sum(x * x, axis=1) / nu)

    # Kernel normalization of the multivariate t distribution.
    truth = (0.5 * dim * np.log(nu * np.pi) + gammaln(0.5 * nu)
             - gammaln(0.5 * (nu + dim)))
    return _target(name, dim, fn, BoundsBox.cube(dim, -15.0, 15.0), truth,
                   modes=[np.zeros(dim)], tags=("heavy_tail",))


@lru_cache(maxsize=None)
def _skew_normal_mode(alpha):
    # Stationary point of log(2 phi(x) Phi(alpha x)): x = alpha phi / Phi.
    from scipy.optimize import brentq
    from scipy.special import log_ndtr

    def grad(x):
        z = alpha * x
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return -x + alpha * pdf / np.exp(log_ndtr(z))

    return float(brentq(grad, 0.0, 2.0, xtol=1e-14))


def _make_skew_normal(dim, alpha=5.0):
    from scipy.special import log_ndtr

    dim = _check_dim("skew-normal-5", dim, 1)

    def fn(x, a=float(alpha)):
        return np.sum(np.log(2.0) - 0.5 * x * x - 0.5 * LOG_2PI + log_ndtr(a * x), axis=1)

    # Each factor is a normalized density, so the product integrates to 1.
    mode = np.full(dim, _skew_normal_mode(alpha))
    return _target("skew-normal-5", dim, fn, BoundsBox.cube(dim, -8.0, 8.0), 0.0,
                   modes=[mode], tags=("asymmetric",))


def _make_exp_power(dim, beta):
    from scipy.special import gammaln

    name = f"exp-power-{beta:g}"
    dim = _check_dim(name, dim, 1)
    if not 0 < beta <= 2:
        raise InvalidParameterError("exp-power beta must be in (0, 2]")

    def fn(x, b=float(beta)):
        return -np.sum(np.abs(x) ** b, axis=1)

    # Per coordinate: integral of exp(-|x|^b) = 2 Gamma(1 + 1/b).
    truth = dim * (np.log(2.0) + gammaln(1.0 + 1.0 / beta))
    return _target(name, dim, fn, BoundsBox.cube(dim, -10.0, 10.0), truth,
                   modes=[np.zeros(dim)], tags=("nonsmooth", "heavy_tail"))


# -------------------------------------------------------------------- curved


def _make_banana(dim, b):
    name = f"banana-{b:g}"
    dim = _check_dim(name, dim, 2)

    def fn(x, b=float(b)):
        curve = x[:, 1] + b * x[:, 0] ** 2
        rest = np.sum(x[:, 2:] ** 2, axis=1)
        return -x[:, 0] ** 2 / 200.0 - 0.5 * curve**2 - 0.5 * rest

    # The curving map (x1, x2 + b x1^2) has unit Jacobian, so the integral
    # equals that of N(0, diag(100, 1, ..., 1)).
    truth = 0.5 * dim * LOG_2PI + 0.5 * np.log(100.0)
    return _target(name, dim, fn, BoundsBox.cube(dim, -25.0, 25.0), truth,
                   modes=[np.zeros(dim)], tags=("curved",))


TWIST_AMP = 1.0
TWIST_FREQ = 2.5


@lru_cache(maxsize=None)
def _twist_factor():
    # 1-d modulation factor: integral of exp(-x^2/2 + A(cos(wx) - 1)).
    from scipy.integrate import quad

    val, err = quad(
        lambda x: np.exp(-0.5 * x * x + TWIST_AMP * (np.cos(TWIST_FREQ * x) - 1.0)),
        -12.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    assert err < 1e-11
    return float(np.log(val))


def _make_twisted(dim):
    dim = _check_dim("twisted", dim, 1)

    def fn(x, a=TWIST_AMP, w=TWIST_FREQ):
        return -0.5 * np.sum(x * x, axis=1) + a * (np.cos(w * x[:, 0]) - 1.0)

    truth = 0.5 * (dim - 1) * LOG_2PI + _twist_factor()
    return _target("twisted", dim, fn, BoundsBox.cube(dim, -6.0, 6.0), truth,
                   modes=[np.zeros(dim)], tags=("curved", "multimodal"))


EGGBOX_HALF = 1.5 * np.pi


@lru_cache(maxsize=None)
def _eggbox_log_integral():
    # Tensor Gauss-Legendre over the box, shifted by the peak exponent 3^5.
    # The integrand is entire, so 2000 nodes per axis is far past convergence;
    # the constructor cross-checks against a finer grid.
    return _eggbox_gl(2000)


def _eggbox_gl(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = nodes * EGGBOX_HALF
    w = weights * EGGBOX_HALF
    f = (2.0 + np.cos(x)[:, None] * np.cos(x)[None, :]) ** 5 - 243.0
    val = float(np.einsum("i,j,ij->", w, w, np.exp(f)))
    return 243.0 + float(np.log(val))


def _make_eggbox(dim):
    if dim != 2:
        raise UnsupportedDimensionError("eggbox is defined for dim == 2 only")

    def fn(x):
        return (2.0 + np.cos(x[:, 0]) * np.cos(x[:, 1])) ** 5

    modes = [np.array([0.0, 0.0]), np.array([np.pi, np.pi]), np.array([np.pi, -np.pi]),
             np.array([-np.pi, np.pi]), np.array([-np.pi, -np.pi])]
    return _target("eggbox", 2, fn, BoundsBox.cube(2, -EGGBOX_HALF, EGGBOX_HALF),
                   _eggbox_log_integral(), modes=modes, tags=("multimodal", "periodic"))


def _make_funnel(dim, sigma=3.0):
    dim = _check_dim("funnel-3", dim, 2)

    def fn(x, s2=float(sigma) ** 2, d=dim):
        v = x[:, 0]
        s = np.sum(x[:, 1:] ** 2, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            shell = np.exp(-v) * s
        shell = np.where(s == 0.0, 0.0, shell)  # exp overflow times zero
        return -0.5 * v * v / s2 - 0.5 * (d - 1) * v - 0.5 * shell

    # Marginalizing the latent scale leaves sigma * (2 pi)^{d/2} exactly.
    truth = 0.5 * dim * LOG_2PI + np.log(sigma)
    v_star = -1.5 * sigma * (dim - 1)
    modes = [np.concatenate([[v_star], np.zeros(dim - 1)])] if v_star >= -20.0 else []
    return _target("funnel-3", dim, fn, BoundsBox.cube(dim, -20.0, 20.0), truth,
                   modes=modes, tags=("funnel", "degenerate"))


RING_RADIUS = 3.0
RING_WIDTH = 0.3


@lru_cache(maxsize=None)
def _ring_log_integral(dim):
    # Spherical shell: S_{d-1} * integral of r^{d-1} exp(-(r-R)^2 / 2w^2),
    # done in log space so large d cannot overflow the radial weight.
    from scipy.integrate import quad
    from scipy.special import gammaln

    d = dim
    log_sphere = np.log(2.0) + 0.5 * d * np.log(np.pi) - gammaln(0.5 * d)

    def g(r):
        return (d - 1) * np.log(r) - 0.5 * ((r - RING_RADIUS) / RING_WIDTH) ** 2

    r_star = 0.5 * (RING_RADIUS + np.sqrt(RING_RADIUS**2 + 4.0 * (d - 1) * RING_WIDTH**2))
    g_max = g(r_star)
    lo = max(1e-12, RING_RADIUS - 12.0 * RING_WIDTH)
    hi = r_star + 12.0 * RING_WIDTH
    val, err = quad(lambda r: np.exp(g(r) - g_max), lo, hi,
                    epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-11 * max(1.0, val)
    return float(log_sphere + g_max + np.log(val))


def _make_ring(dim):
    dim = _check_dim("ring", dim, 2)

    def fn(x, r0=RING_RADIUS, w=RING_WIDTH):
        r = np.sqrt(np.sum(x * x, axis=1))
        return -0.5 * ((r - r0) / w) ** 2

    return _target("ring", dim, fn, BoundsBox.cube(dim, -6.0, 6.0),
                   _ring_log_integral(dim), modes=[], tags=("saddle", "degenerate"))


# ------------------------------------------------------------------- registry


REGISTRY = {
    "gaussian": _make_isotropic,
    "cigar": _make_cigar,
    "correlated": _make_correlated,
    "rotated-cigar": _make_rotated_cigar,
    "mixture4": _make_mixture4,
    "student-t-3": lambda d: _make_student_t(d, 3.0),
    "cauchy": lambda d: _make_student_t(d, 1.0),
    "skew-normal-5": _make_skew_normal,
    "exp-power-0.5": lambda d: _make_exp_power(d, 0.5),
    "exp-power-1": lambda d: _make_exp_power(d, 1.0),
    "banana-0.1": lambda d: _make_banana(d, 0.1),
    "banana-0.5": lambda d: _make_banana(d, 0.5),
    "twisted": _make_twisted,
    "eggbox": _make_eggbox,
    "funnel-3": _make_funnel,
    "ring": _make_ring,
    "bimodal-asym": _make_bimodal_asym,
    "two-scale": _make_two_scale,
}

SUITES = {
    "gaussian": ["gaussian"],
    "multifunction": ["gaussian", "cigar", "correlated", "rotated-cigar", "mixture4"],
    "mixture": ["mixture4"],
    "failure": ["student-t-3", "cauchy", "skew-normal-5", "exp-power-0.5", "exp-power-1",
                "banana-0.1", "banana-0.5", "twisted", "eggbox", "funnel-3", "ring",
                "bimodal-asym"],
}

# Desk-scale dimension caps, overridable from the bench harness.
_GAUSSIAN_CAP = {"gaussian"}
_ANISO_CAP = {"cigar", "correlated", "rotated-cigar", "mixture4"}


def dim_cap(name) -> int:
    if name in _GAUSSIAN_CAP:
        return 1024
    if name in _ANISO_CAP:
        return 32
    return 16


def get_target(name, dim, allow_large=False) -> AnalyticTarget:
    """Construct a registry target at the requested dimension."""
    if name not in REGISTRY:
        raise InvalidParameterError(
            f"unknown problem {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    if not allow_large and dim > dim_cap(name):
        raise InvalidParameterError(
            f"{name} is capped at dim {dim_cap(name)} (pass the override to go higher)"
        )
    return REGISTRY[name](dim)


def list_targets():
    return sorted(REGISTRY)
