import numpy as np
import pytest
from scipy.integrate import quad

from laplev.errors import InvalidParameterError, UnsupportedDimensionError
from laplev.problem import BoundsBox, Problem
from laplev.targets import (
    LOG_2PI,
    REGISTRY,
    SUITES,
    _eggbox_gl,
    _mixture4_layout,
    dim_cap,
    get_target,
    list_targets,
    make_gaussian,
    make_mixture,
)

ALL_NAMES = sorted(REGISTRY)


# --------------------------------------------------------- closed-form truths


def test_gaussian_truth_scalar_vector_matrix():
    t = make_gaussian(3, cov=2.0)
    assert t.true_log_integral == pytest.approx(1.5 * LOG_2PI + 1.5 * np.log(2.0), abs=1e-13)
    t = make_gaussian(2, cov=[1.0, 4.0])
    assert t.true_log_integral == pytest.approx(LOG_2PI + 0.5 * np.log(4.0), abs=1e-13)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    t = make_gaussian(2, cov=cov)
    assert t.true_log_integral == pytest.approx(LOG_2PI + 0.5 * np.log(0.75), abs=1e-13)


def test_gaussian_truth_matches_numeric_oracle_2d():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    t = make_gaussian(2, cov=cov, bounds=BoundsBox.cube(2, -12, 12))
    xs = np.linspace(-12, 12, 2401)
    h = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.exp(t.problem._fn(pts)).reshape(gx.shape)
    est = np.log(np.trapezoid(np.trapezoid(vals, dx=h, axis=1), dx=h))
    assert est == pytest.approx(t.true_log_integral, abs=1e-9)


def test_student_t_truth_closed_form():
    # d=2, nu=3 collapses to exactly 2 pi; nu=1 (Cauchy) does as well.
    t = get_target("student-t-3", 2)
    assert t.true_log_integral == pytest.approx(np.log(2.0 * np.pi), abs=1e-12)
    t = get_target("cauchy", 2)
    assert t.true_log_integral == pytest.approx(np.log(2.0 * np.pi), abs=1e-12)


def test_student_t_truth_matches_radial_quadrature():
    for dim, nu in ((3, 3.0), (5, 3.0), (4, 1.0)):
        name = "cauchy" if nu == 1.0 else "student-t-3"
        t = get_target(name, dim)
        from scipy.special import gammaln

        log_sphere = np.log(2.0) + 0.5 * dim * np.log(np.pi) - gammaln(0.5 * dim)
        val, err = quad(
            lambda r: r ** (dim - 1) * (1.0 + r * r / nu) ** (-0.5 * (nu + dim)),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        assert err < 1e-10
        assert t.true_log_integral == pytest.approx(log_sphere + np.log(val), abs=1e-10)


def test_skew_normal_truth_and_mode():
    t = get_target("skew-normal-5", 3)
    assert t.true_log_integral == 0.0
    from math import erf

    val, _ = quad(
        lambda x: 2.0 * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        * 0.5 * (1.0 + erf(5.0 * x / np.sqrt(2.0))),
        -10, 10, epsabs=1e-13,
    )
    assert val == pytest.approx(1.0, abs=1e-11)
    mode = t.known_modes[0]
    assert np.all(mode == mode[0])
    assert mode[0] == pytest.approx(0.372, abs=5e-3)
    # Stationarity of the product form at the known mode.
    p = t.problem
    eps = 1e-6
    up = p.logl((mode + eps)[None])[0]
    dn = p.logl((mode - eps)[None])[0]
    assert abs(up - dn) / (2 * eps) < 1e-6


def test_exp_power_truth():
    t = get_target("exp-power-1", 2)
    assert t.true_log_integral == pytest.approx(2 * np.log(2.0), abs=1e-12)
    t5 = get_target("exp-power-0.5", 3)
    assert t5.true_log_integral == pytest.approx(3 * np.log(4.0), abs=1e-12)
    for beta in (0.5, 1.0):
        val, _ = quad(lambda x: np.exp(-np.abs(x) ** beta), -np.inf, np.inf,
                      epsabs=1e-13, limit=400)
        t = get_target(f"exp-power-{beta:g}", 1)
        assert t.true_log_integral == pytest.approx(np.log(val), abs=1e-9)


def test_banana_truth_matches_numeric_oracle():
    t = get_target("banana-0.1", 2)
    assert t.true_log_integral == pytest.approx(LOG_2PI + np.log(10.0), abs=1e-13)
    # Independent 2-d grid integration over a containing box.
    xs = np.linspace(-75, 75, 3001)
    ys = np.linspace(-600, 40, 6401)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.exp(t.problem._fn(pts)).reshape(gx.shape)
    est = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    assert np.log(est) == pytest.approx(t.true_log_integral, rel=0, abs=1e-7)


def test_twisted_truth_against_independent_grid():
    t = get_target("twisted", 2)
    xs = np.linspace(-12, 12, 200001)
    f = np.exp(-0.5 * xs**2 + 1.0 * (np.cos(2.5 * xs) - 1.0))
    factor = np.trapezoid(f, xs)
    expected = 0.5 * LOG_2PI + np.log(factor)
    assert t.true_log_integral == pytest.approx(expected, abs=1e-9)


def test_eggbox_truth_grid_convergence():
    a = _eggbox_gl(2000)
    b = _eggbox_gl(3001)
    assert a == pytest.approx(b, abs=1e-11)
    # Independent Simpson check on a uniform grid.
    from scipy.integrate import simpson

    half = 1.5 * np.pi
    xs = np.linspace(-half, half, 6001)
    f = (2.0 + np.cos(xs)[:, None] * np.cos(xs)[None, :]) ** 5 - 243.0
    val = simpson(simpson(np.exp(f), x=xs, axis=1), x=xs)
    assert 243.0 + np.log(val) == pytest.approx(a, abs=1e-8)


def test_funnel_truth_matches_numeric_oracle_2d():
    t = get_target("funnel-3", 2)
    assert t.true_log_integral == pytest.approx(LOG_2PI + np.log(3.0), abs=1e-13)
    vs = np.linspace(-20, 20, 4001)
    # Inner x integral is exactly sqrt(2 pi) e^{v/2}; integrate v numerically.
    f = np.exp(-vs**2 / 18.0 - 0.5 * vs) * np.sqrt(2 * np.pi) * np.exp(0.5 * vs)
    est = np.log(np.trapezoid(f, vs))
    assert est == pytest.approx(t.true_log_integral, abs=1e-9)


def test_ring_truth_matches_cartesian_grid_2d():
    t = get_target("ring", 2)
    xs = np.linspace(-6, 6, 4001)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    r = np.hypot(gx, gy)
    vals = np.exp(-0.5 * ((r - 3.0) / 0.3) ** 2)
    est = np.log(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))
    assert est == pytest.approx(t.true_log_integral, abs=1e-8)


def test_mixture_truth_is_weight_sum():
    t = make_mixture(2, [[0, 0], [3, 3]], [0.25, 0.5], BoundsBox.cube(2, -8, 8))
    assert t.true_log_integral == pytest.approx(np.log(0.75), abs=1e-14)
    t4 = get_target("mixture4", 4)
    assert t4.true_log_integral == 0.0
    bi = get_target("bimodal-asym", 3)
    assert bi.true_log_integral == 0.0


def test_mixture4_component_reorder_is_invariant():
    means, half = _mixture4_layout(4)
    b = BoundsBox.cube(4, -half, half)
    t1 = make_mixture(4, means, np.full(4, 0.25), b)
    t2 = make_mixture(4, means[::-1], np.full(4, 0.25), b)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.7, 2.7, size=(64, 4))
    np.testing.assert_allclose(t1.problem._fn(x), t2.problem._fn(x), rtol=0, atol=1e-13)


def test_two_scale_truth_matches_quadrature():
    # Both components integrate to (2 pi)^{d/2} sigma^d times e^peak; at
    # d=1 a quadrature that gives the narrow one its own interval must agree.
    from scipy.integrate import quad

    t = get_target("two-scale", 1)
    top = t.problem.logl(np.array([[-2.0]]))[0]
    assert top == pytest.approx(-1e4, abs=1e-9)

    def density(x):
        return np.exp(t.problem.logl(np.array([[x]]))[0] + 1e4)

    total = sum(quad(density, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for lo, hi in ((-30.0, -2.0), (-2.0, 1.99), (1.99, 2.0), (2.0, 2.01),
                               (2.01, 30.0)))
    assert t.true_log_integral + 1e4 == pytest.approx(np.log(total), abs=1e-11)
    assert [m.tolist() for m in get_target("two-scale", 3).known_modes] == [
        [-2.0] * 3, [2.0] * 3]


def test_mixture4_separations_by_dimension():
    for dim, lo, hi in ((2, 5.9, 6.1), (4, 3.7, 3.9), (8, 5.3, 5.5), (16, 7.5, 7.7)):
        means, _ = _mixture4_layout(dim)
        dists = [np.linalg.norm(means[i] - means[j])
                 for i in range(4) for j in range(i + 1, 4)]
        assert lo < min(dists) < hi


def test_mixture4_modes_at_least_3p8_apart_from_d3():
    for dim in range(3, 17):
        means, _ = _mixture4_layout(dim)
        dists = [np.linalg.norm(means[i] - means[j])
                 for i in range(4) for j in range(i + 1, 4)]
        assert min(dists) >= 3.8, dim


# ------------------------------------------------------------- pinned truths

# true_log_integral.hex() of every registry target, recorded with the scipy
# imports at module level; moving them into the builders must not move a
# truth by a bit. Recorded with numpy 2.4 and scipy 1.17: the quadrature,
# gamma-function and LAPACK truths can differ in the last bit on another stack.
TRUTH_HEX = {
    ("banana-0.1", 2): "0x1.08fd54ff3da38p+2",
    ("banana-0.1", 4): "0x1.7e9d1c20d09e5p+2",
    ("banana-0.5", 2): "0x1.08fd54ff3da38p+2",
    ("banana-0.5", 4): "0x1.7e9d1c20d09e5p+2",
    ("bimodal-asym", 2): "0x0.0p+0",
    ("bimodal-asym", 4): "0x0.0p+0",
    ("cauchy", 2): "0x1.d67f1c864beb4p+0",
    ("cauchy", 4): "0x1.49dfc8b0e3d2fp+1",
    ("cigar", 2): "-0x1.4478e2776cff3p+2",
    ("cigar", 4): "-0x1.10c29ba1f67e2p+4",
    ("correlated", 2): "0x1.b1ac5863e2342p+0",
    ("correlated", 4): "0x1.8c0e0c6e3050ap+1",
    ("eggbox", 2): "0x1.e0e55e50d3f50p+7",
    ("exp-power-0.5", 2): "0x1.62e42fefa39efp+1",
    ("exp-power-0.5", 4): "0x1.62e42fefa39efp+2",
    ("exp-power-1", 2): "0x1.62e42fefa39efp+0",
    ("exp-power-1", 4): "0x1.62e42fefa39efp+1",
    ("funnel-3", 2): "0x1.77dee2188e0e0p+1",
    ("funnel-3", 4): "0x1.318f382dda01dp+2",
    ("gaussian", 2): "0x1.d67f1c864beb4p+0",
    ("gaussian", 4): "0x1.d67f1c864beb4p+1",
    ("mixture4", 2): "0x0.0p+0",
    ("mixture4", 4): "0x0.0p+0",
    ("ring", 2): "0x1.5362e15433cfcp+1",
    ("ring", 4): "0x1.8178503d5c749p+2",
    ("rotated-cigar", 2): "-0x1.4478e2776cff3p+2",
    ("rotated-cigar", 4): "-0x1.4478e2776cff3p+3",
    ("skew-normal-5", 2): "0x0.0p+0",
    ("skew-normal-5", 4): "0x0.0p+0",
    ("student-t-3", 2): "0x1.d67f1c864beb4p+0",
    ("student-t-3", 4): "0x1.951c609c479a1p+1",
    ("twisted", 2): "0x1.1cbd9f630a3bcp+0",
    ("twisted", 4): "0x1.799e5df4ab138p+1",
    ("two-scale", 2): "-0x1.38714c069595ep+13",
    ("two-scale", 4): "-0x1.3862980e379b3p+13",
}
SKEW_NORMAL_MODE_HEX = "0x1.7b64d4d2fc052p-2"


def test_truths_pinned_bitwise():
    assert {name for name, _ in TRUTH_HEX} == set(REGISTRY)
    for (name, dim), want in TRUTH_HEX.items():
        assert get_target(name, dim).true_log_integral.hex() == want, (name, dim)


def test_skew_normal_modes_and_likelihood_pinned_bitwise():
    for dim in (2, 4):
        modes = get_target("skew-normal-5", dim).known_modes
        assert [[v.hex() for v in m] for m in modes] == [[SKEW_NORMAL_MODE_HEX] * dim]
    x = np.linspace(-8.0, 8.0, 12).reshape(3, 4)
    x[0, 0] = -40.0  # deep in the log_ndtr tail
    assert [v.hex() for v in get_target("skew-normal-5", 4).problem.logl(x)] == [
        "-0x1.55f52c6c72a61p+14", "-0x1.379974145ba5ep+6", "-0x1.279460e9ff4f2p+6"]


# -------------------------------------------------------------- known modes


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "ring"])
def test_known_modes_are_local_maxima(name):
    t = get_target(name, 2)
    rng = np.random.default_rng(1)
    for mode in t.known_modes:
        base = t.problem.logl(mode[None])[0]
        for _ in range(8):
            delta = rng.uniform(-1, 1, size=2) * 0.05
            assert t.problem.logl((mode + delta)[None])[0] <= base + 1e-12


# ------------------------------------------------------ evaluator invariants


@pytest.mark.parametrize("name", ALL_NAMES)
def test_evaluator_pure_and_counted(name):
    t = get_target(name, 2)
    rng = np.random.default_rng(2)
    x = rng.uniform(t.problem.bounds.lower, t.problem.bounds.upper, size=(17, 2))
    c0 = t.problem.eval_counter
    a = t.problem.logl(x)
    assert t.problem.eval_counter == c0 + 17
    b = t.problem.logl(x)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.shape == (17,)
    # Row-permutation equivariance, bitwise.
    perm = rng.permutation(17)
    c = t.problem.logl(x[perm])
    assert np.array_equal(c, a[perm])


def _smallest_dim(name):
    for dim in (1, 2):
        try:
            get_target(name, dim)
            return dim
        except UnsupportedDimensionError:
            pass
    raise AssertionError(name)


ROW_CASES = sorted(
    {(n, _smallest_dim(n)) for n in ALL_NAMES}
    | {(n, 8) for n in ALL_NAMES if n != "eggbox"}
    | {(n, d) for n in ("correlated", "rotated-cigar") for d in (32, 128)}
)


@pytest.mark.parametrize("name,dim", ROW_CASES)
def test_evaluator_values_do_not_depend_on_batching(name, dim):
    # A row's value must be the same bits whether the row is evaluated alone,
    # in a chunk, or in the whole batch: 1-row batches included, which BLAS
    # would otherwise route to gemv instead of gemm.
    problem = get_target(name, dim, allow_large=True).problem
    fn, bounds = problem._fn, problem.bounds
    x = np.random.default_rng(3).uniform(bounds.lower, bounds.upper, size=(200, dim))
    whole = fn(x)
    for size in (1, 7):
        parts = np.concatenate([fn(x[i:i + size]) for i in range(0, len(x), size)])
        assert np.array_equal(parts, whole), size


@pytest.mark.parametrize("fn", [
    lambda x: np.zeros(x.shape[0] + 1),
    lambda x: np.zeros((x.shape[0], 2)),
], ids=["n_plus_one", "n_by_two"])
def test_wrong_sized_batch_is_a_typed_error(fn):
    p = Problem(fn, BoundsBox.cube(2, -1.0, 1.0))
    with pytest.raises(InvalidParameterError, match="wrong-sized batch"):
        p.logl(np.zeros((3, 2)))
    assert p.eval_counter == 0


# ------------------------------------------------------------------ registry


def test_registry_is_complete():
    assert list_targets() == sorted(
        ["gaussian", "cigar", "correlated", "rotated-cigar", "mixture4", "student-t-3",
         "cauchy", "skew-normal-5", "exp-power-0.5", "exp-power-1", "banana-0.1",
         "banana-0.5", "twisted", "eggbox", "funnel-3", "ring", "bimodal-asym",
         "two-scale"]
    )
    for suite, names in SUITES.items():
        for n in names:
            assert n in REGISTRY, (suite, n)


def test_registry_rejects_unknown_and_bad_dims():
    with pytest.raises(InvalidParameterError):
        get_target("nope", 2)
    with pytest.raises(UnsupportedDimensionError):
        get_target("eggbox", 4)
    with pytest.raises(UnsupportedDimensionError):
        get_target("cigar", 1)
    with pytest.raises(InvalidParameterError):
        make_gaussian(2, cov=-1.0)
    with pytest.raises(InvalidParameterError):
        make_mixture(2, [[0, 0]], [-1.0], BoundsBox.cube(2, -1, 1))


def test_dim_caps():
    assert dim_cap("gaussian") == 1024
    with pytest.raises(InvalidParameterError):
        get_target("gaussian", 1025)
    assert dim_cap("cigar") == 32
    assert dim_cap("funnel-3") == 16
    with pytest.raises(InvalidParameterError):
        get_target("funnel-3", 32)
    t = get_target("funnel-3", 32, allow_large=True)
    assert t.dim == 32


def test_rotated_cigar_reproducible_and_spectrum():
    a = get_target("rotated-cigar", 4)
    b = get_target("rotated-cigar", 4)
    x = np.random.default_rng(5).uniform(-1, 1, (9, 4))
    assert np.array_equal(a.problem._fn(x), b.problem._fn(x))
    assert a.true_log_integral == pytest.approx(
        2 * LOG_2PI + 0.5 * np.sum(np.log(np.geomspace(1, 1e-6, 4))), abs=1e-12
    )


def test_funnel_overflow_is_finite_inside_bounds():
    t = get_target("funnel-3", 4)
    x = np.array([[-20.0, 0.0, 0.0, 0.0], [-20.0, 1.0, 0.0, 0.0], [20.0, 0.1, 0.1, 0.1]])
    vals = t.problem.logl(x)
    assert np.all(np.isfinite(vals))
    # Way outside bounds the scale term may overflow; it must produce -inf,
    # never NaN.
    far = np.array([[-800.0, 1.0, 0.0, 0.0], [-800.0, 0.0, 0.0, 0.0]])
    vals = t.problem.logl(far)
    assert not np.isnan(vals).any()
