"""Curvature-based direction classification and the reduced evaluator.

Oracles: hand-built rotated quadratics with known eigenvalues, analytic
Gaussian integrals for the consistency check, and ruler-computed box chords
for the degenerate-direction mass.
"""

import json

import numpy as np
import pytest

from laplev.discovery import Peak
from laplev.errors import InvalidParameterError, SaddleDirectionError
from laplev.pipeline import preset_config, run
from laplev.problem import BoundsBox, Problem
from laplev.reduction import (
    EPS_INFORM_REL,
    EPS_NUISANCE_REL,
    LOG_2PI,
    ReductionReport,
    box_chords,
    reduce_mode,
)
from laplev.targets import get_target


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox(np.full(d, lo), np.full(d, hi))


def make_peak(position, logl, hess_diag):
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    return Peak(
        position=position,
        logl=float(logl),
        hess_diag=hess_diag,
        steps=np.full(position.size, 1e-3),
    )


def rotation_3d():
    """A fixed, exactly orthogonal 3x3 rotation (two Givens factors)."""
    c1, s1 = np.cos(0.3), np.sin(0.3)
    c2, s2 = np.cos(1.1), np.sin(1.1)
    g1 = np.array([[c1, -s1, 0.0], [s1, c1, 0.0], [0.0, 0.0, 1.0]])
    g2 = np.array([[1.0, 0.0, 0.0], [0.0, c2, -s2], [0.0, s2, c2]])
    return g1 @ g2


def quad_problem(precision, d, mu=None, lo=-5.0, hi=5.0):
    mu = np.zeros(d) if mu is None else np.asarray(mu, dtype=np.float64)

    def fn(x):
        dx = x - mu
        return -0.5 * np.einsum("ni,ij,nj->n", dx, precision, dx)

    return Problem(fn, box(d, lo, hi))


# ---------------------------------------------------------------------------
# classification


def test_classification_three_way_split():
    # lambda_max = 1e3 puts the cutoffs at 1e-3 and 1e-9: 1 is informative,
    # 1e-10 degenerate, each a factor of 10 or more from its cutoff.
    lam = np.array([1e3, 1.0, 1e-10])
    v = rotation_3d()
    hessian = -(v @ np.diag(lam) @ v.T)
    p = quad_problem(-hessian, 3)
    peak = make_peak(np.zeros(3), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.eigenvalues[0] == pytest.approx(1e-10, rel=1e-6)
    assert report.eigenvalues[1] == pytest.approx(1.0, rel=1e-10)
    assert report.eigenvalues[2] == pytest.approx(1e3, rel=1e-10)
    assert report.informative == (1, 2)
    assert report.nuisance == ()
    assert report.degenerate == (0,)
    assert report.d_eff == 2


def test_all_informative_has_no_corrections():
    hessian = np.diag([-4.0, -9.0])
    p = quad_problem(-hessian, 2)
    peak = make_peak(np.zeros(2), 0.0, np.diag(hessian))
    report, reduced = reduce_mode(p, peak, hessian)
    assert report.informative == (0, 1)
    assert report.d_eff == 2
    assert report.log_z_nuisance == 0.0
    assert report.log_z_degen == 0.0
    assert reduced.dim == 2


def test_single_unit_nuisance_contributes_half_log_2pi():
    # lambda_max = 1e8 puts the cutoffs at 10 and 1e-4: 1 is a nuisance.
    hessian = np.diag([-1e8, -1.0])
    p = quad_problem(-hessian, 2)
    peak = make_peak(np.zeros(2), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.d_eff == 1
    assert report.nuisance == (0,)
    assert report.log_z_nuisance == pytest.approx(0.5 * LOG_2PI, abs=1e-12)
    assert report.log_z_degen == 0.0


def test_classification_uses_relative_defaults():
    # lambda_max = 1e8 lifts the cutoffs to 10 and 1e-4.
    hessian = np.diag([-1e8, -1.0, -1e-6])
    p = quad_problem(-hessian, 3)
    peak = make_peak(np.zeros(3), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.informative == (2,)
    assert report.nuisance == (1,)
    assert report.degenerate == (0,)
    assert EPS_INFORM_REL * 1e8 == pytest.approx(1e1)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_rotated_cigar_keeps_every_direction_informative(dim):
    # rotated-cigar's weakest curvature is 1e-6 of its strongest, a decade
    # above the informative cut, so the last bits of the measured Hessian
    # cannot move that direction out: d_eff is the active dimension.
    res = run(get_target("rotated-cigar", dim).problem,
              preset_config("fast", seed=1, reduce=True))
    (report,) = res.reduction
    assert report.d_eff == len(res.precheck.active) == dim


# ---------------------------------------------------------------------------
# reduced evaluator


def test_reduced_evaluator_center_is_exact():
    def fn(x):
        return -np.sin(x[:, 0]) ** 2 - (x[:, 1] - 0.5) ** 4 - 0.1 * x[:, 2] ** 2

    p = Problem(fn, box(3))
    center = np.array([0.7, -1.3, 2.2])
    hessian = np.diag([-2.0, -1.0, -0.2])
    peak = make_peak(center, p.logl(center[None])[0], np.diag(hessian))
    _, reduced = reduce_mode(p, peak, hessian)
    assert reduced.logl(np.zeros((1, reduced.dim)))[0] == p.logl(center[None])[0]


def test_reduced_evaluator_matches_rotated_coordinates():
    lam = np.array([9.0, 4.0, 1.0])
    v = rotation_3d()
    precision = v @ np.diag(lam) @ v.T
    p = quad_problem(precision, 3)
    peak = make_peak(np.zeros(3), 0.0, np.diag(-precision))
    report, reduced = reduce_mode(p, peak, -precision)
    assert report.d_eff == 3
    # In eigencoordinates the quadratic is separable with the ascending
    # eigenvalues on the diagonal.
    phi = np.array([[0.3, -1.2, 0.8], [1.0, 0.0, 0.0]])
    expected = -0.5 * (phi**2 * report.eigenvalues[None, :]).sum(axis=1)
    np.testing.assert_allclose(reduced.logl(phi), expected, atol=1e-12)


def test_reduced_evaluator_counts_into_parent():
    hessian = np.diag([-4.0, -9.0])
    p = quad_problem(-hessian, 2)
    peak = make_peak(np.zeros(2), 0.0, np.diag(hessian))
    _, reduced = reduce_mode(p, peak, hessian)
    before = p.eval_counter
    reduced.logl(np.zeros((5, 2)))
    assert p.eval_counter == before + 5
    assert reduced.eval_counter == p.eval_counter


def test_rotation_is_orthonormal():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    hessian = -(a @ a.T + 6.0 * np.eye(6))
    p = quad_problem(-hessian, 6)
    peak = make_peak(np.zeros(6), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    np.testing.assert_allclose(
        report.rotation.T @ report.rotation, np.eye(6), atol=1e-10
    )


# ---------------------------------------------------------------------------
# degenerate-direction mass (box chords)


def test_box_chord_axis_direction():
    b = BoundsBox(np.array([-5.0, -2.0]), np.array([5.0, 8.0]))
    t_lo, t_hi = box_chords(b, np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    assert (t_lo[0], t_hi[0]) == (-3.0, 7.0)


def test_box_chord_diagonal_direction():
    b = box(2)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_lo, t_hi = box_chords(b, np.zeros(2), u[:, None])
    assert t_hi[0] - t_lo[0] == pytest.approx(10.0 * np.sqrt(2.0), rel=1e-12)


def box_chord_reference(bounds, center, direction):
    """The per-direction, per-coordinate loop that box_chords replaced."""
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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_box_chords_equal_the_per_direction_loop(d):
    rng = np.random.default_rng(d)
    lower = rng.uniform(-6.0, -1.0, d)
    b = BoundsBox(lower, lower + rng.uniform(0.5, 9.0, d))
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    sparse = rotation * (rng.uniform(size=(d, d)) < 0.5)
    columns = np.hstack([rotation, sparse, np.eye(d), np.zeros((d, 1))])
    inside = b.lower + rng.uniform(size=d) * b.widths
    on_wall = inside.copy()
    on_wall[0] = b.lower[0]
    on_wall[-1] = b.upper[-1]
    for center in (inside, b.center, on_wall):
        t_lo, t_hi = box_chords(b, center, columns)
        for k in range(columns.shape[1]):
            want = box_chord_reference(b, center, columns[:, k])
            assert (t_lo[k], t_hi[k]) == want


def test_degenerate_axis_direction_gets_box_width():
    # Flat in the second coordinate; box width there is 10 around an
    # off-center peak.
    hessian = np.array([[-1.0, 0.0], [0.0, 0.0]])

    def fn(x):
        return -0.5 * x[:, 0] ** 2

    p = Problem(fn, BoundsBox(np.array([-5.0, -2.0]), np.array([5.0, 8.0])))
    peak = make_peak(np.array([0.0, 1.0]), 0.0, np.array([-1.0, -1e-300]))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.degenerate == (0,)
    assert report.d_eff == 1
    assert report.log_z_degen == pytest.approx(np.log(10.0), abs=1e-12)


def test_degenerate_diagonal_direction_gets_full_chord():
    # -H = v v^T with v along (1,1)/sqrt(2): zero curvature along (1,-1).
    hessian = -0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    p = quad_problem(-hessian, 2)
    peak = make_peak(np.zeros(2), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.d_eff == 1
    assert report.log_z_degen == pytest.approx(
        np.log(10.0 * np.sqrt(2.0)), rel=1e-10
    )


def test_tiny_negative_eigenvalue_within_roundoff_is_degenerate():
    hessian = np.diag([-1.0, 1e-20])
    p = quad_problem(np.diag([1.0, 0.0]), 2)
    peak = make_peak(np.zeros(2), 0.0, np.array([-1.0, -1e-300]))
    report, _ = reduce_mode(p, peak, hessian)
    assert report.degenerate == (0,)


# ---------------------------------------------------------------------------
# evidence consistency


def full_fd_hessian(reduced, center_logl):
    """Exact Hessian of a quadratic via central second differences."""
    d = reduced.dim
    h = 1e-3
    hess = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        lp = reduced.logl(e[None])[0]
        lm = reduced.logl(-e[None])[0]
        hess[i, i] = (lp + lm - 2.0 * center_logl) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            ei, ej = np.zeros(d), np.zeros(d)
            ei[i] = h
            ej[j] = h
            pp = reduced.logl((ei + ej)[None])[0]
            pm = reduced.logl((ei - ej)[None])[0]
            mp = reduced.logl((-ei + ej)[None])[0]
            mm = reduced.logl((-ei - ej)[None])[0]
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    return hess


def test_reduced_laplace_plus_corrections_matches_full_integral():
    # Eigenvalues straddle the cutoffs (1e-2 and 1e-8 at lambda_max =
    # 1e4): {1e4, 1} informative, {1e-4} nuisance, nothing degenerate. The
    # reduced-space Gaussian integral plus the nuisance correction must
    # reproduce the full-space value.
    lam = np.array([1e4, 1.0, 1e-4])
    v = rotation_3d()
    precision = v @ np.diag(lam) @ v.T
    mu = np.array([0.4, -0.2, 0.1])
    p = quad_problem(precision, 3, mu=mu)
    logl_star = 0.0
    peak = make_peak(mu, logl_star, np.diag(-precision))
    report, reduced = reduce_mode(p, peak, -precision)
    assert report.nuisance != () and report.degenerate == ()

    hess_red = full_fd_hessian(reduced, logl_star)
    eigs = np.linalg.eigvalsh(-hess_red)
    log_z_reduced = (
        logl_star
        + 0.5 * reduced.dim * LOG_2PI
        - 0.5 * float(np.log(eigs).sum())
    )
    total = log_z_reduced + report.log_z_nuisance + report.log_z_degen

    log_z_full = logl_star + 1.5 * LOG_2PI - 0.5 * float(np.log(lam).sum())
    assert total == pytest.approx(log_z_full, abs=1e-8)


def test_degenerate_direction_total_mass_matches_product_integral():
    # N(0,1) in x times uniform mass over the y-chord of the box.
    hessian = np.array([[-1.0, 0.0], [0.0, 0.0]])

    def fn(x):
        return -0.5 * x[:, 0] ** 2

    p = Problem(fn, BoundsBox(np.array([-5.0, -2.0]), np.array([5.0, 8.0])))
    peak = make_peak(np.array([0.0, 1.0]), 0.0, np.array([-1.0, -1e-300]))
    report, reduced = reduce_mode(p, peak, hessian)
    log_z_reduced = 0.5 * LOG_2PI  # 1-d unit Gaussian around the peak
    total = log_z_reduced + report.log_z_nuisance + report.log_z_degen
    assert total == pytest.approx(0.5 * LOG_2PI + np.log(10.0), abs=1e-12)


# ---------------------------------------------------------------------------
# errors and guards


def test_negative_curvature_direction_raises():
    hessian = np.diag([1.0, -1.0])
    p = quad_problem(np.diag([1.0, 1.0]), 2)
    peak = make_peak(np.zeros(2), 0.0, np.array([-1.0, -1.0]))
    with pytest.raises(SaddleDirectionError):
        reduce_mode(p, peak, hessian)


def test_all_directions_non_positive_raises():
    hessian = np.diag([1.0, 2.0])
    p = quad_problem(np.diag([1.0, 1.0]), 2)
    peak = make_peak(np.zeros(2), 0.0, np.array([-1.0, -1.0]))
    with pytest.raises(SaddleDirectionError):
        reduce_mode(p, peak, hessian)


def test_hessian_dimension_mismatch_raises():
    # A 2x2 Hessian against a 3-d problem must fail loudly up front, not
    # deep inside the chord geometry.
    p = quad_problem(np.eye(3), 3)
    peak = make_peak(np.zeros(3), 0.0, np.full(3, -1.0))
    with pytest.raises(InvalidParameterError, match="does not match"):
        reduce_mode(p, peak, np.diag([-1.0, -2.0]))


def test_saddle_threshold_scales_with_lambda_max():
    # -1e-3 is far beyond roundoff for lambda_max = 1 but within the
    # degeneracy band for lambda_max = 1e12.
    p = quad_problem(np.diag([1.0, 1.0]), 2)
    peak = make_peak(np.zeros(2), 0.0, np.array([-1.0, -1.0]))
    with pytest.raises(SaddleDirectionError):
        reduce_mode(p, peak, np.diag([-1.0, 1e-3]))
    report, _ = reduce_mode(p, peak, np.diag([-1e12, 1e-3]))
    assert report.degenerate == (0,)
    assert 1e-3 < EPS_NUISANCE_REL * 1e12


# ---------------------------------------------------------------------------
# report serialization and bounds export


def test_report_serializes_to_json():
    lam = np.array([1e3, 1.0, 1e-10])
    v = rotation_3d()
    hessian = -(v @ np.diag(lam) @ v.T)
    p = quad_problem(-hessian, 3)
    peak = make_peak(np.zeros(3), 0.0, np.diag(hessian))
    report, _ = reduce_mode(p, peak, hessian)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["d_eff"] == 2
    assert back["informative"] == [1, 2]
    assert back["degenerate"] == [0]
    assert isinstance(back["eigenvalues"][0], float)
    assert isinstance(report, ReductionReport)


def test_reduced_bounds_bracket_the_peak():
    lam = np.array([9.0, 4.0])
    hessian = -np.diag(lam)
    p = quad_problem(-hessian, 2)
    peak = make_peak(np.array([1.0, -2.0]), 0.0, np.diag(hessian))
    _, reduced = reduce_mode(p, peak, hessian)
    assert np.all(reduced.bounds.lower < 0.0)
    assert np.all(reduced.bounds.upper > 0.0)
    # Axis-aligned case: chords are the full per-axis widths around the peak.
    assert np.all(
        reduced.bounds.upper - reduced.bounds.lower == pytest.approx(10.0)
    )
