import numpy as np
import pytest

from laplev.errors import (
    HessianFailedError,
    NoModesFoundError,
    NotPositiveDefiniteError,
    UnsupportedDimensionError,
)
from laplev.evidence import (
    HEAVY_TAIL_WARNING,
    ModeEvidence,
    combine,
    full_hessian,
    mode_evidence,
    perpendicular_fraction,
    probe_offdiag,
)
from laplev.lbfgs import run_batch
from laplev.precheck import PrecheckReport
from laplev.problem import BoundsBox, Problem
from laplev.refine import RefinedPeak

LOG_2PI = np.log(2.0 * np.pi)


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def peak(position, logl, hess_diag, steps=()):
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    widths = 1.0 / np.sqrt(-hess_diag)
    return RefinedPeak(
        position=position, logl=float(logl), hess_diag=hess_diag,
        widths=widths, grad_inf=0.0, origin=0, steps=list(steps),
        width_floored=False,
    )


def triple(start, grad, end):
    return (np.asarray(start, float), np.asarray(grad, float),
            np.asarray(end, float))


# ---------------------------------------------------------------- f_perp


def test_perp_fraction_parallel_steps_zero():
    # axis-pure parallel steps cancel bitwise; diagonal ones only to roundoff
    axis = [
        triple([1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]),
        triple([0.5, 0.0], [-0.5, 0.0], [0.25, 0.0]),
    ]
    mean, peak_f, n = perpendicular_fraction(axis, np.array([-1.0, -1.0]))
    assert n == 2
    assert mean == 0.0
    assert peak_f == 0.0

    diagonal = [
        triple([1.0, 1.0], [-1.0, -1.0], [0.5, 0.5]),
        triple([0.5, 0.5], [-0.5, -0.5], [0.25, 0.25]),
    ]
    mean, peak_f, _ = perpendicular_fraction(diagonal, np.array([-1.0, -1.0]))
    assert mean == pytest.approx(0.0, abs=1e-14)


def test_perp_fraction_orthogonal_step_is_one():
    steps = [
        triple([1.0, 0.0], [-1.0, 0.0], [1.0, 0.5]),
        triple([1.0, 0.5], [-1.0, 0.0], [1.0, 1.0]),
    ]
    mean, peak_f, _ = perpendicular_fraction(steps, np.array([-1.0, -1.0]))
    assert mean == pytest.approx(1.0)
    assert peak_f == pytest.approx(1.0)


def test_perp_fraction_hand_value():
    # unit whitening; gradient e1, step 0.8 e1 + 0.6 e2 -> perp share 0.6
    steps = [
        triple([0.0, 0.0], [1.0, 0.0], [0.8, 0.6]),
        triple([0.0, 0.0], [1.0, 0.0], [0.8, 0.6]),
    ]
    mean, peak_f, _ = perpendicular_fraction(steps, np.array([-1.0, -1.0]))
    assert mean == pytest.approx(0.6, rel=1e-12)
    assert peak_f == pytest.approx(0.6, rel=1e-12)


def test_perp_fraction_whitening_makes_newton_step_parallel():
    # l = -(x1^2 + 100 x2^2)/2: the exact step to the optimum from theta is
    # -theta, which is NOT parallel to the gradient (-x1, -100 x2) in raw
    # coordinates, but is exactly parallel after whitening by sqrt(-H_ii).
    hd = np.array([-1.0, -100.0])
    theta = np.array([1.0, 0.1])
    grad = hd * -theta * -1.0  # gradient of l at theta: H theta
    steps = [
        triple(theta, grad, [0.0, 0.0]),
        triple(theta / 2, hd * theta / 2, [0.0, 0.0]),
    ]
    mean, _, _ = perpendicular_fraction(steps, hd)
    assert mean == pytest.approx(0.0, abs=1e-13)


def test_perp_fraction_skips_dust_and_needs_two():
    tiny = triple([0.0, 0.0], [1.0, 0.0], [1e-15, 0.0])
    real = triple([0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    mean, peak_f, n = perpendicular_fraction([tiny, real], np.array([-1.0, -1.0]))
    assert n == 1
    assert np.isnan(mean) and np.isnan(peak_f)


def test_perp_fraction_measured_on_correlated_target_exceeds_band():
    # Correlated 2D Gaussian, rho = 0.5. Whitening by the DIAGONAL curvature
    # cannot absorb the cross term, so optimizer steps keep a substantial
    # perpendicular component. This pins the rotated-verdict threshold.
    h = np.array([[-4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, -4.0 / 3.0]])

    def fn(x):
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x)

    p = Problem(fn, box(2))
    starts = np.random.default_rng(7).uniform(-2, 2, size=(6, 2))
    state = run_batch(p, starts, iterations=12, tol=1e-12, record=True)
    steps = [t for row in state.steps for t in row]
    mean, _, n = perpendicular_fraction(steps, np.diag(h))
    assert n >= 2
    assert mean > 0.05


# ---------------------------------------------------------------- probe


def quad_problem(h, d, lo=-5.0, hi=5.0):
    h = np.asarray(h, dtype=np.float64)

    def fn(x):
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x)

    return Problem(fn, box(d, lo, hi))


def test_probe_hand_case_negative_coupling():
    # l = -(x1^2 + x2^2 + x1 x2): H = [[-2,-1],[-1,-2]], so the probe along
    # (1,1)/sqrt(2) reads v'Hv = -3 against the diagonal prediction -2.
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    b, rotated = probe_offdiag(p, np.zeros(2), 0.0, np.array([-2.0, -2.0]))
    assert b == pytest.approx(-1.0, rel=1e-6)
    assert rotated


def test_probe_hand_case_positive_coupling():
    p = quad_problem([[-2.0, 1.0], [1.0, -2.0]], 2)
    b, rotated = probe_offdiag(p, np.zeros(2), 0.0, np.array([-2.0, -2.0]))
    assert b == pytest.approx(1.0, rel=1e-6)
    assert rotated


def test_probe_diagonal_silent_even_with_extras():
    p = quad_problem(np.diag([-2.0, -4.0, -1.0]), 3)
    b, rotated = probe_offdiag(
        p, np.zeros(3), 0.0, np.array([-2.0, -4.0, -1.0]),
        rng=np.random.default_rng(3), extra=3,
    )
    assert b == pytest.approx(0.0, abs=1e-8)
    assert not rotated


def test_probe_extras_catch_sign_cancelling_coupling():
    # H couples (1,2) with -1 and (3,4) with +1: the mean off-diagonal is 0,
    # so the diagonal-direction probe is blind, but random directions see it.
    h = np.diag([-2.0, -2.0, -2.0, -2.0]).astype(float)
    h[0, 1] = h[1, 0] = -1.0
    h[2, 3] = h[3, 2] = 1.0
    p = quad_problem(h, 4)
    hd = np.full(4, -2.0)

    b0, rot0 = probe_offdiag(p, np.zeros(4), 0.0, hd, rng=None, extra=0)
    assert b0 == pytest.approx(0.0, abs=1e-8)
    assert not rot0

    b1, rot1 = probe_offdiag(p, np.zeros(4), 0.0, hd,
                             rng=np.random.default_rng(1), extra=3)
    assert b1 == pytest.approx(0.0, abs=1e-8)
    assert rot1


def test_probe_nonfinite_is_conservatively_rotated():
    def fn(x):
        out = -0.5 * np.sum(x * x, axis=1)
        out[np.abs(x).max(axis=1) > 1e-6] = np.nan
        return out

    p = Problem(fn, box(2))
    b, rotated = probe_offdiag(p, np.zeros(2), 0.0, np.array([-1.0, -1.0]))
    assert np.isnan(b)
    assert rotated


def test_probe_single_fused_batch_and_cost():
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -0.5 * np.sum(x * x, axis=1)

    p = Problem(fn, box(3))
    probe_offdiag(p, np.zeros(3), 0.0, np.full(3, -1.0),
                  rng=np.random.default_rng(0), extra=3)
    assert batches == [2 + 2 * 3]
    assert p.eval_counter == 8


def test_probe_rejects_1d():
    p = quad_problem([[-1.0]], 1)
    with pytest.raises(UnsupportedDimensionError):
        probe_offdiag(p, np.zeros(1), 0.0, np.array([-1.0]))


# ---------------------------------------------------------------- full H


def test_full_hessian_quadratic_exact():
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    h = full_hessian(p, np.zeros(2), 0.0, np.array([-2.0, -2.0]))
    np.testing.assert_allclose(h, [[-2.0, -1.0], [-1.0, -2.0]], rtol=1e-7)
    np.testing.assert_array_equal(h, h.T)


def test_full_hessian_separable_offdiag_zero():
    p = quad_problem(np.diag([-1.0, -3.0, -0.5]), 3)
    h = full_hessian(p, np.zeros(3), 0.0, np.array([-1.0, -3.0, -0.5]))
    off = h - np.diag(np.diag(h))
    np.testing.assert_allclose(off, 0.0, atol=1e-9)


def test_full_hessian_rotated_cigar_recovered():
    d = 8
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.ones(d)
    lam[0] = 1e6
    h_true = -(q * lam) @ q.T
    h_true = 0.5 * (h_true + h_true.T)
    p = quad_problem(h_true, d)
    h = full_hessian(p, np.zeros(d), 0.0, np.diag(h_true))
    scale = np.abs(h_true).max()
    np.testing.assert_allclose(h, h_true, rtol=1e-4, atol=1e-4 * scale)


def test_full_hessian_one_batch_cost_two_d_dminus1():
    batches = []
    d = 5

    def fn(x):
        batches.append(x.shape[0])
        return -0.5 * np.sum(x * x, axis=1)

    p = Problem(fn, box(d))
    full_hessian(p, np.zeros(d), 0.0, np.full(d, -1.0))
    assert batches == [2 * d * (d - 1)]


def test_full_hessian_nonfinite_raises():
    def fn(x):
        out = -0.5 * np.sum(x * x, axis=1)
        out[(x[:, 0] > 0) & (x[:, 1] > 0)] = np.nan
        return out

    p = Problem(fn, box(2))
    with pytest.raises(HessianFailedError):
        full_hessian(p, np.zeros(2), 0.0, np.array([-1.0, -1.0]))


def test_full_hessian_rejects_1d():
    p = quad_problem([[-1.0]], 1)
    with pytest.raises(UnsupportedDimensionError):
        full_hessian(p, np.zeros(1), 0.0, np.array([-1.0]))


# ---------------------------------------------------------------- mode_evidence


def newton_steps(hess_diag, point=(1.0, 1.0)):
    # steps straight toward the optimum of l = sum h_i x_i^2 / 2, with the
    # true gradient h * x at each start: whitened-parallel by construction
    hd = np.asarray(hess_diag, float)
    p0 = np.asarray(point, float)
    return [
        triple(p0, hd * p0, np.zeros_like(p0)),
        triple(p0 / 2, hd * p0 / 2, np.zeros_like(p0)),
    ]


def orthogonal_steps():
    return [
        triple([1.0, 0.0], [-1.0, 0.0], [1.0, 0.5]),
        triple([1.0, 0.5], [-1.0, 0.0], [1.0, 1.0]),
    ]


def test_mode_evidence_standard_gaussian_diag_path():
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0], newton_steps([-1.0, -1.0])),
                       tail_diagnostic=False)
    assert me.hessian_kind == "diagonal"
    assert me.verdict.decision == "axis_aligned"
    assert me.log_z == pytest.approx(LOG_2PI, rel=1e-14)
    assert me.condition_number == pytest.approx(1.0)
    assert me.evals_used == 0
    assert me.hessian is None


def test_mode_evidence_correlated_full_path_value():
    # integral of exp(-(x^2 + y^2 + xy)) is 2 pi / sqrt(3)
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-2.0, -2.0]),
                       rng=np.random.default_rng(0), tail_diagnostic=False)
    assert me.hessian_kind == "full"
    assert me.verdict.decision == "rotated"
    assert me.verdict.probe_b == pytest.approx(-1.0, rel=1e-6)
    assert me.log_z == pytest.approx(LOG_2PI - 0.5 * np.log(3.0), rel=1e-9)
    assert me.condition_number == pytest.approx(3.0, rel=1e-9)
    assert me.hessian is not None


def test_mode_evidence_1d_scaling():
    def fn(x):
        return -x[:, 0] ** 2 / 8.0

    p = Problem(fn, box(1))
    me = mode_evidence(p, peak([0.0], 0.0, [-0.25]), tail_diagnostic=False)
    assert me.hessian_kind == "diagonal"
    assert me.log_z == pytest.approx(0.5 * LOG_2PI + 0.5 * np.log(4.0),
                                     rel=1e-12)


def test_mode_evidence_path_consistency_on_axis_aligned():
    # force the full-Hessian path on an axis-aligned Gaussian by feeding
    # synthetic orthogonal steps; both paths must agree.
    p = quad_problem(np.diag([-1.0, -0.25]), 2)
    diag_me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -0.25],
                                    newton_steps([-1.0, -0.25])),
                            tail_diagnostic=False)
    full_me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -0.25],
                                    orthogonal_steps()),
                            tail_diagnostic=False)
    assert diag_me.hessian_kind == "diagonal"
    assert full_me.hessian_kind == "full"
    assert full_me.log_z == pytest.approx(diag_me.log_z, abs=1e-8)


def test_mode_evidence_rejects_indefinite_full_hessian():
    # diag (-2,-2) passes the elementwise filter, but the cross term makes
    # -H indefinite: eigenvalues of -H are 5 and -1.
    p = quad_problem([[-2.0, -3.0], [-3.0, -2.0]], 2)
    with pytest.raises(NotPositiveDefiniteError):
        mode_evidence(p, peak([0.0, 0.0], 0.0, [-2.0, -2.0]),
                      rng=np.random.default_rng(0), tail_diagnostic=False)


def test_mode_evidence_soundness_on_refined_trajectories():
    # End-to-end soundness across seeds: axis-aligned anisotropic Gaussians
    # (including 1e6:1 conditioning) classify as axis_aligned, correlated
    # ones as rotated. Coarse peaks honor the discovery contract of a
    # converged walker: per-coordinate gradient below 1e-6.
    from laplev.refine import refine_peaks
    from laplev.discovery import CoarsePeak

    cases = [
        ("aniso", np.diag([-1.0, -100.0]), "axis_aligned"),
        ("cigar", np.diag([-1.0, -1e6]), "axis_aligned"),
        ("corr", np.array([[-4.0 / 3.0, 2.0 / 3.0],
                           [2.0 / 3.0, -4.0 / 3.0]]), "rotated"),
    ]
    for seed in range(1, 11):
        for name, h, expected in cases:
            rng = np.random.default_rng(seed)
            p = quad_problem(h, 2)
            kappa = -np.diag(np.asarray(h))
            start = rng.uniform(-1.0, 1.0, 2) * 1e-7 / kappa
            cp = CoarsePeak(start, float(p.logl(start[None, :])[0]), 0.3,
                            1e-8, 1)
            pk, _ = refine_peaks(p, [cp], lam_fine=0.01, rng=rng)
            me = mode_evidence(p, pk[0], rng=rng, tail_diagnostic=False)
            assert me.verdict.decision == expected, f"{name} seed {seed}"


def test_mode_evidence_heavy_tail_warning_fires_on_student_t():
    # 2D Student-t with nu=3: at 3 whitened radii the log-density has
    # dropped by 2.57 nats where the Gaussian model predicts 4.5.
    nu, d = 3.0, 2

    def fn(x):
        return -0.5 * (nu + d) * np.log1p(np.sum(x * x, axis=1) / nu)

    p = Problem(fn, box(2))
    hd = np.full(2, -(nu + d) / nu)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, hd, newton_steps(hd)))
    assert HEAVY_TAIL_WARNING in me.warnings
    assert me.evals_used == 2


def test_mode_evidence_no_tail_warning_on_gaussian():
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0], newton_steps([-1.0, -1.0])))
    assert me.warnings == []
    assert me.evals_used == 2


def test_mode_evidence_asymmetry_warning():
    # quadratic on one side of the diagonal, four times flatter on the other
    def fn(x):
        q = -0.5 * np.sum(x * x, axis=1)
        return np.where(x.sum(axis=1) >= 0, q, q / 4.0)

    p = Problem(fn, box(2))
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0], newton_steps([-1.0, -1.0])))
    assert any("asymmetric" in w for w in me.warnings)


def test_mode_evidence_condition_warning():
    p = quad_problem(np.diag([-1.0, -1e7]), 2)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1e7], newton_steps([-1.0, -1e7])),
                       tail_diagnostic=False)
    assert any("unreliable" in w for w in me.warnings)
    assert me.condition_number == pytest.approx(1e7)


def test_mode_evidence_probe_cost_accounting():
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = mode_evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
                       rng=np.random.default_rng(0), extra_probes=3,
                       tail_diagnostic=False)
    # no usable steps -> probe path: 2 + 2*3 evaluations, no full Hessian
    assert me.evals_used == 8
    assert me.hessian_kind == "diagonal"


# ---------------------------------------------------------------- combine


def stub_precheck(marginal=0.0):
    return PrecheckReport(
        sensitivities=np.array([1.0]), flat=(), soft=(), active=(0,),
        log_z_marginal=float(marginal), center_logl=0.0, eval_cost=3,
    )


def stub_mode(log_z, warnings=()):
    return ModeEvidence(
        peak=peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
        log_z=float(log_z), hessian_kind="diagonal", log_det_negh=0.0,
        condition_number=1.0,
        verdict=None, hessian=None, warnings=list(warnings), evals_used=0,
    )


def test_combine_two_identical_modes_adds_log2():
    res = combine([stub_mode(1.25), stub_mode(1.25)], stub_precheck(), box(2))
    assert res.log_z_total == pytest.approx(1.25 + np.log(2.0), rel=1e-14)


def test_combine_single_mode_passthrough_and_prior_norm():
    res = combine([stub_mode(2.5)], stub_precheck(), box(3))
    assert res.log_z_total == pytest.approx(2.5, rel=1e-14)
    assert res.log_z_vs_prior == pytest.approx(2.5 - 3 * np.log(10.0),
                                               rel=1e-14)


def test_combine_adds_precheck_marginal():
    res = combine([stub_mode(1.0)], stub_precheck(marginal=np.log(5.0)), box(2))
    assert res.log_z_total == pytest.approx(1.0 + np.log(5.0), rel=1e-14)


def test_combine_shift_invariance_exact():
    vals = [1.5, 0.25, -0.75]
    base = combine([stub_mode(v) for v in vals], stub_precheck(), box(2))
    c = 32.0  # power of two: the shifted inputs round identically
    shifted = combine([stub_mode(v + c) for v in vals], stub_precheck(), box(2))
    assert shifted.log_z_total == base.log_z_total + c


def test_combine_empty_raises():
    with pytest.raises(NoModesFoundError):
        combine([], stub_precheck(), box(2))


def test_combine_aggregates_mode_warnings():
    res = combine(
        [stub_mode(0.0, warnings=["w1"]), stub_mode(0.0, warnings=["w2"])],
        stub_precheck(), box(2), warnings=["outer"],
    )
    assert res.warnings == ["outer", "w1", "w2"]
    assert res.to_dict()["warnings"] == ["outer", "w1", "w2"]
