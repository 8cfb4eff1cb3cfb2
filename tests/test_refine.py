import numpy as np
import pytest

from laplev.discovery import Peak
from laplev.errors import NoValidMaximaError
from laplev.lbfgs import make_state
from laplev.problem import BoundsBox, Problem
from laplev.refine import (NOISE_REL, peak_widths, refine_peaks, remeasure_noisy,
                           rounding_bound)


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def held(p, pos, lam_fine=0.1):
    """A held peak at ``pos`` as the search hands it over.

    Its value and diagonal Hessian are those of an ascent state started
    there, whose gradient steps at ``fd_steps(pos, lam_fine)``.
    """
    theta0 = np.asarray(pos, dtype=np.float64)[None, :]
    state = make_state(p, theta0, p.logl(theta0), (), lam_fine)
    hess, steps = state.hess_diag([0])
    return Peak(state.theta[0], float(state.logl[0]), hess[0], steps[0])


def gaussian(d, mu=0.0, sig2=1.0, lo=-5.0, hi=5.0):
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (d,))
    sig2 = np.broadcast_to(np.asarray(sig2, dtype=np.float64), (d,))

    def fn(x):
        return -0.5 * np.sum((x - mu) ** 2 / sig2, axis=1)

    return Problem(fn, box(d, lo, hi))


def test_diag_hessian_exact_on_quadratic():
    # The ascent state's diagonal is read off the values its gradient
    # already evaluated: exact on a quadratic, at no likelihood call.
    h_true = np.array([-1.0, -4.0, -0.25])

    def fn(x):
        return 0.5 * np.sum(h_true * x * x, axis=1) + 3.0

    p = Problem(fn, box(3))
    theta0 = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    state = make_state(p, theta0, p.logl(theta0), (), 0.1)
    mark = (p.call_counter, p.eval_counter)
    h, steps = state.hess_diag([0, 1])
    assert (p.call_counter, p.eval_counter) == mark
    np.testing.assert_allclose(h, np.vstack([h_true, h_true]), rtol=1e-6)
    assert steps.shape == (2, 3)


def test_diag_hessian_flags_nonfinite():
    # A NaN axis value of the gradient's stencil makes that row's diagonal
    # non-finite, and refine rejects the peak under its own reason.
    def fn(x):
        out = -np.sum(x * x, axis=1)
        out[x[:, 0] > 0.5] = np.nan
        return out

    p = Problem(fn, box(2))
    theta0 = np.array([[0.5, 0.0], [0.0, 0.0]])
    state = make_state(p, theta0, p.logl(theta0), (), 0.1)
    h, _ = state.hess_diag([0, 1])
    assert not np.isfinite(h[0]).all() and np.isfinite(h[1]).all()
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [held(p, [0.5, 0.0])])
    assert exc.value.reasons == {"hessian_nonfinite": 1, "saddle": 0}


def test_peak_widths_floor_and_flag():
    w, floored = peak_widths(np.array([-1.0, -1e30]), np.array([10.0, 10.0]))
    assert not floored or w[1] == pytest.approx(1e-11)
    w2, fl2 = peak_widths(np.array([-1e40, -1.0]), np.array([10.0, 10.0]))
    assert fl2 and w2[0] == pytest.approx(1e-11)
    assert w2[1] == pytest.approx(1.0)


def test_refine_one_floor_warning_counts_floored_peaks():
    # Curvature 1e24 on axis 0 puts both peaks' widths (1e-12) under the
    # floor, 1e-12 of the box width (1e-11): one warning counts both.
    def fn(x):
        return -0.5 * (1e24 * x[:, 0] ** 2 + x[:, 1] ** 2)

    p = Problem(fn, box(2))
    peaks, warnings = refine_peaks(p, [held(p, [0.0, 0.0], 0.0), held(p, [0.0, 3.0], 0.0)])
    assert len(peaks) == 2
    assert warnings == ["peak width hit the resolution floor on 2 of 2 peaks"]


def test_refine_gaussian_to_machine_tightness():
    # A held peak is taken as it stands: the very record comes back, so its
    # position, value, diagonal Hessian and steps pass through bit for bit,
    # and the diagonal the ascent measured there is exact on a quadratic.
    mu = np.array([0.5, -1.25])
    sig2 = np.array([1.0, 0.25])
    p = gaussian(2, mu, sig2)
    pos = mu + np.array([3e-8, -2e-9])
    cp = held(p, pos, 0.05)
    peaks, warns = refine_peaks(p, [cp])
    assert warns == []
    assert len(peaks) == 1
    pk = peaks[0]
    assert pk is cp
    assert pk.position.tobytes() == pos.tobytes()
    assert pk.logl == cp.logl
    assert pk.hess_diag.tobytes() == cp.hess_diag.tobytes()
    assert pk.steps.tobytes() == cp.steps.tobytes()
    np.testing.assert_allclose(pk.hess_diag, -1.0 / sig2, rtol=1e-6)


def test_refine_cigar_hessian_span():
    # 1e6:1 conditioning: the ascent's steps follow the survey's finest
    # width, so both curvatures come out exact at the held position.
    sig2 = np.array([1.0, 1e-6])
    p = gaussian(2, 0.0, sig2)
    pos = np.array([4e-7, 3e-13])
    peaks, _ = refine_peaks(p, [held(p, pos, 1e-3)])
    pk = peaks[0]
    np.testing.assert_allclose(pk.hess_diag, [-1.0, -1e6], rtol=1e-4)
    assert pk.position.tobytes() == pos.tobytes()


def test_refine_rejects_saddle_keeps_maxima():
    # Double well: maxima at (+-1, 0), saddle at the origin. The gradient
    # vanishes at all three, so each may come out of the search held; the
    # sign-of-curvature filter removes the saddle and keeps both maxima.
    def fn(x):
        return -((x[:, 0] ** 2 - 1.0) ** 2) - x[:, 1] ** 2

    p = Problem(fn, box(2, -3, 3))
    cps = [held(p, [1.0, 0.0], 0.01), held(p, [0.0, 0.0], 0.01),
           held(p, [-1.0, 0.0], 0.01)]
    peaks, _ = refine_peaks(p, cps)
    assert sorted(pk.position[0] for pk in peaks) == [-1.0, 1.0]
    for pk in peaks:
        np.testing.assert_allclose(pk.hess_diag, [-8.0, -2.0], rtol=1e-6)
    # the saddle alone is rejected, and the error names the filter
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [cps[1]])
    assert exc.value.reasons == {"hessian_nonfinite": 0, "saddle": 1}


def test_refine_all_fail_raises_with_reasons():
    # A plane is flat along every axis (a saddle for the filter), and past
    # x0 = 1 the likelihood is NaN, so a peak on that edge has a non-finite
    # stencil. Both are rejected, each under its own reason, without a
    # likelihood call.
    def fn(x):
        out = x[:, 0] + 0.5 * x[:, 1]
        out[x[:, 0] > 1.0] = np.nan
        return out

    p = Problem(fn, box(2))
    cps = [held(p, [0.0, 0.0]), held(p, [1.0, 0.0])]
    mark = (p.call_counter, p.eval_counter)
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, cps)
    assert exc.value.reasons == {"hessian_nonfinite": 1, "saddle": 1}
    assert exc.value.n_candidates == 2
    assert exc.value.warnings == ()
    assert str(exc.value).startswith("all 2 candidates rejected")
    assert (p.call_counter - mark[0], p.eval_counter - mark[1]) == (0, 0)


def test_refine_all_rejected_keeps_the_rounding_warning():
    # A plane at logl 1.4: every second difference is rounding alone, so the
    # peak is measured again twice, still reads within the rounding bound
    # and is rejected as a saddle. The error says why.
    def fn(x):
        return 1.4 + x[:, 0] + 0.5 * x[:, 1]

    p = Problem(fn, box(2))
    cp = held(p, [0.0, 0.0])
    mark = (p.call_counter, p.eval_counter)
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [cp])
    assert (p.call_counter - mark[0], p.eval_counter - mark[1]) == (2, 8)
    assert exc.value.reasons == {"hessian_nonfinite": 0, "saddle": 1}
    line = "diagonal Hessian within rounding noise on 1 of 1 peaks"
    assert exc.value.warnings == (line,)
    assert str(exc.value).endswith(line)


def test_refine_merges_duplicate_coarse_peaks():
    # Two held peaks within one width of each other are one mode: the
    # better one survives, unmoved.
    p = gaussian(2)
    cps = [held(p, [0.2, 0.0]), held(p, [-0.15, 0.1])]
    peaks, _ = refine_peaks(p, cps)
    assert len(peaks) == 1
    assert peaks[0].position.tobytes() == cps[1].position.tobytes()


def test_refine_makes_no_likelihood_call():
    # Every held peak already carries its diagonal Hessian, so the stage
    # evaluates nothing: zero evaluations and zero calls.
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -((x[:, 0] ** 2 - 1.0) ** 2) - x[:, 1] ** 2

    p = Problem(fn, box(2, -3, 3))
    cps = [held(p, [0.9, 0.0], 0.01), held(p, [-0.9, 0.0], 0.01)]
    batches.clear()
    mark = (p.call_counter, p.eval_counter)
    peaks, _ = refine_peaks(p, cps)
    assert len(peaks) == 2
    assert batches == []
    assert (p.call_counter, p.eval_counter) == mark
    assert all(pk.hess_diag.shape == pk.steps.shape == (2,) for pk in peaks)


def test_refine_empty_input_raises():
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(gaussian(2), [])
    assert exc.value.n_candidates == 0
    assert str(exc.value).startswith("all 0 candidates rejected")


def test_refine_remeasures_a_diagonal_within_rounding_noise():
    # A unit-width peak at -1e4 held at the steps of the narrow peak's 1e-3
    # length scale: each value's rounding, eps_mach * 1e4, swamps its
    # second difference.
    # Refine measures that peak again at its own width, in one call of 2d
    # rows, and leaves the well-measured peak as it was.
    def fn(x):
        wide = -0.5 * np.sum((x + 2.0) ** 2, axis=1)
        narrow = -0.5 * np.sum(((x - 2.0) / 1e-3) ** 2, axis=1)
        return -1e4 + np.logaddexp(wide, narrow)

    p = Problem(fn, box(2, -6.0, 6.0))
    cps = [held(p, [-2.0, -2.0], 1e-3), held(p, [2.0, 2.0], 1e-3)]
    bound = rounding_bound(np.array([cp.logl for cp in cps]),
                           np.array([cp.steps for cp in cps]))
    assert (bound[0] > NOISE_REL * np.abs(cps[0].hess_diag)).all()
    assert (bound[1] < NOISE_REL * np.abs(cps[1].hess_diag)).all()
    batches = []
    p._fn = lambda x, f=p._fn: batches.append(x.shape[0]) or f(x)
    peaks, warnings = refine_peaks(p, cps)
    assert batches == [4] and warnings == []
    wide, narrow = sorted(peaks, key=lambda pk: pk.position[0])
    np.testing.assert_allclose(wide.hess_diag, [-1.0, -1.0], rtol=1e-4)
    assert (wide.steps > 100.0 * cps[0].steps).all()
    assert wide.position.tobytes() == cps[0].position.tobytes()
    assert wide.logl == cps[0].logl
    assert narrow is cps[1]
    assert narrow.hess_diag.tobytes() == cps[1].hess_diag.tobytes()
    assert narrow.steps.tobytes() == cps[1].steps.tobytes()


def test_refine_warns_when_rounding_swamps_the_peaks_own_width():
    # At -1e9 the rounding of each value, eps_mach * 1e9, is most of a
    # unit-width curvature even at the peak's own step: no longer step is
    # taken, no call is made, and the warning counts the peak.
    def fn(x):
        return -1e9 - 0.5 * np.sum(x * x, axis=1)

    p = Problem(fn, box(2))
    cp = held(p, [0.0, 0.0], 1.0)
    mark = (p.call_counter, p.eval_counter)
    peaks, warnings = refine_peaks(p, [cp])
    assert (p.call_counter, p.eval_counter) == mark
    assert warnings == ["diagonal Hessian within rounding noise on 1 of 1 peaks"]
    assert peaks[0].hess_diag.tobytes() == cp.hess_diag.tobytes()


def test_remeasure_leaves_nonfinite_and_exact_zero_rows_alone():
    # A non-finite diagonal is the filter's to reject, and a zero diagonal
    # at a zero value has a zero rounding bound: neither costs a call.
    p = gaussian(2)
    theta = np.zeros((2, 2))
    hess = np.array([[np.nan, -1e-30], [0.0, -1.0]])
    steps = np.full((2, 2), 1e-9)
    mark = p.call_counter
    h, st, noisy = remeasure_noisy(p, theta, np.array([-1e4, 0.0]), hess, steps)
    assert p.call_counter == mark and not noisy.any()
    assert np.array_equal(h, hess, equal_nan=True) and np.array_equal(st, steps)
