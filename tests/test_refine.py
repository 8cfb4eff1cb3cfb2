import numpy as np
import pytest

from laplev.discovery import CoarsePeak
from laplev.errors import NoValidMaximaError
from laplev.problem import BoundsBox, Problem
from laplev.refine import diag_hessian, peak_widths, refine_peaks


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def coarse(pos, logl=0.0, width=1.0, grad=None):
    """A held peak as the search hands it over."""
    pos = np.asarray(pos, dtype=np.float64)
    grad = np.zeros_like(pos) if grad is None else np.asarray(grad, dtype=np.float64)
    return CoarsePeak(pos, float(logl), float(width), grad, 1)


def held(p, pos, width=1.0, grad=None):
    """A held peak at ``pos``, its value read off ``p``."""
    pos = np.asarray(pos, dtype=np.float64)
    return coarse(pos, logl=float(p.logl(pos[None, :])[0]), width=width, grad=grad)


def gaussian(d, mu=0.0, sig2=1.0, lo=-5.0, hi=5.0):
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (d,))
    sig2 = np.broadcast_to(np.asarray(sig2, dtype=np.float64), (d,))

    def fn(x):
        return -0.5 * np.sum((x - mu) ** 2 / sig2, axis=1)

    return Problem(fn, box(d, lo, hi))


def test_diag_hessian_exact_on_quadratic():
    h_true = np.array([-1.0, -4.0, -0.25])

    def fn(x):
        return 0.5 * np.sum(h_true * x * x, axis=1) + 3.0

    p = Problem(fn, box(3))
    centers = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    v0 = p.logl(centers)
    h, bad = diag_hessian(p, centers, v0, np.array([1.0, 1.0]))
    assert not bad.any()
    np.testing.assert_allclose(h, np.vstack([h_true, h_true]), rtol=1e-6)
    # cost: one fused batch of 2*N*d rows
    assert p.eval_counter == 2 + 2 * 2 * 3


def test_diag_hessian_flags_nonfinite():
    def fn(x):
        out = -np.sum(x * x, axis=1)
        out[x[:, 0] > 0.5] = np.nan
        return out

    p = Problem(fn, box(2))
    h, bad = diag_hessian(p, np.array([[0.5, 0.0], [0.0, 0.0]]),
                          np.array([-0.25, 0.0]), np.array([1.0, 1.0]))
    assert bad[0] and not bad[1]


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
    peaks, warnings = refine_peaks(p, [held(p, [0.0, 0.0]), held(p, [0.0, 3.0])], 0.0)
    assert len(peaks) == 2 and all(pk.width_floored for pk in peaks)
    assert warnings == ["peak width hit the resolution floor on 2 of 2 peaks"]


def test_refine_gaussian_to_machine_tightness():
    # A held peak is taken as it stands: its position, value and gradient
    # pass through bit for bit, and the diagonal Hessian measured there is
    # exact on a quadratic.
    mu = np.array([0.5, -1.25])
    sig2 = np.array([1.0, 0.25])
    p = gaussian(2, mu, sig2)
    pos = mu + np.array([3e-8, -2e-9])
    grad = -(pos - mu) / sig2
    cp = held(p, pos, width=0.7, grad=grad)
    peaks, warns = refine_peaks(p, [cp], 0.05)
    assert warns == []
    assert len(peaks) == 1
    pk = peaks[0]
    assert pk.position.tobytes() == pos.tobytes()
    assert pk.logl == cp.logl
    assert pk.grad_inf == cp.grad_inf == np.max(np.abs(grad))
    assert pk.origin == 0
    np.testing.assert_allclose(pk.hess_diag, -1.0 / sig2, rtol=1e-6)
    np.testing.assert_allclose(pk.widths, np.sqrt(sig2), rtol=1e-6)


def test_refine_cigar_hessian_span():
    # 1e6:1 conditioning: the stencil steps follow the held width, so both
    # curvatures come out exact at the held position.
    sig2 = np.array([1.0, 1e-6])
    p = gaussian(2, 0.0, sig2)
    pos = np.array([4e-7, 3e-13])
    peaks, _ = refine_peaks(p, [held(p, pos, width=1e-3)], 1e-3)
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
    cps = [held(p, [1.0, 0.0], 0.1), held(p, [0.0, 0.0], 0.1),
           held(p, [-1.0, 0.0], 0.1)]
    peaks, _ = refine_peaks(p, cps, 0.01)
    assert sorted(pk.position[0] for pk in peaks) == [-1.0, 1.0]
    assert sorted(pk.origin for pk in peaks) == [0, 2]
    for pk in peaks:
        np.testing.assert_allclose(pk.hess_diag, [-8.0, -2.0], rtol=1e-6)
    # the saddle alone is rejected, and the error names the filter
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [cps[1]], 0.01)
    assert exc.value.reasons == {"hessian_nonfinite": 0, "saddle": 1}


def test_refine_all_fail_raises_with_reasons():
    # A plane is flat along every axis (a saddle for the filter), and past
    # x0 = 1 the likelihood is NaN, so a peak on that edge has a non-finite
    # stencil. Both are rejected, each under its own reason, after the one
    # curvature batch of 2d rows per peak.
    def fn(x):
        out = x[:, 0] + 0.5 * x[:, 1]
        out[x[:, 0] > 1.0] = np.nan
        return out

    p = Problem(fn, box(2))
    cps = [held(p, [0.0, 0.0]), held(p, [1.0, 0.0])]
    mark = (p.call_counter, p.eval_counter)
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, cps, 0.1)
    assert exc.value.reasons == {"hessian_nonfinite": 1, "saddle": 1}
    assert exc.value.n_candidates == 2
    assert str(exc.value).startswith("all 2 candidates rejected")
    assert (p.call_counter - mark[0], p.eval_counter - mark[1]) == (1, 2 * 2 * 2)


def test_refine_merges_duplicate_coarse_peaks():
    # Two held peaks within one width of each other are one mode: the
    # better one survives, unmoved.
    p = gaussian(2)
    cps = [held(p, [0.2, 0.0]), held(p, [-0.15, 0.1])]
    peaks, _ = refine_peaks(p, cps, 0.05)
    assert len(peaks) == 1
    assert peaks[0].origin == 1
    assert peaks[0].position.tobytes() == cps[1].position.tobytes()


def test_refine_postsearch_cost_is_one_hessian_batch():
    # The curvature stage issues ONE fused batch covering every held peak
    # (2*d rows per peak), not one batch per peak, and nothing else.
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -((x[:, 0] ** 2 - 1.0) ** 2) - x[:, 1] ** 2

    p = Problem(fn, box(2, -3, 3))
    cps = [held(p, [0.9, 0.0], 0.1), held(p, [-0.9, 0.0], 0.1)]
    batches.clear()
    mark = p.eval_counter
    peaks, _ = refine_peaks(p, cps, 0.01)
    assert len(peaks) == 2
    # two held peaks x 2 probes x d=2 coordinates, in one batch
    assert batches == [2 * 2 * 2]
    assert p.eval_counter - mark == 2 * 2 * 2
    assert all(pk.hess_diag.shape == (2,) for pk in peaks)


def test_refine_empty_input_raises():
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(gaussian(2), [], 0.1)
    assert exc.value.n_candidates == 0
    assert str(exc.value).startswith("all 0 candidates rejected")
