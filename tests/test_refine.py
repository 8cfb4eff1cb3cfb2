import numpy as np
import pytest

from laplev.discovery import CoarsePeak
from laplev.errors import NoValidMaximaError
from laplev.problem import BoundsBox, Problem
from laplev.refine import (
    diag_hessian,
    peak_widths,
    refine_iterations,
    refine_peaks,
    seed_peak,
)


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def coarse(pos, logl=0.0, width=1.0):
    pos = np.asarray(pos, dtype=np.float64)
    return CoarsePeak(pos, float(logl), float(width), 1e-8, 1)


def gaussian(d, mu=0.0, sig2=1.0, lo=-5.0, hi=5.0):
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (d,))
    sig2 = np.broadcast_to(np.asarray(sig2, dtype=np.float64), (d,))

    def fn(x):
        return -0.5 * np.sum((x - mu) ** 2 / sig2, axis=1)

    return Problem(fn, box(d, lo, hi))


def test_iteration_budget_rule():
    assert refine_iterations(2) == 10
    assert refine_iterations(8) == 10
    assert refine_iterations(16) == 12
    assert refine_iterations(64) == 18
    assert refine_iterations(128) == 21


def test_axis_seed_layout():
    rng = np.random.default_rng(0)
    s = seed_peak(np.array([1.0, -1.0, 0.0]), 0.5, 3, rng, box(3), 1e-3)
    assert s.shape == (6, 3)
    np.testing.assert_allclose(s[0], [1.45, -1.0, 0.0])
    np.testing.assert_allclose(s[4], [1.0, -1.45, 0.0])  # row d+1 = minus axis 1


def test_ball_seed_layout_clipped():
    rng = np.random.default_rng(1)
    s = seed_peak(np.array([4.9, 0.0]), 1.0, 2, rng, box(2), 1e-3, fast=True)
    assert s.shape == (20, 2)
    assert box(2).contains(s).all()
    assert np.max(np.abs(s[:, 1])) <= 0.9


def test_seed_width_floor():
    rng = np.random.default_rng(2)
    s = seed_peak(np.zeros(2), 0.0, 2, rng, box(2), 0.01)
    np.testing.assert_allclose(np.abs(s).max(axis=1), 0.009)


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


def test_refine_gaussian_to_machine_tightness():
    mu = np.array([0.5, -1.25])
    sig2 = np.array([1.0, 0.25])
    p = gaussian(2, mu, sig2)
    peaks, warns = refine_peaks(
        p, [coarse(mu + 0.3, logl=float(p.logl(mu[None] + 0.3)[0]))],
        lam_fine=0.05, rng=np.random.default_rng(0),
    )
    assert warns == []
    assert len(peaks) == 1
    pk = peaks[0]
    np.testing.assert_allclose(pk.position, mu, atol=1e-8)
    np.testing.assert_allclose(pk.hess_diag, -1.0 / sig2, rtol=1e-6)
    np.testing.assert_allclose(pk.widths, np.sqrt(sig2), rtol=1e-6)
    assert pk.grad_inf < 1e-9


def test_refine_cigar_hessian_span():
    sig2 = np.array([1.0, 1e-6])
    p = gaussian(2, 0.0, sig2)
    peaks, _ = refine_peaks(
        p, [coarse(np.array([1e-4, 1e-5]), logl=-0.05, width=1e-3)],
        lam_fine=1e-3, rng=np.random.default_rng(0),
    )
    pk = peaks[0]
    np.testing.assert_allclose(pk.hess_diag, [-1.0, -1e6], rtol=1e-4)
    np.testing.assert_allclose(pk.position, [0.0, 0.0], atol=1e-9)


def test_refine_rejects_saddle_keeps_maxima():
    # Double well: maxima at (+-1, 0), saddle at the origin. The coarse peak
    # centred on the symmetry line produces two seeds with x0 = 0 exactly;
    # the x0-gradient vanishes there by symmetry, so they slide down to the
    # origin and must be removed by the sign-of-curvature filter, while the
    # coarse peaks near each basin refine to the true maxima.
    def fn(x):
        return -((x[:, 0] ** 2 - 1.0) ** 2) - x[:, 1] ** 2

    p = Problem(fn, box(2, -3, 3))

    def cp(x0, x1, width):
        pos = np.array([x0, x1])
        return coarse(pos, logl=float(fn(pos[None, :])[0]), width=width)

    peaks, _ = refine_peaks(
        p, [cp(0.9, 0.0, 0.1), cp(-0.9, 0.0, 0.1), cp(0.0, 0.4, 0.1)],
        lam_fine=0.01, rng=np.random.default_rng(0),
    )
    xs = sorted(pk.position[0] for pk in peaks)
    assert len(peaks) == 2
    assert xs[0] == pytest.approx(-1.0, abs=1e-8)
    assert xs[1] == pytest.approx(1.0, abs=1e-8)
    # the saddle itself never survives
    assert all(abs(pk.position[0]) > 0.5 for pk in peaks)


def test_refine_all_fail_raises_with_reasons():
    p = Problem(lambda x: x[:, 0] + 0.5 * x[:, 1], box(2))
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [coarse(np.zeros(2))], lam_fine=0.1,
                     rng=np.random.default_rng(0))
    reasons = exc.value.reasons
    assert reasons.get("gradient", 0) > 0
    # one +-axis pair per coordinate: four polished candidates
    assert exc.value.n_candidates == 4
    assert "all 4 candidates rejected" in str(exc.value)
    # the fast scatter polishes 20 candidates, still through four filters
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(p, [coarse(np.zeros(2))], lam_fine=0.1,
                     rng=np.random.default_rng(0), fast=True)
    assert exc.value.n_candidates == 20
    assert str(exc.value).startswith("all 20 candidates rejected")


def test_refine_merges_duplicate_coarse_peaks():
    p = gaussian(2)
    cps = [coarse(np.array([0.2, 0.0]), logl=-0.02),
           coarse(np.array([-0.15, 0.1]), logl=-0.02)]
    peaks, _ = refine_peaks(p, cps, lam_fine=0.05, rng=np.random.default_rng(3))
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0].position, [0.0, 0.0], atol=1e-8)


def test_refine_fast_mode_matches_default_answer():
    mu = np.array([1.0, 2.0, -0.5])
    p1, p2 = gaussian(3, mu), gaussian(3, mu)
    kw = dict(lam_fine=0.05)
    a, _ = refine_peaks(p1, [coarse(mu + 0.2, logl=-0.06)],
                        rng=np.random.default_rng(0), **kw)
    b, _ = refine_peaks(p2, [coarse(mu + 0.2, logl=-0.06)],
                        rng=np.random.default_rng(0), fast=True, **kw)
    np.testing.assert_allclose(a[0].position, b[0].position, atol=1e-8)
    np.testing.assert_allclose(a[0].hess_diag, b[0].hess_diag, rtol=1e-5)


def test_refine_postsearch_cost_is_one_hessian_batch():
    # The curvature stage must issue ONE fused batch covering every candidate
    # (2*d rows per candidate), not one batch per peak. It is also the last
    # batch of the whole call: the gradient and width stages are eval-free.
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -((x[:, 0] ** 2 - 1.0) ** 2) - x[:, 1] ** 2

    p = Problem(fn, box(2, -3, 3))

    def cp(x0):
        pos = np.array([x0, 0.0])
        return coarse(pos, logl=float(fn(pos[None, :])[0]), width=0.1)

    batches.clear()
    peaks, _ = refine_peaks(
        p, [cp(0.9), cp(-0.9)], lam_fine=0.01, rng=np.random.default_rng(0)
    )
    assert len(peaks) == 2
    # the two cp() probes called fn directly and bypassed the counter
    assert sum(batches) - 2 == p.eval_counter
    # two surviving candidates x 2 probes x d=2 coordinates, in one batch
    assert batches[-1] == 2 * 2 * 2
    assert all(pk.hess_diag.shape == (2,) for pk in peaks)


def test_refine_empty_input_raises():
    with pytest.raises(NoValidMaximaError) as exc:
        refine_peaks(gaussian(2), [], lam_fine=0.1, rng=np.random.default_rng(0))
    assert exc.value.n_candidates == 0
    assert str(exc.value).startswith("all 0 candidates rejected")
