import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laplev.discovery
from laplev.discovery import (
    ACTIVE_DROP,
    N_COARSE,
    RAY_SUN,
    RAY_V2E,
    RAY_V2V,
    RAY_W2W,
    CoarsePeak,
    Ray,
    RayBank,
    RaySamples,
    ScaleEstimate,
    _candidates,
    _kappa_rays,
    _points_along,
    _profiles,
    _reseed_from_unconverged,
    _reseed_orthonormal,
    _sample_rays,
    _smoothed_ascent,
    discover_modes,
    estimate_scales,
    generate_rays,
    rays_per_kind,
    select_seeds,
    smoothed_gradient,
    survey,
)
from laplev.errors import NoModesFoundError
from laplev.lbfgs import fd_gradient
from laplev.linalg import dedup_linf
from laplev.problem import BoundsBox, Problem


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def gaussian_problem(d, mu=0.0, sig2=1.0, lo=-5.0, hi=5.0):
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (d,))
    sig2 = np.broadcast_to(np.asarray(sig2, dtype=np.float64), (d,))

    def fn(x):
        return -0.5 * np.sum((x - mu) ** 2 / sig2, axis=1)

    return Problem(fn, box(d, lo, hi))


# ---------------------------------------------------------------- rays


def test_ray_counts_match_dimension_rule():
    assert rays_per_kind(2) == 11
    rays = generate_rays(box(2), np.random.default_rng(0))
    assert len(rays) == 44
    by_kind = {k: sum(r.kind == k for r in rays) for k in range(4)}
    assert by_kind == {RAY_V2V: 11, RAY_V2E: 11, RAY_W2W: 11, RAY_SUN: 11}


def test_one_dimension_redistributes_edge_quota_to_sunburst():
    rays = generate_rays(box(1), np.random.default_rng(0))
    n = rays_per_kind(1)
    by_kind = {k: sum(r.kind == k for r in rays) for k in range(4)}
    assert by_kind == {RAY_V2V: n, RAY_V2E: 0, RAY_W2W: n, RAY_SUN: 2 * n}
    assert len(rays) == 4 * n


def test_large_dimension_count_is_cheap_and_right():
    rays = generate_rays(box(1024), np.random.default_rng(1))
    assert rays_per_kind(1024) == 20
    assert len(rays) == 80


def test_ray_endpoint_structure():
    b = BoundsBox(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 4.0, 9.0]))
    rays = generate_rays(b, np.random.default_rng(7))
    for r in rays:
        assert b.contains(r.start[None, :])[0] and b.contains(r.end[None, :])[0]
        if r.kind == RAY_V2V:
            for p in (r.start, r.end):
                assert np.all((p == b.lower) | (p == b.upper))
            assert not np.array_equal(r.start, r.end)
        elif r.kind == RAY_V2E:
            assert np.all((r.start == b.lower) | (r.start == b.upper))
            centered = r.end == b.center
            assert centered.sum() == 1
            others = ~centered
            assert np.all((r.end[others] == b.lower[others]) | (r.end[others] == b.upper[others]))
        elif r.kind == RAY_W2W:
            diff = np.flatnonzero(r.start != r.end)
            assert diff.size == 1
            k = diff[0]
            assert r.start[k] == b.lower[k] and r.end[k] == b.upper[k]
        else:
            np.testing.assert_array_equal(r.start, b.center)
            on_wall = (np.abs(r.end - b.lower) < 1e-9) | (np.abs(r.end - b.upper) < 1e-9)
            assert on_wall.any()


# ---------------------------------------------------------------- two-pass


def one_ray(problem, ray, rng):
    """Survey a single ray: one likelihood call per pass."""
    return _sample_rays(problem, [ray], rng, N_COARSE, ACTIVE_DROP)[0]


def test_two_pass_refines_inside_active_region():
    # Sharp bump at the box midpoint: the refined pass must concentrate there.
    p = gaussian_problem(2, mu=0.0, sig2=1e-4)
    from laplev.discovery import Ray

    ray = Ray(RAY_W2W, np.array([-5.0, 0.0]), np.array([5.0, 0.0]))
    rs = one_ray(p, ray, np.random.default_rng(3))
    assert not rs.dead
    assert rs.t.shape == (128,) and p.eval_counter == 128
    refined_t = rs.t[rs.tags == 1]
    # active region: |x| < sqrt(2 * 20 * 1e-4) = 0.0632 -> t within 0.5 +- 0.0063,
    # padded by one coarse cell half-width (the profile is piecewise constant).
    cell = 1.0 / 63.0
    inside = np.abs(refined_t - 0.5) <= 0.0064 + cell
    assert inside.mean() >= 0.8


def test_two_pass_dead_ray_skips_refinement():
    p = Problem(lambda x: np.full(x.shape[0], -np.inf), box(2))
    from laplev.discovery import Ray

    ray = Ray(RAY_V2V, np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    rs = one_ray(p, ray, np.random.default_rng(0))
    assert rs.dead
    assert p.eval_counter == 64
    assert rs.t.shape == (64,)


def test_two_pass_uniform_likelihood_spreads_samples():
    p = Problem(lambda x: np.zeros(x.shape[0]), box(2))
    from laplev.discovery import Ray

    ray = Ray(RAY_V2V, np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    rs = one_ray(p, ray, np.random.default_rng(5))
    refined = rs.t[rs.tags == 1]
    assert refined.min() < 0.2 and refined.max() > 0.8


def test_survey_batches_and_counter():
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(11))
    assert len(bank.rays) == 44
    n_live = sum(not r.dead for r in bank.rays)
    assert p.eval_counter == n_live * 128 + (44 - n_live) * 64


class CountingProblem(Problem):
    """Problem that also counts batched likelihood calls and their rows."""

    def __init__(self, fn, bounds):
        super().__init__(fn, bounds)
        self.calls = 0
        self.rows = []

    def logl(self, points):
        self.calls += 1
        self.rows.append(len(points))
        return super().logl(points)


def _two_pass_reference(problem, ray, rng, n_coarse=64, active_drop=20.0):
    """One ray, two likelihood calls: the survey as it was written per ray."""

    def at(t):
        return ray.start + t[:, None] * (ray.end - ray.start)

    t0 = np.linspace(0.0, 1.0, n_coarse)
    v0 = problem.logl(at(t0))
    finite = np.isfinite(v0)
    if not finite.any():
        return RaySamples(ray, t0, v0, np.zeros(n_coarse, dtype=np.uint8), True)

    vmax = float(v0[finite].max())
    active = finite & (v0 > vmax - active_drop)
    edges = np.empty(n_coarse + 1)
    edges[0], edges[-1] = 0.0, 1.0
    edges[1:-1] = 0.5 * (t0[:-1] + t0[1:])
    cell_w = np.diff(edges)
    weights = np.where(active, np.exp(np.where(finite, v0, -np.inf) - vmax), 0.0) * cell_w
    cum = np.cumsum(weights)
    targets = rng.random(n_coarse) * cum[-1]
    cells = np.minimum(np.searchsorted(cum, targets, side="right"), n_coarse - 1)
    lo = cum[cells] - weights[cells]
    frac = np.where(weights[cells] > 0, (targets - lo) / weights[cells], 0.5)
    t1 = edges[cells] + frac * cell_w[cells]
    v1 = problem.logl(at(t1))

    t_all = np.concatenate([t0, t1])
    v_all = np.concatenate([v0, v1])
    tags = np.concatenate(
        [np.zeros(n_coarse, dtype=np.uint8), np.ones(n_coarse, dtype=np.uint8)]
    )
    order = np.argsort(t_all, kind="stable")
    return RaySamples(ray, t_all[order], v_all[order], tags[order], False)


def _bank_bytes(rays):
    return [(r.ray.kind, r.ray.start.tobytes(), r.ray.end.tobytes(), r.t.tobytes(),
             r.logl.tobytes(), r.tags.tobytes(), r.dead) for r in rays]


def _corner_only(x):
    # Finite only in a slab at the low end of the first axis: rays that
    # never enter it are dead.
    return np.where(x[:, 0] < -4.0, -0.5 * np.sum(x * x, axis=1), -np.inf)


@pytest.mark.parametrize("fn, d", [
    (lambda x: -0.5 * np.sum(x * x, axis=1), 1),
    (lambda x: -0.5 * np.sum(x * x, axis=1), 3),
    (_corner_only, 1),
    (_corner_only, 3),
])
def test_survey_two_calls_bitwise_equal_to_per_ray_loop(fn, d):
    p = CountingProblem(fn, box(d))
    bank = survey(p, np.random.default_rng(8))
    assert p.calls == 2
    n_dead = sum(r.dead for r in bank.rays)
    if fn is _corner_only:
        assert 0 < n_dead < len(bank.rays)
    expected_counter = p.eval_counter

    for single in (one_ray, _two_pass_reference):
        q = CountingProblem(fn, box(d))
        rng = np.random.default_rng(8)
        rays = [single(q, ray, rng) for ray in generate_rays(q.bounds, rng)]
        assert _bank_bytes(rays) == _bank_bytes(bank.rays)
        assert q.eval_counter == expected_counter
        assert q.calls == 2 * len(rays) - n_dead


def test_survey_all_rays_dead_makes_one_call():
    p = CountingProblem(lambda x: np.full(x.shape[0], -np.inf), box(3))
    rng = np.random.default_rng(0)
    bank = survey(p, rng)
    assert p.calls == 1
    assert all(r.dead for r in bank.rays)
    assert p.eval_counter == 64 * len(bank.rays)
    rng_loop = np.random.default_rng(0)
    q = Problem(lambda x: np.full(x.shape[0], -np.inf), box(3))
    rays = [one_ray(q, ray, rng_loop) for ray in generate_rays(q.bounds, rng_loop)]
    assert _bank_bytes(rays) == _bank_bytes(bank.rays)
    # dead rays draw nothing, so both generators are in the same state
    assert rng.random() == rng_loop.random()


# ---------------------------------------------------------------- ray bank


def test_raybank_summary():
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(4))
    assert "44 rays" in bank.summary()


# ---------------------------------------------------------------- scales


def test_scales_pure_quadratic_gives_equal_triple():
    sigma = 0.7
    p = gaussian_problem(3, sig2=sigma**2)
    bank = survey(p, np.random.default_rng(9))
    est = estimate_scales(bank, p.bounds)
    assert not est.fallback
    assert est.lam_fine == est.lam_mid == est.lam_coarse
    assert sigma / 2 < est.lam_fine < sigma * 2


def test_scales_two_scale_profile_finds_fine_scale():
    # Gaussian envelope (sigma = 10) carrying a short ripple: the finest
    # detected scale must sit in the ripple band, far below the envelope.
    omega = 2 * np.pi / 0.3

    def fn(x):
        return -np.sum(x * x, axis=1) / 200.0 + 0.5 * np.cos(omega * x[:, 0])

    p = Problem(fn, box(2, -10, 10))
    bank = survey(p, np.random.default_rng(13))
    est = estimate_scales(bank, p.bounds)
    assert not est.fallback
    assert 0.01 <= est.lam_fine <= 0.45
    assert est.lam_fine <= est.lam_mid <= est.lam_coarse


def test_scales_fallback_when_no_usable_rays():
    bank = RayBank()
    est = estimate_scales(bank, box(2, -5, 5))
    assert est.fallback
    np.testing.assert_allclose(est.as_tuple(), (1e-2, 1e-1, 1e0))


def test_scales_cigar_detects_stiff_axis():
    sig2 = np.array([1.0, 1e-6])
    p = gaussian_problem(2, sig2=sig2)
    bank = survey(p, np.random.default_rng(21))
    est = estimate_scales(bank, p.bounds)
    assert est.lam_fine < 0.05  # stiff sigma = 1e-3; must be well below 1


def _nearest_index_reference(s, targets):
    pos = np.searchsorted(s, targets)
    lo = np.clip(pos - 1, 0, s.size - 1)
    hi = np.clip(pos, 0, s.size - 1)
    pick_hi = np.abs(s[hi] - targets) < np.abs(s[lo] - targets)
    return np.where(pick_hi, hi, lo)


def _series_reference(bank):
    """Usable rays' (s, v) profiles, one ray at a time."""
    series = []
    for r in bank.rays:
        if r.dead:
            continue
        finite = np.isfinite(r.logl)
        if int(finite.sum()) < 8:
            continue
        s = r.t[finite] * float(np.linalg.norm(r.ray.end - r.ray.start))
        v = r.logl[finite]
        keep = np.concatenate([[True], np.diff(s) > 0])
        series.append((s[keep], v[keep]))
    return series


def _estimate_scales_reference(bank, bounds, n_h=24, match_tol=0.3,
                               slope_threshold=-0.5):
    """The per-(ray, h) loop ``estimate_scales`` must reproduce bit for bit."""
    series = _series_reference(bank)

    mean_width = float(np.mean(bounds.widths))
    if not series:
        return ScaleEstimate(1e-3 * mean_width, 1e-2 * mean_width, 1e-1 * mean_width,
                             True, np.zeros(0), np.zeros(0))

    spans = np.array([s[-1] - s[0] for s, _ in series])
    gaps = [np.min(np.diff(s)) for s, _ in series if s.size > 1]
    h_hi = float(spans.max()) / 2.0
    h_lo = max(float(min(gaps)), 1e-9 * h_hi)
    if h_lo >= h_hi:
        h_lo = h_hi / 1e3
    hs = np.geomspace(h_lo, h_hi, n_h)

    kappa = np.full(n_h, np.nan)
    drops = []
    for s, v in series:
        span = s[-1] - s[0]
        kappa_ray = np.full(n_h, np.nan)
        for k, h in enumerate(hs):
            if h > span / 2.0:
                continue
            ip = _nearest_index_reference(s, s + h)
            im = _nearest_index_reference(s, s - h)
            a = s[ip] - s
            b = s - s[im]
            ok = (
                (np.abs(a - h) <= match_tol * h)
                & (np.abs(b - h) <= match_tol * h)
                & (a > 0)
                & (b > 0)
            )
            if not ok.any():
                continue
            aa, bb = a[ok], b[ok]
            second = 2.0 * np.abs(
                bb * v[ip][ok] - (aa + bb) * v[ok] + aa * v[im][ok]
            ) / (aa * bb * (aa + bb))
            kappa_ray[k] = float(second.max())
        live = np.flatnonzero(np.isfinite(kappa_ray) & (kappa_ray > 0))
        if live.size >= 2:
            lh = np.log(hs[live])
            lk = np.log(kappa_ray[live])
            slopes = np.diff(lk) / np.diff(lh)
            for j in np.flatnonzero(slopes < slope_threshold):
                h_mid = float(np.sqrt(hs[live[j]] * hs[live[j + 1]]))
                drops.append((float(slopes[j]), h_mid))
        upd = np.isfinite(kappa_ray) & (np.isnan(kappa) | (kappa_ray > kappa))
        kappa[upd] = kappa_ray[upd]

    found = []
    if drops:
        drops.sort(key=lambda p: p[0])
        found = sorted(h for _, h in drops[:3])

    if not found:
        if not np.isfinite(kappa).any() or np.nanmax(kappa) <= 0:
            return ScaleEstimate(1e-3 * mean_width, 1e-2 * mean_width,
                                 1e-1 * mean_width, True, hs, kappa)
        lam = 1.0 / float(np.sqrt(np.nanmax(kappa)))
        found = [lam]
    while len(found) < 3:
        found.append(found[-1])
    return ScaleEstimate(found[0], found[1], found[2], False, hs, kappa)


def _nearest_index(s: np.ndarray, targets: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(s, targets)
    lo = np.maximum(pos - 1, 0)
    hi = np.minimum(pos, s.size - 1)
    pick_hi = np.abs(s[hi] - targets) < np.abs(s[lo] - targets)
    return np.where(pick_hi, hi, lo)


def _ray_kappa(s, v, hs, match_tol) -> np.ndarray:
    """Spikiest matched second difference along one ray, for every h in ``hs``.

    All h values that fit in half the ray's span are handled at once, on an
    (h, sample) grid. NaN where h does not fit or no sample has both
    neighbours within ``match_tol * h`` of distance h.
    """
    kappa = np.full(hs.size, np.nan)
    fit = hs <= (s[-1] - s[0]) / 2.0
    h = hs[fit, None]
    tol = match_tol * h
    ip = _nearest_index(s, s + h)
    im = _nearest_index(s, s - h)
    a = s[ip] - s  # actual forward offset
    b = s - s[im]  # actual backward offset
    ok = (np.abs(a - h) <= tol) & (np.abs(b - h) <= tol) & (a > 0) & (b > 0)
    # Three-point second derivative with unequal arms; this form cancels
    # the first-derivative term that a plain (v+ - 2v + v-)/h^2 leaks when
    # the matched neighbors sit asymmetrically, which would otherwise fake
    # a curvature rise at small h. Unmatched entries get unit arms so they
    # stay finite; the mask drops them.
    aa = np.where(ok, a, 1.0)
    bb = np.where(ok, b, 1.0)
    second = 2.0 * np.abs(
        bb * v[ip] - (aa + bb) * v + aa * v[im]
    ) / (aa * bb * (aa + bb))
    peak = np.where(ok, second, -np.inf).max(axis=1)
    kappa[fit] = np.where(ok.any(axis=1), peak, np.nan)
    return kappa


def _ray_matches(s, hs, match_tol) -> np.ndarray:
    """The (h, sample) cells ``_ray_kappa`` counts as matched."""
    matched = np.zeros((hs.size, s.size), dtype=bool)
    fit = hs <= (s[-1] - s[0]) / 2.0
    h = hs[fit, None]
    tol = match_tol * h
    ip = _nearest_index(s, s + h)
    im = _nearest_index(s, s - h)
    a = s[ip] - s
    b = s - s[im]
    matched[fit] = (np.abs(a - h) <= tol) & (np.abs(b - h) <= tol) & (a > 0) & (b > 0)
    return matched


def _ripple(x):
    return -np.sum(x * x, axis=1) / 200.0 + 0.5 * np.cos(2 * np.pi / 0.3 * x[:, 0])


def _samples(ray, t, v, dead=False):
    return RaySamples(ray, np.asarray(t, dtype=np.float64), np.asarray(v, dtype=np.float64),
                      np.zeros(len(t), dtype=np.uint8), dead)


UNIT = Ray(RAY_W2W, np.array([0.0]), np.array([1.0]))  # length 1: s equals t


def _ragged_bank():
    """Rays of very different lengths, with -inf / NaN samples and repeated t."""
    rng = np.random.default_rng(31)
    bank = RayBank()
    for length, n in ((10.0, 128), (0.05, 40), (3.0, 9), (7.0, 128), (1e-4, 12)):
        ray = Ray(RAY_W2W, np.array([-length / 2, 0.0]), np.array([length / 2, 0.0]))
        t = np.sort(np.concatenate([rng.random(n - 4), [0.0, 1.0, 0.5, 0.5]]))
        x = (t - 0.5) * length
        v = -0.5 * x * x / 0.3**2
        v[rng.random(n) < 0.1] = -np.inf
        v[rng.random(n) < 0.05] = np.nan
        bank.rays.append(RaySamples(ray, t, v, np.zeros(n, dtype=np.uint8), False))
    dead = Ray(RAY_V2V, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    bank.rays.append(RaySamples(dead, np.linspace(0, 1, 8), np.full(8, -np.inf),
                                np.zeros(8, dtype=np.uint8), True))
    return bank


def _single_ray_bank():
    """One usable ray beside a dead one and one with only 7 finite values."""
    t = np.sort(np.random.default_rng(5).random(50))
    v = np.sin(9.0 * t) - 4.0 * t * t
    seven = np.full(20, -np.inf)
    seven[:7] = 0.0
    return RayBank([_samples(UNIT, np.linspace(0, 1, 20), np.full(20, -np.inf), dead=True),
                    _samples(UNIT, t, v),
                    _samples(UNIT, np.linspace(0, 1, 20), seven)])


def _short_rays_bank():
    """One long ray and many short ones that fit only the smallest h."""
    rng = np.random.default_rng(8)
    bank = RayBank()
    for length in (20.0, 0.02, 0.05, 0.003, 0.4, 0.01):
        ray = Ray(RAY_SUN, np.zeros(2), np.array([length, 0.0]))
        t = np.sort(rng.random(64))
        bank.rays.append(_samples(ray, t, -0.5 * (t * length - 0.2) ** 2 / 0.01))
    return bank


def _scales_banks():
    yield gaussian_problem(3, sig2=0.7**2).bounds, survey(
        gaussian_problem(3, sig2=0.7**2), np.random.default_rng(9))
    cigar = gaussian_problem(2, sig2=np.array([1.0, 1e-6]))
    yield cigar.bounds, survey(cigar, np.random.default_rng(21))
    ripple = Problem(_ripple, box(2, -10, 10))
    yield ripple.bounds, survey(ripple, np.random.default_rng(13))
    yield box(2), _ragged_bank()
    half = Problem(_corner_only, box(3))
    yield half.bounds, survey(half, np.random.default_rng(4))
    yield box(1, 0, 1), _single_ray_bank()
    yield box(2, -20, 20), _short_rays_bank()


MATCH_TOLS = (0.05, 0.3, 0.99, 1.5)


@pytest.mark.parametrize("case", range(7))
def test_estimate_scales_bitwise_equal_to_per_h_loop(case):
    bounds, bank = list(_scales_banks())[case]
    for match_tol in MATCH_TOLS:
        got = estimate_scales(bank, bounds, match_tol=match_tol)
        ref = _estimate_scales_reference(bank, bounds, match_tol=match_tol)
        assert np.array(got.as_tuple()).tobytes() == np.array(ref.as_tuple()).tobytes()
        assert got.fallback == ref.fallback
        assert got.h.tobytes() == ref.h.tobytes()
        assert got.kappa.tobytes() == ref.kappa.tobytes()


@pytest.mark.parametrize("match_tol", MATCH_TOLS)
@pytest.mark.parametrize("case", range(7))
def test_kappa_rays_bitwise_equal_to_ray_kappa(case, match_tol):
    bounds, bank = list(_scales_banks())[case]
    series = _series_reference(bank)
    s_pad, v_pad, n = _profiles(bank)
    assert n.tolist() == [s.size for s, _ in series]
    for row, m, (s, v) in zip(zip(s_pad, v_pad), n, series):
        assert row[0][1:m + 1].tobytes() == s.tobytes()
        assert row[1][1:m + 1].tobytes() == v.tobytes()
    hs = estimate_scales(bank, bounds, match_tol=match_tol).h
    want = np.array([_ray_kappa(s, v, hs, match_tol) for s, v in series])
    assert _kappa_rays(s_pad, v_pad, n, hs, match_tol).tobytes() == want.tobytes()


def _boundary_bank(h, match_tol):
    """Triplets whose right arm walks across the match bound ulp by ulp.

    Each centre c has a left neighbour at c - h and a right one a few ulps
    of c either side of c + (1 +- match_tol) h. From match_tol = 1 on, an
    arm that long loses the nearest-sample pick to c itself, so the walk
    crosses c + 2 h instead, where that pick flips. Triplets sit far apart.
    """
    t = []
    c = 0.25
    arms = [(1.0 + match_tol) * h, (1.0 - match_tol) * h] if match_tol < 1 else [2.0 * h]
    for arm in arms:
        for k in range(-4, 5):
            right = c + arm
            for _ in range(abs(k)):
                right = np.nextafter(right, np.inf if k > 0 else -np.inf)
            t += [c - h, c, right]
            c += 8.0 * (1.0 + match_tol) * h
    t = np.array(t)
    return RayBank([_samples(UNIT, t, np.cos(40.0 * t) + t)])


@pytest.mark.parametrize("match_tol", MATCH_TOLS)
def test_kappa_rays_at_the_match_bound(match_tol):
    h = 0.003
    bank = _boundary_bank(h, match_tol)
    (s, v), = _series_reference(bank)
    hs = np.array([h / 2, h, 1.7 * h])
    matched = _ray_matches(s, hs, match_tol)[1, 1::3]  # the centres at h
    assert matched.any() and not matched.all()
    s_pad, v_pad, n = _profiles(bank)
    assert _candidates(s_pad, n, hs, match_tol)[0, 1, 2::3][matched].all()
    want = _ray_kappa(s, v, hs, match_tol)[None]
    assert _kappa_rays(s_pad, v_pad, n, hs, match_tol).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(1e-3, 0.2), min_size=1, max_size=4),
    st.one_of(st.sampled_from((0.0, 0.05, 0.3, 0.99, 1.0, 1.5)), st.floats(0.0, 2.0)),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((-1.0, 0.0, 1.0)),
                       st.integers(-3, 3), st.floats(1e-6, 0.3)),
             min_size=8, max_size=60),
)
def test_candidate_filter_keeps_every_reference_match(hs, match_tol, steps):
    # Gaps land near (1 +- match_tol) h for one of the h, give or take a
    # few ulps, or anywhere in [1e-6, 0.3].
    hs = np.array(hs)
    t = [0.0]
    for j, sign, ulps, free in steps:
        gap = (1.0 + sign * match_tol) * hs[j % hs.size] if sign else free
        nxt = t[-1] + abs(gap)
        for _ in range(abs(ulps)):
            nxt = np.nextafter(nxt, np.inf if ulps > 0 else -np.inf)
        t.append(max(nxt, t[-1]))
    bank = RayBank([_samples(UNIT, t, np.zeros(len(t)))])
    s_pad, _, n = _profiles(bank)
    (s, _), = _series_reference(bank)
    matched = _ray_matches(s, hs, match_tol)
    cand = _candidates(s_pad, n, hs, match_tol)[0, :, 1:n[0] + 1]
    assert not (matched & ~cand).any()


# ---------------------------------------------------------------- seeds


def test_select_seeds_quota_and_thinning():
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(17))
    seeds = select_seeds(bank, lam_fine=0.5, dim=2)
    assert seeds.shape[0] <= max(32, 4 * rays_per_kind(2))
    assert seeds.shape[0] > 0
    # thinning: no two seeds within the radius of each other
    for i in range(seeds.shape[0]):
        for j in range(i + 1, seeds.shape[0]):
            assert np.max(np.abs(seeds[i] - seeds[j])) > 0.5


def _select_seeds_reference(bank, lam_fine, dim):
    """Seed selection with the per-ray champion walk."""
    q = max(32, 4 * rays_per_kind(dim))
    live = [r for r in bank.rays if not r.dead]
    if not live:
        return np.zeros((0, dim))
    pos = np.vstack([_points_along(r.ray.start, r.ray.end, r.t) for r in live])
    val = np.concatenate([r.logl for r in live])
    finite = np.isfinite(val)
    pos, val = pos[finite], val[finite]
    if pos.shape[0] == 0:
        return np.zeros((0, dim))
    order = np.lexsort((np.arange(val.size), -val))
    pick = np.zeros(val.size, dtype=bool)
    pick[order[:q]] = True
    offset = 0
    for r in bank.rays:
        if r.dead:
            continue
        fin = np.flatnonzero(np.isfinite(np.asarray(r.logl)))
        if fin.size:
            pick[offset + int(np.argmax(np.asarray(r.logl)[fin]))] = True
        offset += fin.size
    idx = np.flatnonzero(pick)
    kept = dedup_linf(pos[idx], val[idx], lam_fine)
    kept = idx[np.asarray(kept)]
    order = np.lexsort((kept, -val[kept]))
    return pos[kept[order]]


@pytest.mark.parametrize("case", range(5))
def test_select_seeds_champions_match_per_ray_walk(case):
    bounds, bank = list(_scales_banks())[case]
    for lam in (1e-3, 0.2):
        got = select_seeds(bank, lam, bounds.dim)
        assert got.tobytes() == _select_seeds_reference(bank, lam, bounds.dim).tobytes()


def test_smoothed_gradient_degenerates_to_fd():
    p = gaussian_problem(3)
    th = np.array([[0.5, -1.0, 2.0], [0.0, 0.3, -0.4]])
    g_smooth = smoothed_gradient(
        p, th, sigma=np.zeros(3), k=1, rng=np.random.default_rng(0), widths=0.01
    )
    g_plain, _ = fd_gradient(p, th, widths=0.01)
    assert g_smooth.tobytes() == g_plain.tobytes()


def _smoothed_ascent_reference(problem, theta, lam_fine, n_cloud, k_smooth, rng):
    """The smoothed ascent with a cloud of ``k_smooth`` points at every d."""
    th = np.array(theta, dtype=np.float64)
    if th.shape[0] == 0:
        return th
    sigma = th.std(axis=0)
    for _ in range(int(n_cloud)):
        g = smoothed_gradient(problem, th, sigma, k_smooth, rng, widths=lam_fine)
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
        step = np.where(nrm > 0, g / np.where(nrm > 0, nrm, 1.0), 0.0)
        th = problem.bounds.clip(th + lam_fine * step)
    return th


def _walled_ripple(x):
    # Some cloud probes land past the wall at x0 = 4 and read -inf.
    return np.where(x[:, 0] > 4.0, -np.inf, _ripple(x))


def _ascent_start(n, d, seed):
    start = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, d))
    start[0, 0] = 3.99  # next to the wall
    start[1] = 5.0      # on the box corner
    return start


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("k_smooth", [1, 3, 8])
@pytest.mark.parametrize("d", [1, 2])
def test_smoothed_ascent_low_dim_bitwise_equal_to_fixed_cloud(d, k_smooth):
    # At d <= 2 the cloud keeps all k_smooth points: same positions and the
    # same draws from the generator as the fixed-cloud ascent.
    p = Problem(_walled_ripple, box(d))
    start = _ascent_start(12, d, 21)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    got = _smoothed_ascent(p, start, 0.05, 5, k_smooth, rng)
    want = _smoothed_ascent_reference(p, start, 0.05, 5, k_smooth, rng_ref)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert not np.array_equal(got, start)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d,k_smooth,k", [
    (3, 8, 5), (8, 8, 2), (16, 8, 1), (20, 8, 1),
    (3, 3, 2), (8, 3, 1), (16, 3, 1), (3, 1, 1),
])
def test_smoothed_ascent_caps_evaluations_per_step(d, k_smooth, k):
    # Above d = 2 the cloud shrinks to k = min(k_smooth, max(1, 2 k_smooth // d))
    # points, so a step costs at most max(4 k_smooth, 2d) evaluations per
    # sample; otherwise the ascent is the fixed-cloud one with k points.
    n, n_cloud = 6, 5
    p = CountingProblem(_walled_ripple, box(d))
    start = _ascent_start(n, d, 22)
    got = _smoothed_ascent(p, start, 0.05, n_cloud, k_smooth, np.random.default_rng(4))
    assert p.rows == [n * k * 2 * d] * n_cloud
    assert k * 2 * d <= max(4 * k_smooth, 2 * d)
    want = _smoothed_ascent_reference(p, start, 0.05, n_cloud, k,
                                      np.random.default_rng(4))
    assert got.tobytes() == want.tobytes()


def test_reseed_from_unconverged_distance_band():
    rng = np.random.default_rng(5)
    b = box(3, -100, 100)
    base = np.zeros((1, 3))
    out = _reseed_from_unconverged(rng, 200, base, lam_mid=1.0, lam_coarse=2.0, bounds=b)
    dist = np.linalg.norm(out, axis=1)
    assert np.all(dist >= 1.0 - 1e-12) and np.all(dist <= 2.0 + 1e-12)


def test_reseed_orthonormal_directions():
    # Signed spokes: +q0, -q0, +q1, ... around the peak, all unit length,
    # pairwise either orthogonal or exact opposites.
    rng = np.random.default_rng(6)
    b = box(4, -100, 100)
    peaks = np.zeros((1, 4))
    out = _reseed_orthonormal(rng, 4, peaks, lam_coarse=2.0, bounds=b)
    u = out / 2.0
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(u[0], -u[1], atol=1e-12)
    np.testing.assert_allclose(u[2], -u[3], atol=1e-12)
    assert abs(np.dot(u[0], u[2])) < 1e-12


# ---------------------------------------------------------------- search


def run_discovery(p, rng_seed=0, **kw):
    rng = np.random.default_rng(rng_seed)
    bank = survey(p, rng)
    est = estimate_scales(bank, p.bounds)
    seeds = select_seeds(bank, est.lam_fine, p.dim)
    return discover_modes(p, seeds, est, rng, **kw)


def test_discover_single_gaussian_peak():
    p = gaussian_problem(2, mu=np.array([1.0, -2.0]))
    peaks = run_discovery(p)
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0].position, [1.0, -2.0], atol=1e-4)
    assert peaks[0].logl == pytest.approx(0.0, abs=1e-8)
    assert 0.1 < peaks[0].width < 10.0


def test_discover_two_modes_asymmetric():
    # Mixture 0.9/0.1 at +-2.5 on the first axis: the minor peak is only
    # log 9 = 2.2 nats down, inside the keep band, so both must stick.
    w = np.array([0.9, 0.1])
    mus = np.array([[-2.5, 0.0], [2.5, 0.0]])

    def fn(x):
        d2 = ((x[:, None, :] - mus[None]) ** 2).sum(axis=2)
        m = -0.5 * d2 + np.log(w)
        hi = m.max(axis=1)
        return hi + np.log(np.exp(m - hi[:, None]).sum(axis=1))

    p = Problem(fn, box(2))
    peaks = run_discovery(p, n_oscillations=3)
    assert len(peaks) == 2
    xs = sorted(pk.position[0] for pk in peaks)
    assert xs[0] == pytest.approx(-2.5, abs=1e-3)
    assert xs[1] == pytest.approx(2.5, abs=1e-3)


def test_discover_drops_peak_below_keep_band():
    # Secondary basin 3 nats below the main one (under the log 0.1 floor):
    # it may attract samples but must never appear in the output.
    def fn(x):
        a = -0.5 * np.sum((x - 2.0) ** 2, axis=1)
        b = -3.0 - 0.5 * np.sum((x + 2.0) ** 2, axis=1)
        return np.logaddexp(a, b)

    p = Problem(fn, box(2, -4, 4))
    peaks = run_discovery(p, n_oscillations=3)
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0].position, [2.0, 2.0], atol=1e-3)


def test_discover_no_modes_on_linear_ramp():
    p = Problem(lambda x: x.sum(axis=1), box(2))
    with pytest.raises(NoModesFoundError) as exc:
        run_discovery(p)
    err = exc.value
    assert err.best_logl > 0.0
    assert err.best_position is not None


def test_discover_deterministic_bitwise():
    def once():
        p = gaussian_problem(3, mu=np.array([0.5, -0.5, 1.0]))
        peaks = run_discovery(p, rng_seed=42)
        return b"".join(pk.position.tobytes() for pk in peaks) + np.float64(
            peaks[0].logl
        ).tobytes()

    assert once() == once()


def test_discover_multi_oscillation_keeps_peaks():
    p = gaussian_problem(2)
    peaks = run_discovery(p, n_oscillations=3)
    assert len(peaks) == 1
    assert peaks[0].oscillation >= 1
    np.testing.assert_allclose(peaks[0].position, [0.0, 0.0], atol=1e-4)


def test_discover_between_rounds_runs_only_the_smoothed_ascent(monkeypatch):
    # Between two ascents the samples that did not stick take n_cloud
    # smoothed-ascent steps, one batched call each, and nothing else is
    # evaluated.
    d, n_cloud, k_smooth = 3, 5, 8
    p = CountingProblem(lambda x: -0.5 * np.sum(x * x, axis=1), box(d))
    rng = np.random.default_rng(3)
    bank = survey(p, rng)
    est = estimate_scales(bank, p.bounds)
    seeds = select_seeds(bank, est.lam_fine, d)
    marks = []
    ascent = laplev.discovery.run_batch

    def traced(*args, **kwargs):
        marks.append(p.calls)
        state = ascent(*args, **kwargs)
        marks.append(p.calls)
        return state

    monkeypatch.setattr(laplev.discovery, "run_batch", traced)
    discover_modes(p, seeds, est, rng, n_oscillations=2, n_cloud=n_cloud,
                   k_smooth=k_smooth)
    assert len(marks) == 4  # two ascent rounds
    between = p.rows[marks[1]:marks[2]]
    k = min(k_smooth, max(1, 2 * k_smooth // d))
    assert len(between) == n_cloud
    assert len(set(between)) == 1 and between[0] > 0
    assert between[0] % (k * 2 * d) == 0  # whole clouds of 2d-row gradients
