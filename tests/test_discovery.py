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
    _champion_width,
    _points_along,
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
from laplev.precheck import active_subproblem, precheck
from laplev.problem import BoundsBox, Problem
from laplev.targets import get_target


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


@pytest.mark.parametrize("ray_shape, t_shape", [
    ((68, 1, 128), (68, 64)),   # the survey's (ray, sample) grid
    ((30, 7), (30,)),           # one t per picked seed
    ((5,), (9,)),               # one ray
])
def test_points_along_is_bitwise_the_textbook_sum(ray_shape, t_shape):
    rng = np.random.default_rng(4)
    start = rng.normal(size=ray_shape) * 10.0 ** rng.uniform(-5, 5, size=ray_shape)
    end = rng.normal(size=ray_shape)
    t = rng.random(t_shape)
    want = start + t[..., None] * (end - start)
    got = _points_along(start, end, t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- ray bank


def test_raybank_summary():
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(4))
    assert "44 rays" in bank.summary()


# ---------------------------------------------------------------- scales


def _ripple(x):
    return -np.sum(x * x, axis=1) / 200.0 + 0.5 * np.cos(2 * np.pi / 0.3 * x[:, 0])


# Curvature of _ripple along x0 at a ripple crest: 1/100 + (2 pi / 0.3)^2 / 2.
RIPPLE_WIDTH = (0.01 + 0.5 * (2 * np.pi / 0.3) ** 2) ** -0.5


def test_scales_pure_quadratic_gives_equal_triple():
    # A quadratic's three-point second difference is exact for any arms, so
    # every readable ray reads the same width, sigma, and so does the scale
    # reduced over them (once the fine, mid and coarse ends of a triple).
    sigma = 0.7
    p = gaussian_problem(3, sig2=sigma**2)
    bank = survey(p, np.random.default_rng(9))
    widths = np.array([_champion_width(r) for r in bank.rays if not r.dead])
    widths = widths[np.isfinite(widths)]
    assert widths.size > 1
    np.testing.assert_allclose(widths, sigma, rtol=1e-9)
    est = estimate_scales(bank, p.bounds)
    assert not est.fallback
    assert est.lam_fine == pytest.approx(sigma, rel=1e-9)


def test_scales_two_scale_profile_finds_fine_scale():
    # Gaussian envelope (sigma = 10) carrying a short ripple: the scale
    # must sit at the ripple crests' width, far below the envelope.
    p = Problem(_ripple, box(2, -10, 10))
    bank = survey(p, np.random.default_rng(13))
    est = estimate_scales(bank, p.bounds)
    assert not est.fallback
    assert RIPPLE_WIDTH / 2 <= est.lam_fine <= 2 * RIPPLE_WIDTH


def test_scales_fallback_when_no_usable_rays():
    bank = RayBank()
    est = estimate_scales(bank, box(2, -5, 5))
    assert est.fallback
    assert est.lam_fine == pytest.approx(1e-2)


def test_scales_cigar_detects_stiff_axis():
    # Every ray direction reads a width of at least the stiff sigma, 1e-3;
    # the ray closest to the stiff axis reads it.
    sig2 = np.array([1.0, 1e-6])
    p = gaussian_problem(2, sig2=sig2)
    bank = survey(p, np.random.default_rng(21))
    est = estimate_scales(bank, p.bounds)
    assert 1e-3 * (1 - 1e-9) <= est.lam_fine <= 2e-3


def pipeline_scale(problem, seed):
    """The scale ``run`` reads off its survey at ``seed`` with default settings.

    Same generator (the first stream spawned off the seed) and the same
    active subproblem as the pipeline.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])
    active = active_subproblem(problem, precheck(problem))
    return estimate_scales(survey(active, rng), active.bounds)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name,dim,width", [
    ("gaussian", 8, 1.0), ("cigar", 8, 1e-3), ("cigar", 32, 1e-3),
    ("correlated", 16, 0.5**0.5), ("mixture4", 4, 1.0), ("mixture4", 8, 1.0),
    ("mixture4", 16, 1.0), ("eggbox", 2, 405**-0.5), ("ripple", 2, RIPPLE_WIDTH),
])
def test_scale_within_twice_the_smallest_true_width(name, dim, width, seed):
    if name == "ripple":
        problem = Problem(_ripple, box(2, -10, 10))
    else:
        problem = get_target(name, dim).problem
    est = pipeline_scale(problem, seed)
    assert not est.fallback
    assert width / 2 <= est.lam_fine <= 2 * width


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


def test_champion_width_uses_unequal_arms():
    # Uneven samples over a quadratic: the best sample's arms differ, and
    # the unequal-arm second difference still reads sigma.
    t = np.sort(np.random.default_rng(2).random(40))
    sigma, mu = 0.05, float(t[17] + 0.3 * (t[18] - t[17]))
    r = _samples(UNIT, t, -0.5 * (t - mu) ** 2 / sigma**2)
    assert np.argmax(r.logl) == 17
    assert t[18] - t[17] != t[17] - t[16]
    assert _champion_width(r) == pytest.approx(sigma, rel=1e-9)
    # Arc length, not t: the same profile on a ray three times as long.
    long = Ray(RAY_W2W, np.array([0.0]), np.array([3.0]))
    r3 = _samples(long, t, -0.5 * (3 * (t - mu)) ** 2 / sigma**2)
    assert _champion_width(r3) == pytest.approx(sigma, rel=1e-9)


def test_champion_width_unreadable_cases():
    t = np.linspace(0.0, 1.0, 9)
    bowl = -0.5 * (t - 0.5) ** 2 / 0.1**2
    cases = {
        "best at the ray end": -t,
        "neighbour not finite": np.where(t == 0.625, -np.inf, bowl),
        "neighbour NaN": np.where(t == 0.375, np.nan, bowl),
        "flat top, zero curvature": np.zeros(9),
    }
    for why, v in cases.items():
        assert np.isnan(_champion_width(_samples(UNIT, t, v))), why
    repeated = np.array([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
    assert np.isnan(_champion_width(_samples(UNIT, repeated, -(repeated - 0.5) ** 2)))
    # Only unreadable rays (and a dead one): the scale falls back.
    bank = RayBank([_samples(UNIT, t, v) for v in cases.values()])
    bank.rays.append(_samples(UNIT, t, np.full(9, -np.inf), dead=True))
    est = estimate_scales(bank, box(1, 0, 1))
    assert est.fallback and est.lam_fine == pytest.approx(1e-3)
    # One readable ray among them sets the scale on its own.
    bank.rays.append(_samples(UNIT, t, bowl))
    est = estimate_scales(bank, box(1, 0, 1))
    assert not est.fallback and est.lam_fine == pytest.approx(0.1, rel=1e-9)


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
