from dataclasses import dataclass

import numpy as np
import pytest

import laplev.discovery
from laplev.discovery import (
    DEDUP_WIDTH_FRACTION,
    FIRST_WAVE_SHARE,
    K_PER_BASIN,
    KEEP_RATIO,
    KIND_NAMES,
    N_COARSE,
    PARABOLA_TOL,
    PROBE_STEP,
    RAY_SUN,
    RAY_V2E,
    RAY_V2V,
    RAY_W2W,
    STICK_GRAD,
    RayBank,
    ScaleEstimate,
    _points_along,
    _sample_rays,
    _concave,
    _nearest_better,
    basin_leaders,
    discover_modes,
    estimate_scales,
    generate_rays,
    group_seeds,
    lone_seed,
    rays_per_kind,
    select_seeds,
    survey,
)
from laplev.errors import NoModesFoundError
from laplev.lbfgs import axis_values, fd_steps
from laplev.pipeline import preset_config, run
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


# ------------------------------------------------- per-ray oracles
#
# The survey front end as it was written one ray at a time, kept verbatim:
# one object per ray, one generator call per vertex, edge pick, wall point
# and direction, the per-ray scale reading and the list-based seed picks.
# The array front end must reproduce all of it bit for bit.


@dataclass(frozen=True)
class Ray:
    kind: int
    start: np.ndarray
    end: np.ndarray


@dataclass
class RaySamples:
    ray: Ray
    t: np.ndarray
    logl: np.ndarray
    dead: bool


def _random_vertex(rng, bounds: BoundsBox) -> np.ndarray:
    pick = rng.integers(0, 2, size=bounds.dim)
    return np.where(pick == 1, bounds.upper, bounds.lower).astype(np.float64)


def _sunburst_end(rng, bounds: BoundsBox) -> np.ndarray:
    c = bounds.center
    while True:
        z = rng.standard_normal(bounds.dim)
        nrm = float(np.linalg.norm(z))
        if nrm > 1e-12:
            break
    u = z / nrm
    with np.errstate(divide="ignore"):
        t_hi = np.where(u > 0, (bounds.upper - c) / u, np.inf)
        t_lo = np.where(u < 0, (bounds.lower - c) / u, np.inf)
    t_exit = float(np.min(np.minimum(t_hi, t_lo)))
    return c + t_exit * u


def _generate_rays_reference(bounds: BoundsBox, rng) -> list:
    d = bounds.dim
    n = rays_per_kind(d)
    rays = []
    for _ in range(n):
        a = _random_vertex(rng, bounds)
        while True:
            b = _random_vertex(rng, bounds)
            if not np.array_equal(a, b):
                break
        rays.append(Ray(RAY_V2V, a, b))
    if d > 1:
        for _ in range(n):
            a = _random_vertex(rng, bounds)
            w = _random_vertex(rng, bounds)
            k = int(rng.integers(d))
            mid = w.copy()
            mid[k] = bounds.center[k]
            rays.append(Ray(RAY_V2E, a, mid))
    for _ in range(n):
        k = int(rng.integers(d))
        p = rng.uniform(bounds.lower, bounds.upper)
        a = p.copy()
        a[k] = bounds.lower[k]
        b = p.copy()
        b[k] = bounds.upper[k]
        rays.append(Ray(RAY_W2W, a, b))
    n_sun = n if d > 1 else 2 * n
    c = bounds.center
    for _ in range(n_sun):
        rays.append(Ray(RAY_SUN, c.copy(), _sunburst_end(rng, bounds)))
    return rays


def _eval_rays_reference(problem, rays, t) -> np.ndarray:
    start = np.array([r.start for r in rays])[:, None, :]
    end = np.array([r.end for r in rays])[:, None, :]
    pts = _points_along(start, end, t)
    return problem.logl(pts.reshape(-1, pts.shape[-1])).reshape(t.shape)


def _parabolic_reference(v) -> bool:
    """Whether one ray's coarse values are all finite and lie on a parabola."""
    if not np.isfinite(v).all():
        return False
    d2 = np.diff(np.diff(v))
    return bool(np.max(np.abs(d2 - d2.mean())) <= PARABOLA_TOL * np.max(np.abs(d2)))


def _padded(ray, t, v) -> RaySamples:
    """A live ray's samples sorted by t, padded to 2 N_COARSE with t = inf, NaN."""
    pad = 2 * N_COARSE - t.size
    t_all = np.concatenate([t, np.full(pad, np.inf)])
    v_all = np.concatenate([v, np.full(pad, np.nan)])
    order = np.argsort(t_all, kind="stable")
    return RaySamples(ray, t_all[order], v_all[order], False)


T0 = np.linspace(0.0, 1.0, N_COARSE)
T_PROBE = T0[::PROBE_STEP]  # the probe points, both ends included
T_OTHER = T0[np.arange(N_COARSE) % PROBE_STEP != 0]  # the completion points
N_PROBE = T_PROBE.size


def _coarse(v_probe, v_other):
    """One ray's 64 coarse values in t order, from its probe and completion values."""
    v0 = np.empty(N_COARSE)
    v0[::PROBE_STEP] = v_probe
    v0[np.arange(N_COARSE) % PROBE_STEP != 0] = v_other
    return v0


def _sample_rays_reference(problem, rays, rng, vp=None) -> list:
    """The rays surveyed one at a time; ``vp``, when given, holds their probe values."""
    if vp is None:
        vp = _eval_rays_reference(problem, rays, np.broadcast_to(T_PROBE, (len(rays), N_PROBE)))
    unread = [i for i in range(len(rays)) if not _parabolic_reference(vp[i])]
    out = [_padded(ray, T_PROBE, v) for ray, v in zip(rays, vp)]
    if not unread:
        return out
    vr = _eval_rays_reference(problem, [rays[i] for i in unread],
                              np.broadcast_to(T_OTHER, (len(unread), T_OTHER.size)))
    v0 = np.array([_coarse(vp[i], v) for i, v in zip(unread, vr)])
    live, refill, t1 = laplev.discovery._refill_t(T0, v0, rng)
    # The gate, ray by ray: every live unread ray off a parabola is refilled.
    assert refill.tolist() == [bool(np.isfinite(v).any()) and not _parabolic_reference(v)
                               for v in v0]
    refilled = np.flatnonzero(refill)
    if refilled.size:
        v1 = _eval_rays_reference(problem, [rays[unread[k]] for k in refilled], t1)
    for k, i in enumerate(unread):
        if not live[k]:
            out[i] = RaySamples(rays[i], T0.copy(), v0[k], True)
        elif refill[k]:
            j = int(np.searchsorted(refilled, k))
            out[i] = _padded(rays[i], np.r_[T0, t1[j]], np.r_[v0[k], v1[j]])
        else:
            out[i] = _padded(rays[i], T0, v0[k])
    return out


def _first_wave_reference(rays) -> list:
    """Places of the first ceil(FIRST_WAVE_SHARE n_k) rays of each kind k."""
    quota = {k: np.ceil(FIRST_WAVE_SHARE * sum(r.kind == k for r in rays)) for k in KIND_NAMES}
    taken = dict.fromkeys(KIND_NAMES, 0)
    wave = []
    for i, r in enumerate(rays):
        if taken[r.kind] < quota[r.kind]:
            wave.append(i)
        taken[r.kind] += 1
    return wave


def _concave_reference(v) -> bool:
    """Whether one ray's probe values are a parabola whose every second
    difference ``a - 2b + c`` is negative."""
    return _parabolic_reference(v) and bool(np.all(v[:-2] - 2.0 * v[1:-1] + v[2:] < 0.0))


def _survey_waves_reference(problem, rng):
    """The survey, ray by ray: the samples of the rays the bank holds, their
    places in the generated family and the family's size.

    The first wave's rays are probed; when every one is a concave parabola
    they are the bank. Otherwise the other rays are probed, and every ray
    is surveyed on its probe values as it was before the waves.
    """
    rays = _generate_rays_reference(problem.bounds, rng)
    wave = _first_wave_reference(rays)

    def probe(i):
        return _eval_rays_reference(problem, [rays[i]], T_PROBE[None])[0]

    vp = {i: probe(i) for i in wave}
    if all(_concave_reference(v) for v in vp.values()):
        return [_padded(rays[i], T_PROBE, vp[i]) for i in wave], wave, len(rays)
    vp = np.array([vp[i] if i in vp else probe(i) for i in range(len(rays))])
    return _sample_rays_reference(problem, rays, rng, vp), list(range(len(rays))), len(rays)


def _survey_reference(problem, rng) -> list:
    return _survey_waves_reference(problem, rng)[0]


def _summary_reference(rays, total=None) -> str:
    counts = {name: 0 for name in KIND_NAMES.values()}
    for r in rays:
        counts[KIND_NAMES[r.ray.kind]] += 1
    dead = sum(r.dead for r in rays)
    parts = ", ".join(f"{k}={v}" for k, v in counts.items())
    return f"{len(rays)} of {len(rays) if total is None else total} rays ({parts}), {dead} dead"


def _champion_width_reference(r: RaySamples) -> float:
    v = np.where(np.isfinite(r.logl), r.logl, -np.inf)
    i = int(np.argmax(v))
    if i == 0 or i == v.size - 1 or not np.isfinite(v[i - 1] + v[i + 1]):
        return np.nan
    length = float(np.linalg.norm(r.ray.end - r.ray.start))
    a = float(r.t[i + 1] - r.t[i]) * length
    b = float(r.t[i] - r.t[i - 1]) * length
    if not (a > 0 and b > 0):
        return np.nan
    c = 2.0 * (b * v[i + 1] - (a + b) * v[i] + a * v[i - 1]) / (a * b * (a + b))
    return 1.0 / np.sqrt(-c) if c < 0 else np.nan


def _estimate_scales_reference(rays, bounds: BoundsBox) -> ScaleEstimate:
    widths = np.array([_champion_width_reference(r) for r in rays if not r.dead])
    widths = widths[np.isfinite(widths)]
    if widths.size == 0:
        return ScaleEstimate(1e-3 * float(np.mean(bounds.widths)), True)
    return ScaleEstimate(float(widths.min()), False)


def _select_seeds_reference(rays, lam_fine: float, dim: int):
    q = max(32, 4 * rays_per_kind(dim))
    live = [r for r in rays if not r.dead]
    if not live:
        return np.zeros((0, dim)), np.zeros(0)
    ray = np.repeat(np.arange(len(live)), [r.t.size for r in live])
    t = np.concatenate([r.t for r in live])
    val = np.concatenate([r.logl for r in live])
    finite = np.isfinite(val)
    ray, t, val = ray[finite], t[finite], val[finite]
    if val.size == 0:
        return np.zeros((0, dim)), np.zeros(0)
    order = np.lexsort((np.arange(val.size), -val))
    pick = np.zeros(val.size, dtype=bool)
    pick[order[:q]] = True
    by_ray = np.lexsort((-val, ray))
    pick[by_ray[np.r_[True, np.diff(ray[by_ray]) != 0]]] = True
    idx = np.flatnonzero(pick)
    start = np.array([r.ray.start for r in live])[ray[idx]]
    end = np.array([r.ray.end for r in live])[ray[idx]]
    pos = _points_along(start, end, t[idx])
    kept = dedup_linf(pos, val[idx], lam_fine)
    order = np.lexsort((idx[kept], -val[idx[kept]]))
    return pos[kept[order]], val[idx[kept[order]]]


def _as_bank(rays, dim=None, width=2 * N_COARSE, index=None, total=None) -> RayBank:
    """The array bank holding the per-ray samples ``rays``.

    When every ray was read at the probe, the rows are cut to their
    ``N_PROBE`` probe samples, the survey bank's width then. ``index`` and
    ``total`` are the rays' places in the generated family and its size;
    by default the rays are the whole family. The bank is ``concave`` when
    every ray is read and its probe values are a concave parabola, as the
    bank of a survey that ends at its first wave is.
    """
    dim = rays[0].ray.start.size if rays else dim
    live = [r for r in rays if not r.dead]
    # A ray read at the probe holds its probe points only.
    read = np.array([not r.dead and np.isfinite(r.t).sum() == N_PROBE for r in rays],
                    dtype=bool)
    concave = bool(rays) and read.all() and all(_concave_reference(r.logl[:N_PROBE])
                                                for r in rays)
    if rays and read.all():
        width = N_PROBE

    def stack(field, dtype=np.float64):
        return (np.stack([getattr(r, field)[:width] for r in live]) if live
                else np.zeros((0, width), dtype=dtype))

    return RayBank(
        kind=np.array([r.ray.kind for r in rays], dtype=np.int64),
        start=np.array([r.ray.start for r in rays]).reshape(len(rays), dim),
        end=np.array([r.ray.end for r in rays]).reshape(len(rays), dim),
        dead=np.array([r.dead for r in rays], dtype=bool),
        read=read, t=stack("t"), logl=stack("logl"),
        index=np.arange(len(rays)) if index is None else np.asarray(index, dtype=np.int64),
        total=len(rays) if total is None else total, concave=concave,
    )


def _bank_bytes(bank):
    return (bank.kind.tolist(), bank.dead.tolist(), bank.read.tolist(), bank.t.shape,
            bank.index.tolist(), bank.total, bank.concave,
            *(x.tobytes() for x in (bank.start, bank.end, bank.t, bank.logl)))


# ---------------------------------------------------------------- rays


def test_ray_counts_match_dimension_rule():
    assert rays_per_kind(2) == 11
    kind, _, _ = generate_rays(box(2), np.random.default_rng(0))
    assert len(kind) == 44
    by_kind = {k: int(np.sum(kind == k)) for k in range(4)}
    assert by_kind == {RAY_V2V: 11, RAY_V2E: 11, RAY_W2W: 11, RAY_SUN: 11}


def test_one_dimension_redistributes_edge_quota_to_sunburst():
    kind, _, _ = generate_rays(box(1), np.random.default_rng(0))
    n = rays_per_kind(1)
    by_kind = {k: int(np.sum(kind == k)) for k in range(4)}
    assert by_kind == {RAY_V2V: n, RAY_V2E: 0, RAY_W2W: n, RAY_SUN: 2 * n}
    assert len(kind) == 4 * n


def test_large_dimension_count_is_cheap_and_right():
    kind, start, end = generate_rays(box(1024), np.random.default_rng(1))
    assert rays_per_kind(1024) == 20
    assert len(kind) == 80
    assert start.shape == end.shape == (80, 1024)


def test_ray_endpoint_structure():
    b = BoundsBox(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 4.0, 9.0]))
    for kind, start, end in zip(*generate_rays(b, np.random.default_rng(7))):
        for p in (start, end):
            assert np.all((b.lower <= p) & (p <= b.upper))
        if kind == RAY_V2V:
            for p in (start, end):
                assert np.all((p == b.lower) | (p == b.upper))
            assert not np.array_equal(start, end)
        elif kind == RAY_V2E:
            assert np.all((start == b.lower) | (start == b.upper))
            centered = end == b.center
            assert centered.sum() == 1
            others = ~centered
            assert np.all((end[others] == b.lower[others]) | (end[others] == b.upper[others]))
        elif kind == RAY_W2W:
            diff = np.flatnonzero(start != end)
            assert diff.size == 1
            k = diff[0]
            assert start[k] == b.lower[k] and end[k] == b.upper[k]
        else:
            np.testing.assert_array_equal(start, b.center)
            on_wall = (np.abs(end - b.lower) < 1e-9) | (np.abs(end - b.upper) < 1e-9)
            assert on_wall.any()


# At d <= 3 a v2v end often equals its start, so seeds 0-49 there walk the
# redraws past the end of the first block of vertex picks.
@pytest.mark.parametrize("seed, d", [(s, d) for d in (1, 2, 3) for s in range(50)]
                         + [(s, d) for d in (8, 32, 128) for s in range(3)])
def test_generate_rays_bitwise_equal_to_per_ray_draws(seed, d):
    b = BoundsBox(np.linspace(-3.0, 0.0, d), np.linspace(0.5, 7.0, d))
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    kind, start, end = generate_rays(b, rng)
    rays = _generate_rays_reference(b, rng_ref)
    assert kind.tolist() == [r.kind for r in rays]
    assert start.tobytes() == np.array([r.start for r in rays]).tobytes()
    assert end.tobytes() == np.array([r.end for r in rays]).tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class _ZeroDirections:
    """A generator whose normal vectors at the given places of its stream are zero."""

    def __init__(self, seed, zero):
        self._rng = np.random.default_rng(seed)
        self._zero = set(zero)
        self._drawn = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size):
        z = self._rng.standard_normal(size)
        rows = z.reshape(-1, z.shape[-1])
        for j in range(rows.shape[0]):
            if self._drawn + j in self._zero:
                rows[j] = 0.0
        self._drawn += rows.shape[0]
        return z


@pytest.mark.parametrize("d", [1, 3])
def test_generate_rays_skips_zero_directions_like_per_ray_draws(d):
    # A direction too short to normalise is redrawn: the first, a middle and
    # the last of the block, and the first redraw, are zero.
    n_sun = rays_per_kind(d) * (2 if d == 1 else 1)
    zero = (0, 3, n_sun - 1, n_sun)
    rng, rng_ref = _ZeroDirections(5, zero), _ZeroDirections(5, zero)
    kind, start, end = generate_rays(box(d), rng)
    rays = _generate_rays_reference(box(d), rng_ref)
    assert np.isfinite(end).all()
    assert end.tobytes() == np.array([r.end for r in rays]).tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class _RepeatedPicks:
    """A generator whose 0/1 vertex picks at the given places of its stream
    repeat the pick before them, so a v2v ray's end can equal its start."""

    def __init__(self, seed, repeat):
        self._rng = np.random.default_rng(seed)
        self._repeat = set(repeat)
        self._drawn = 0
        self._last = None

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, low, high=None, size=None):
        x = self._rng.integers(low, high, size=size)
        if size is None or not (isinstance(high, int) and low == 0 and high == 2):
            return x
        rows = x.reshape(-1, x.shape[-1])
        for j in range(rows.shape[0]):
            if self._drawn + j in self._repeat:
                rows[j] = rows[j - 1] if j else self._last
        self._last = rows[-1].copy()
        self._drawn += rows.shape[0]
        return x


@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("repeat", ["one", "first and last"])
def test_generate_rays_redraws_a_repeated_block_pick_like_per_ray_draws(d, repeat):
    # At d >= 8 a v2v pair of the first block all but never collides, so
    # the stub makes one collide: pair 2's end repeats its start, or the
    # first and the last pair's do and so does the last pair's first redraw.
    n = rays_per_kind(d)
    places = {"one": (5,), "first and last": (1, 2 * n - 1, 2 * n)}[repeat]
    b = BoundsBox(np.linspace(-3.0, 0.0, d), np.linspace(0.5, 7.0, d))
    rng, rng_ref = _RepeatedPicks(4, places), _RepeatedPicks(4, places)
    kind, start, end = generate_rays(b, rng)
    rays = _generate_rays_reference(b, rng_ref)
    assert kind.tolist() == [r.kind for r in rays]
    assert start.tobytes() == np.array([r.start for r in rays]).tobytes()
    assert end.tobytes() == np.array([r.end for r in rays]).tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    v2v = kind == RAY_V2V
    assert not (start[v2v] == end[v2v]).all(axis=1).any()


# ---------------------------------------------------------------- two-pass


def _refill(bank):
    """The refill samples of the bank's first live ray: those off the coarse grid."""
    t = bank.t[0][np.isfinite(bank.t[0])]
    return t[~np.isin(t, np.linspace(0.0, 1.0, N_COARSE))]


def _refilled(bank):
    """Which live rows of the bank were refilled: only those hold over N_COARSE samples."""
    return np.isfinite(bank.t).sum(axis=1) > N_COARSE


def _read(bank):
    """Which live rows of the bank were read at the probe."""
    return bank.read[~bank.dead]


def one_ray(problem, kind, start, end, rng):
    """Survey a single ray: one likelihood call per pass."""
    return _sample_rays(problem, np.array([kind]), np.array([start], dtype=np.float64),
                        np.array([end], dtype=np.float64), rng)


def _sharp_bump(x):
    # A Gaussian bump of variance 1e-4 at the origin plus a quartic: off a
    # parabola, so the ray is refilled; the quartic is below 2e-5 nats
    # inside the active region.
    return -0.5 * np.sum(x * x, axis=1) / 1e-4 - np.sum(x**4, axis=1)


def test_two_pass_refines_inside_active_region():
    # Sharp bump at the box midpoint: the refined pass must concentrate there.
    p = Problem(_sharp_bump, box(2))
    bank = one_ray(p, RAY_W2W, [-5.0, 0.0], [5.0, 0.0], np.random.default_rng(3))
    assert not bank.dead[0]
    assert bank.t.shape == (1, 128) and p.eval_counter == 128 and p.call_counter == 3
    refined_t = _refill(bank)
    assert refined_t.size == N_COARSE
    # active region: |x| < sqrt(2 * 20 * 1e-4) = 0.0632 -> t within 0.5 +- 0.0063,
    # padded by one coarse cell half-width (the profile is piecewise constant).
    cell = 1.0 / 63.0
    inside = np.abs(refined_t - 0.5) <= 0.0064 + cell
    assert inside.mean() >= 0.8


def test_two_pass_dead_ray_skips_refinement():
    p = Problem(lambda x: np.full(x.shape[0], -np.inf), box(2))
    bank = one_ray(p, RAY_V2V, [-5.0, -5.0], [5.0, 5.0], np.random.default_rng(0))
    assert bank.dead[0]
    # The probe finds no finite value, so the completion runs: all 64 are dead.
    assert p.eval_counter == 64 and p.call_counter == 2
    # A dead ray keeps no row of samples.
    assert bank.t.shape == bank.logl.shape == (0, 128)


def test_two_pass_uniform_likelihood_spreads_samples():
    # Exactly uniform is a (flat) parabola: the probe reads the profile.
    p = Problem(lambda x: np.zeros(x.shape[0]), box(2))
    bank = one_ray(p, RAY_V2V, [-5.0, -5.0], [5.0, 5.0], np.random.default_rng(5))
    assert _read(bank)[0] and p.call_counter == 1 and p.eval_counter == N_PROBE
    assert not _refilled(bank)[0] and _refill(bank).size == 0
    # Within a nat of uniform, with a kink: the refill spreads over the ray.
    p = Problem(lambda x: -np.abs(x[:, 0] + x[:, 1]) / 10.0, box(2))
    bank = one_ray(p, RAY_V2V, [-5.0, -5.0], [5.0, 5.0], np.random.default_rng(5))
    refined = _refill(bank)
    assert refined.size == N_COARSE
    assert refined.min() < 0.2 and refined.max() > 0.8


def _refill_t_broadcast(t0, v0, rng):
    """``_refill_t`` with every target's cell found by one broadcast count
    of cum <= x over all rows, in place of a searchsorted per row."""
    n_coarse = t0.size
    finite = np.isfinite(v0)
    live = finite.any(axis=1)
    refill = live & np.array([not _parabolic_reference(v) for v in v0], dtype=bool)
    if not refill.any():
        return live, refill, np.zeros((0, n_coarse))
    v0, finite = v0[refill], finite[refill]
    vmax = np.where(finite, v0, -np.inf).max(axis=1, keepdims=True)
    active = finite & (v0 > vmax - laplev.discovery.ACTIVE_DROP)
    edges = np.concatenate([[0.0], 0.5 * (t0[:-1] + t0[1:]), [1.0]])
    cell_w = np.diff(edges)
    weights = np.where(active, np.exp(np.where(finite, v0, -np.inf) - vmax), 0.0) * cell_w
    cum = np.cumsum(weights, axis=1)
    targets = rng.random(cum.shape) * cum[:, -1:]
    cells = np.minimum((targets[:, :, None] >= cum[:, None, :]).sum(axis=2), n_coarse - 1)
    w = np.take_along_axis(weights, cells, axis=1)
    lo = np.take_along_axis(cum, cells, axis=1) - w
    frac = np.where(w > 0, (targets - lo) / w, 0.5)
    return live, refill, edges[cells] + frac * cell_w[cells]


@pytest.mark.parametrize("seed", range(8))
def test_refill_t_equals_the_broadcast_count(seed):
    # Random rows: four dead rows, six parabolic ones, then rough profiles
    # with steep drops (cells outside the active region weigh nothing, so
    # cum has flat runs) and holes of -inf and NaN. Masks, refill positions
    # and the generator state afterwards match bit for bit.
    gen = np.random.default_rng(100 + seed)
    rows = 44
    v0 = (-np.abs(gen.standard_normal((rows, N_COARSE))).cumsum(axis=1)
          * gen.uniform(0.1, 5.0, (rows, 1)))
    v0[gen.random(v0.shape) < 0.05] = -np.inf
    v0[gen.random(v0.shape) < 0.02] = np.nan
    v0[:4] = np.nan
    v0[4:10] = -0.5 * (T0 - gen.random()) ** 2
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = laplev.discovery._refill_t(T0, v0, got_rng)
    want = _refill_t_broadcast(T0, v0, want_rng)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got[1].any() and (got[0] & ~got[1]).any() and not got[0].all()


def test_survey_batches_and_counter():
    p = Problem(_half_ripple, box(2))
    bank = survey(p, np.random.default_rng(11))
    assert len(bank.kind) == 44
    n_live = int(np.sum(~bank.dead))
    n_read = int(_read(bank).sum())
    n_refilled = int(_refilled(bank).sum())
    assert 0 < n_read and 0 < n_refilled <= n_live - n_read
    assert bank.t.shape == (n_live, 128)
    assert p.eval_counter == (44 * N_PROBE + (44 - n_read) * (N_COARSE - N_PROBE)
                              + n_refilled * N_COARSE)


def _half_ripple(x):
    # A unit Gaussian with a ripple on the half x0 > 0: rays that stay in
    # x0 < 0 are parabolas, the others are not.
    ripple = np.where(x[:, 0] > 0.0, 0.1 * np.sin(7.0 * x[:, 0]) ** 2, 0.0)
    return -0.5 * np.sum(x * x, axis=1) + ripple


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
    """One ray, at most three likelihood calls: the survey as it was written per ray."""

    def at(t):
        return ray.start + t[:, None] * (ray.end - ray.start)

    v_probe = problem.logl(at(T_PROBE))
    if _parabolic_reference(v_probe):
        return _padded(ray, T_PROBE, v_probe)
    t0 = np.linspace(0.0, 1.0, n_coarse)
    v0 = _coarse(v_probe, problem.logl(at(T_OTHER)))
    finite = np.isfinite(v0)
    if not finite.any():
        return RaySamples(ray, t0, v0, True)
    if _parabolic_reference(v0):
        return _padded(ray, t0, v0)

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
    return _padded(ray, np.r_[t0, t1], np.r_[v0, problem.logl(at(t1))])


def _one_ray_reference(problem, ray, rng):
    return _sample_rays_reference(problem, [ray], rng)[0]


def _corner_only(x):
    # Finite only in a slab at the low end of the first axis: rays that
    # never enter it are dead.
    return np.where(x[:, 0] < -4.0, -0.5 * np.sum(x * x, axis=1), -np.inf)


@pytest.mark.parametrize("fn, d", [
    (lambda x: -0.25 * np.sum(x**4, axis=1), 1),
    (lambda x: -0.25 * np.sum(x**4, axis=1), 3),
    (_corner_only, 1),
    (_corner_only, 3),
    (_half_ripple, 2),
    (_half_ripple, 3),
])
def test_survey_two_calls_bitwise_equal_to_per_ray_loop(fn, d):
    # Named when the survey made two calls; it makes four now: the first
    # wave's probe, which none of these targets passes, the other rays'
    # probe, completion, refill. A quartic is off a parabola on every ray:
    # every ray is completed and refilled. On the others some rays are
    # dead, or read at the probe, and draw nothing.
    p = CountingProblem(fn, box(d))
    bank = survey(p, np.random.default_rng(8))
    assert p.calls == 4
    n_rays = len(bank.kind)
    n_wave = len(_first_wave_reference(_generate_rays_reference(box(d),
                                                                np.random.default_rng(8))))
    n_dead = int(bank.dead.sum())
    n_unread = n_rays - int(_read(bank).sum())
    n_refilled = int(_refilled(bank).sum())
    if fn is _corner_only:
        assert 0 < n_dead < n_unread <= n_rays
    elif fn is _half_ripple:
        assert 0 < n_refilled <= n_unread < n_rays
    else:
        assert n_refilled == n_unread == n_rays
    assert p.rows == [N_PROBE * n_wave, N_PROBE * (n_rays - n_wave),
                      (N_COARSE - N_PROBE) * n_unread, N_COARSE * n_refilled]
    expected_counter = p.eval_counter

    for single in (_one_ray_reference, _two_pass_reference):
        q = CountingProblem(fn, box(d))
        rng = np.random.default_rng(8)
        rays = [single(q, ray, rng) for ray in _generate_rays_reference(q.bounds, rng)]
        assert _bank_bytes(_as_bank(rays)) == _bank_bytes(bank)
        assert q.eval_counter == expected_counter
        assert q.calls == n_rays + n_unread + n_refilled


def test_survey_all_rays_dead_makes_probe_and_completion_calls():
    # No probe value is finite, so the first wave does not end the survey,
    # the other rays are probed and every ray is completed; all 64 values
    # are dead, so no ray is refilled.
    p = CountingProblem(lambda x: np.full(x.shape[0], -np.inf), box(3))
    rng = np.random.default_rng(0)
    bank = survey(p, rng)
    assert bank.dead.all()
    assert bank.t.shape == bank.logl.shape == (0, 2 * N_COARSE)
    n_wave = 3 * 4  # 3 of the 12 rays of each kind
    assert p.rows == [N_PROBE * n_wave, N_PROBE * (len(bank.kind) - n_wave),
                      (N_COARSE - N_PROBE) * len(bank.kind)]
    rng_loop = np.random.default_rng(0)
    q = Problem(lambda x: np.full(x.shape[0], -np.inf), box(3))
    rays = [_one_ray_reference(q, ray, rng_loop)
            for ray in _generate_rays_reference(q.bounds, rng_loop)]
    assert _bank_bytes(_as_bank(rays)) == _bank_bytes(bank)
    # dead rays draw nothing, so both generators are in the same state
    assert rng.random() == rng_loop.random()


def test_survey_read_at_the_probe_holds_the_probe_alone():
    # Every ray of a Gaussian is read at the probe: the bank is the probe
    # values as they came back, N_PROBE per ray, with no padding.
    p = get_target("gaussian", 8).problem
    bank = survey(p, np.random.default_rng(1))
    assert bank.read.all()
    assert bank.t.shape == bank.logl.shape == (len(bank.kind), N_PROBE)
    assert (bank.t == T_PROBE).all() and np.isfinite(bank.logl).all()


def test_mixed_survey_keeps_padded_rows_in_t_order():
    # Some _half_ripple rays are read at the probe and the others are
    # refilled: the bank stays 2 N_COARSE wide. A read row holds the probe,
    # then padding; a refilled row its 2 N_COARSE samples sorted by t.
    p = Problem(_half_ripple, box(2))
    bank = survey(p, np.random.default_rng(11))
    read, refilled = _read(bank), _refilled(bank)
    assert read.any() and refilled.any() and (read ^ refilled).all()
    assert bank.t.shape == bank.logl.shape == (int((~bank.dead).sum()), 2 * N_COARSE)
    assert (bank.t[read, :N_PROBE] == T_PROBE).all()
    assert np.isfinite(bank.logl[read, :N_PROBE]).all()
    assert np.isinf(bank.t[read, N_PROBE:]).all() and np.isnan(bank.logl[read, N_PROBE:]).all()
    assert (np.diff(bank.t[refilled], axis=1) >= 0.0).all()
    assert all(np.isin(T0, row).all() for row in bank.t[refilled])


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


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("gaussian", 1024),
                                      ("correlated", 16), ("rotated-cigar", 16)])
def test_gaussian_survey_is_one_call_of_coarse_rows(name, dim):
    # A Gaussian is a parabola along every line: every ray is read at the
    # probe, and the survey is the one call of every ray's probe points.
    p = get_target(name, dim, allow_large=True).problem
    bank = survey(p, np.random.default_rng(np.random.SeedSequence(1).spawn(4)[0]))
    assert p.call_counter == 1 and p.eval_counter == len(bank.kind) * N_PROBE
    assert not bank.dead.any() and _read(bank).all()
    assert (bank.t[:, :N_PROBE] == T_PROBE).all()
    assert np.isinf(bank.t[:, N_PROBE:]).all() and np.isnan(bank.logl[:, N_PROBE:]).all()


def _pipeline_rng(seed=1):
    """The survey's generator in ``run``: the first stream spawned off the seed."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("gaussian", 1024), ("correlated", 16),
                                      ("rotated-cigar", 16), ("cigar", 32)])
def test_first_wave_exit_is_a_quarter_of_each_kinds_probe_rows(name, dim):
    # Every ray of the first wave is a concave parabola: the bank is the
    # first quarter of each kind's rows of one probe call over the whole
    # family, bit for bit, the survey is that one call, and the generator
    # sits where generate_rays left it.
    p = get_target(name, dim, allow_large=True).problem
    q = get_target(name, dim, allow_large=True).problem
    rng, rng_rays = _pipeline_rng(), _pipeline_rng()
    bank = survey(p, rng)
    kind, start, end = generate_rays(q.bounds, rng_rays)
    assert rng.bit_generator.state == rng_rays.bit_generator.state
    wave = _first_wave_reference([Ray(k, a, b) for k, a, b in zip(kind, start, end)])
    rows = _eval_rays_reference(q, [Ray(k, a, b) for k, a, b in zip(kind, start, end)],
                                np.broadcast_to(T_PROBE, (kind.size, N_PROBE)))
    assert p.call_counter == 1 and p.eval_counter == len(wave) * N_PROBE
    assert bank.concave and bank.total == kind.size and bank.index.tolist() == wave
    assert len(wave) < kind.size
    assert bank.kind.tolist() == kind[wave].tolist()
    assert bank.start.tobytes() == start[wave].tobytes()
    assert bank.end.tobytes() == end[wave].tobytes()
    assert not bank.dead.any() and bank.read.all()
    assert (bank.t == T_PROBE).all() and bank.logl.tobytes() == rows[wave].tobytes()


def test_near_gaussian_fallback_is_the_per_ray_survey_in_one_more_call():
    # cigar/8 at seed 1: 13 of its 16 first-wave rays are read, but three
    # wall-to-wall rays along the wide axis round off the parabola gate. So
    # the other rays are probed in a second call, and the bank, the refill
    # draws and the generator state are the per-ray survey's, bit for bit:
    # the probe, completion and refill calls of a one-wave survey, and one
    # more.
    p, q = get_target("cigar", 8).problem, get_target("cigar", 8).problem
    rng, rng_ref = _pipeline_rng(), _pipeline_rng()
    bank = survey(p, rng)
    rays = _survey_reference(q, rng_ref)
    assert not bank.concave and bank.total == len(bank.kind) == len(rays)
    assert _bank_bytes(bank) == _bank_bytes(_as_bank(rays))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert _refilled(bank).any() and p.eval_counter == q.eval_counter
    assert p.call_counter == 4


def test_eggbox_survey_refills_every_ray():
    # No eggbox ray is read at the probe: each is completed, then refilled.
    # The first wave's probe and the other rays' probe are two calls.
    p = get_target("eggbox", 2).problem
    bank = survey(p, np.random.default_rng(np.random.SeedSequence(1).spawn(4)[0]))
    assert _refilled(bank).all() and len(bank.t) == len(bank.kind)
    assert p.call_counter == 4 and p.eval_counter == len(bank.kind) * 2 * N_COARSE


def test_ripple_ray_is_refilled_and_parabolic_ray_is_not():
    # Along x0 the ripple shows between the grid points; along x1, at a
    # fixed x0, _ripple is a parabola. The first ray is the first wave, one
    # of the two rays of its kind; the second is probed after it.
    p = CountingProblem(_ripple, box(2, -10, 10))
    start = np.array([[-10.0, 0.3], [0.3, -10.0]])
    end = np.array([[10.0, 0.3], [0.3, 10.0]])
    bank = _sample_rays(p, np.array([RAY_W2W, RAY_W2W]), start, end,
                        np.random.default_rng(2))
    assert _refilled(bank).tolist() == [True, False]
    assert _read(bank).tolist() == [False, True]
    assert p.rows == [N_PROBE, N_PROBE, N_COARSE - N_PROBE, N_COARSE]
    np.testing.assert_array_equal(bank.t[1, :N_PROBE], T_PROBE)
    assert np.isinf(bank.t[1, N_PROBE:]).all() and np.isnan(bank.logl[1, N_PROBE:]).all()


def _grid_ripple(period_steps):
    """A wide bowl along x0 in [-10, 10] with a cosine ripple of the given
    period, in coarse-grid steps of a wall-to-wall ray along x0; the ripple
    peaks on every grid point a multiple of its period from the wall."""
    h = 20.0 / (N_COARSE - 1)

    def fn(x):
        return (-np.sum(x * x, axis=1) / 200.0
                + 0.5 * np.cos(2.0 * np.pi * (x[:, 0] + 10.0) / (period_steps * h)))

    return fn


def _ripple_ray(period_steps):
    """The wall-to-wall ray along x0 through a grid ripple, surveyed alone."""
    p = CountingProblem(_grid_ripple(period_steps), box(2, -10, 10))
    bank = _sample_rays(p, np.array([RAY_W2W]), np.array([[-10.0, 0.3]]),
                        np.array([[10.0, 0.3]]), np.random.default_rng(2))
    return p, bank


def test_ripple_of_two_grid_steps_is_not_read_at_the_probe():
    # The probe steps 3 grid steps, an odd count, so a ripple of period 2
    # alternates from one probe point to the next: the ray is completed and
    # refilled.
    p, bank = _ripple_ray(2)
    assert not _read(bank)[0] and _refilled(bank)[0]
    assert p.rows == [N_PROBE, N_COARSE - N_PROBE, N_COARSE]


@pytest.mark.parametrize("period_steps", [3, 1.5])
def test_ripple_dividing_the_probe_step_is_read_at_the_probe(period_steps):
    # The probe's blind spot: a ripple whose period divides 3 grid steps
    # shows the same phase at every probe point, so the ray reads as a
    # parabola and keeps the probe alone, although the whole coarse grid
    # is not a parabola and would have the ray refilled.
    p, bank = _ripple_ray(period_steps)
    assert _read(bank)[0] and p.rows == [N_PROBE]
    whole = p.logl(_points_along(np.array([-10.0, 0.3]), np.array([10.0, 0.3]), T0))
    assert not _parabolic_reference(whole)


# ---------------------------------------------------------------- ray bank


def test_raybank_summary():
    # A Gaussian's survey ends at its first wave: 3 of the 11 rays of each
    # kind.
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(4))
    assert "12 of 44 rays" in bank.summary()
    rays, _, total = _survey_waves_reference(gaussian_problem(2), np.random.default_rng(4))
    assert bank.summary() == _summary_reference(rays, total)
    half = _survey_reference(Problem(_corner_only, box(3)), np.random.default_rng(4))
    assert "0 dead" not in _summary_reference(half)
    assert _as_bank(half).summary() == _summary_reference(half)


# ------------------------------------------- the front end against its oracles


def _ripple(x):
    return -np.sum(x * x, axis=1) / 200.0 + 0.5 * np.cos(2 * np.pi / 0.3 * x[:, 0])


def _half_dead(x):
    # Finite on half of the box: some rays are dead, most are half dead.
    return np.where(x[:, 0] < 0.0, -0.5 * np.sum(x * x, axis=1), -np.inf)


def _nan_region(x):
    # NaN on a slab, finite elsewhere.
    return np.where(x[:, 0] > 1.0, np.nan, -0.5 * np.sum((x - 0.5) ** 2, axis=1))


FRONT_END_PROBLEMS = {
    "quadratic": (lambda x: -0.5 * np.sum(x * x, axis=1), -5.0, 5.0),
    "dead": (_corner_only, -5.0, 5.0),
    "half-dead": (_half_dead, -5.0, 5.0),
    "all-dead": (lambda x: np.full(x.shape[0], -np.inf), -5.0, 5.0),
    "nan": (_nan_region, -5.0, 5.0),
    "ripple": (_ripple, -10.0, 10.0),
}


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FRONT_END_PROBLEMS))
def test_front_end_bitwise_equal_to_per_ray_oracles(name, seed, d):
    # Survey, scale and seeds from the array bank against the per-ray
    # front end: every bank array, the generator state after the survey,
    # the scale estimate and the seeds agree bit for bit. The quadratic
    # ends its survey at the first wave; the others survey every ray.
    fn, lo, hi = FRONT_END_PROBLEMS[name]
    p, q = Problem(fn, box(d, lo, hi)), Problem(fn, box(d, lo, hi))
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    bank = survey(p, rng)
    rays, index, total = _survey_waves_reference(q, rng_ref)
    assert bank.concave is (name == "quadratic")
    assert _bank_bytes(bank) == _bank_bytes(_as_bank(rays, index=index, total=total))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert p.eval_counter == q.eval_counter
    assert bank.summary() == _summary_reference(rays, total)

    est = estimate_scales(bank, p.bounds)
    want = _estimate_scales_reference(rays, q.bounds)
    assert float(est.lam_fine).hex() == float(want.lam_fine).hex()
    assert est.fallback is want.fallback
    for lam in (est.lam_fine, 0.2):
        got = select_seeds(bank, lam, d)
        ref = _select_seeds_reference(rays, lam, d)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- scales


# Curvature of _ripple along x0 at a ripple crest: 1/100 + (2 pi / 0.3)^2 / 2.
RIPPLE_WIDTH = (0.01 + 0.5 * (2 * np.pi / 0.3) ** 2) ** -0.5


def _live_ray(bank, j):
    """A bank holding only the j-th live ray of ``bank``."""
    k = np.flatnonzero(~bank.dead)[j]
    return RayBank(bank.kind[k:k + 1], bank.start[k:k + 1], bank.end[k:k + 1],
                   bank.dead[k:k + 1], bank.read[k:k + 1], bank.t[j:j + 1],
                   bank.logl[j:j + 1], bank.index[k:k + 1], bank.total, bank.concave)


def _width(bank, bounds):
    """The width the bank's rays read; NaN when none reads one."""
    est = estimate_scales(bank, bounds)
    return np.nan if est.fallback else est.lam_fine


def test_scales_pure_quadratic_gives_equal_triple():
    # A quadratic's three-point second difference is exact for any arms, so
    # every readable ray reads the same width, sigma, and so does the scale
    # reduced over them (once the fine, mid and coarse ends of a triple).
    sigma = 0.7
    p = gaussian_problem(3, sig2=sigma**2)
    bank = survey(p, np.random.default_rng(9))
    widths = np.array([_width(_live_ray(bank, j), p.bounds)
                       for j in range(bank.t.shape[0])])
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
    bank = _as_bank([], dim=2)
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
    return RaySamples(ray, np.asarray(t, dtype=np.float64),
                      np.asarray(v, dtype=np.float64), dead)


UNIT = Ray(RAY_W2W, np.array([0.0]), np.array([1.0]))  # length 1: s equals t


def _ragged_rays():
    """Rays of very different lengths, with -inf / NaN samples and repeated t.

    Every live row of a bank holds the same number of samples, so the rays
    differ in length and in which samples are missing, not in count.
    """
    rng = np.random.default_rng(31)
    rays = []
    n = 40
    for length in (10.0, 0.05, 3.0, 7.0, 1e-4):
        ray = Ray(RAY_W2W, np.array([-length / 2, 0.0]), np.array([length / 2, 0.0]))
        t = np.sort(np.concatenate([rng.random(n - 4), [0.0, 1.0, 0.5, 0.5]]))
        x = (t - 0.5) * length
        v = -0.5 * x * x / 0.3**2
        v[rng.random(n) < 0.1] = -np.inf
        v[rng.random(n) < 0.05] = np.nan
        rays.append(RaySamples(ray, t, v, False))
    dead = Ray(RAY_V2V, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    rays.append(RaySamples(dead, np.linspace(0, 1, 8), np.full(8, -np.inf), True))
    return rays


def _scales_rays():
    yield gaussian_problem(3, sig2=0.7**2).bounds, _survey_reference(
        gaussian_problem(3, sig2=0.7**2), np.random.default_rng(9))
    cigar = gaussian_problem(2, sig2=np.array([1.0, 1e-6]))
    yield cigar.bounds, _survey_reference(cigar, np.random.default_rng(21))
    ripple = Problem(_ripple, box(2, -10, 10))
    yield ripple.bounds, _survey_reference(ripple, np.random.default_rng(13))
    yield box(2), _ragged_rays()
    half = Problem(_corner_only, box(3))
    yield half.bounds, _survey_reference(half, np.random.default_rng(4))


@pytest.mark.parametrize("case", range(5))
def test_scales_match_per_ray_reading(case):
    bounds, rays = list(_scales_rays())[case]
    got = estimate_scales(_as_bank(rays), bounds)
    want = _estimate_scales_reference(rays, bounds)
    assert float(got.lam_fine).hex() == float(want.lam_fine).hex()
    assert got.fallback is want.fallback


def test_champion_width_uses_unequal_arms():
    # Uneven samples over a quadratic: the best sample's arms differ, and
    # the unequal-arm second difference still reads sigma.
    t = np.sort(np.random.default_rng(2).random(40))
    sigma, mu = 0.05, float(t[17] + 0.3 * (t[18] - t[17]))
    r = _samples(UNIT, t, -0.5 * (t - mu) ** 2 / sigma**2)
    assert np.argmax(r.logl) == 17
    assert t[18] - t[17] != t[17] - t[16]
    assert _width(_as_bank([r]), box(1, 0, 1)) == pytest.approx(sigma, rel=1e-9)
    # Arc length, not t: the same profile on a ray three times as long.
    long = Ray(RAY_W2W, np.array([0.0]), np.array([3.0]))
    r3 = _samples(long, t, -0.5 * (3 * (t - mu)) ** 2 / sigma**2)
    assert _width(_as_bank([r3]), box(1, 0, 1)) == pytest.approx(sigma, rel=1e-9)


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
        assert np.isnan(_width(_as_bank([_samples(UNIT, t, v)]), box(1, 0, 1))), why
    repeated = np.array([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
    rep = _as_bank([_samples(UNIT, repeated, -(repeated - 0.5) ** 2)])
    assert np.isnan(_width(rep, box(1, 0, 1)))
    # Only unreadable rays (and a dead one): the scale falls back.
    rays = [_samples(UNIT, t, v) for v in cases.values()]
    rays.append(_samples(UNIT, t, np.full(9, -np.inf), dead=True))
    est = estimate_scales(_as_bank(rays), box(1, 0, 1))
    assert est.fallback and est.lam_fine == pytest.approx(1e-3)
    # One readable ray among them sets the scale on its own.
    rays.append(_samples(UNIT, t, bowl))
    est = estimate_scales(_as_bank(rays), box(1, 0, 1))
    assert not est.fallback and est.lam_fine == pytest.approx(0.1, rel=1e-9)


# ---------------------------------------------------------------- seeds


def test_select_seeds_quota_and_thinning():
    p = gaussian_problem(2)
    bank = survey(p, np.random.default_rng(17))
    seeds, seed_logl = select_seeds(bank, lam_fine=0.5, dim=2)
    # Ranked best first, with the survey values of the seed positions.
    assert np.all(np.diff(seed_logl) <= 0)
    assert seed_logl.tobytes() == p.logl(seeds).tobytes()
    assert seeds.shape[0] <= max(32, 4 * rays_per_kind(2))
    assert seeds.shape[0] > 0
    # thinning: no two seeds within the radius of each other
    for i in range(seeds.shape[0]):
        for j in range(i + 1, seeds.shape[0]):
            assert np.max(np.abs(seeds[i] - seeds[j])) > 0.5


def _select_seeds_champion_walk(rays, lam_fine, dim):
    """Seed selection with the per-ray champion walk."""
    q = max(32, 4 * rays_per_kind(dim))
    live = [r for r in rays if not r.dead]
    if not live:
        return np.zeros((0, dim)), np.zeros(0)
    # An unrefilled ray's padding (t = inf, NaN) is not finite: no position.
    pos = np.vstack([_points_along(r.ray.start, r.ray.end, r.t[np.isfinite(r.logl)])
                     for r in live])
    val = np.concatenate([r.logl for r in live])
    val = val[np.isfinite(val)]
    if pos.shape[0] == 0:
        return np.zeros((0, dim)), np.zeros(0)
    order = np.lexsort((np.arange(val.size), -val))
    pick = np.zeros(val.size, dtype=bool)
    pick[order[:q]] = True
    offset = 0
    for r in rays:
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
    return pos[kept[order]], val[kept[order]]


@pytest.mark.parametrize("case", range(5))
def test_select_seeds_champions_match_per_ray_walk(case):
    bounds, rays = list(_scales_rays())[case]
    bank = _as_bank(rays)
    for lam in (1e-3, 0.2):
        got = select_seeds(bank, lam, bounds.dim)
        for ref in (_select_seeds_champion_walk(rays, lam, bounds.dim),
                    _select_seeds_reference(rays, lam, bounds.dim)):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in ref]


def _tied_rays(values, n_rays=6):
    """Live 2-d rays holding ``values`` in sample order, one row of them per ray.

    The rays are parallel chords at different heights, so no two samples
    share a position.
    """
    values = np.asarray(values, dtype=np.float64).reshape(n_rays, -1)
    t = np.linspace(0.0, 1.0, values.shape[1])
    return [RaySamples(Ray(RAY_W2W, np.array([-1.0, 0.1 * k]), np.array([1.0, 0.1 * k])),
                       t, v, False) for k, v in enumerate(values)]


def test_select_seeds_ties_across_the_quota_in_sample_order():
    # The q-th best value is shared by samples on both sides of the quota:
    # the ones above it all rank, and of the tied ones the first in sample
    # order fill it, as a stable sort ranks them.
    q = max(32, 4 * rays_per_kind(2))
    rng = np.random.default_rng(3)
    values = np.full(240, -5.0)
    spots = rng.permutation(values.size)
    values[spots[:q - 12]] = 2.0 + rng.integers(0, 3, q - 12)
    values[spots[q - 12:q + 30]] = 1.0
    values[spots[q + 30:q + 50]] = [np.nan, -np.inf] * 10
    rays = _tied_rays(values)
    bank = _as_bank(rays)
    val = bank.logl[np.isfinite(bank.logl)]
    kth = np.sort(val)[::-1][q - 1]
    assert kth == 1.0 and (val > kth).sum() < q < (val >= kth).sum()
    for lam in (1e-9, 0.3):
        got = select_seeds(bank, lam, 2)
        want = _select_seeds_reference(rays, lam, 2)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("spare", [0, 7])
def test_select_seeds_keeps_every_sample_when_there_are_at_most_q(spare):
    # At most q finite samples: every one of them ranks, ties and all.
    q = max(32, 4 * rays_per_kind(2))
    rng = np.random.default_rng(spare)
    values = rng.permutation(np.repeat([0.0, 1.0, 2.0], 20))
    values[rng.permutation(values.size)[:values.size - (q - spare)]] = np.nan
    rays = _tied_rays(values)
    bank = _as_bank(rays)
    got = select_seeds(bank, 1e-9, 2)
    want = _select_seeds_reference(rays, 1e-9, 2)
    assert got[0].shape[0] == q - spare
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_select_seeds_all_dead_gives_no_seeds():
    p = Problem(lambda x: np.full(x.shape[0], -np.inf), box(3))
    seeds, seed_logl = select_seeds(survey(p, np.random.default_rng(0)), 0.1, 3)
    assert seeds.shape == (0, 3) and seed_logl.shape == (0,)


# ---------------------------------------------------------------- basins


def _group_seeds_reference(problem, seeds, seed_logl, lam_fine):
    """Seed grouping one pair at a time: probe the segment, then complete it.

    Each segment is probed at t = 1/4, 1/2, 3/4 in a call of its own. It is
    decided there when its grid is those three points, or when its five
    points (the seed values around the probe) are a concave parabola. Any
    other segment is judged on its whole grid; it costs m points more,
    m - 3 when the probe points are grid points (4 divides m + 1). Returns
    the nearest-better indices and distances, the verdicts, the probe's
    decisions, the probe's concave parabolas, the labels, each basin's
    parabolic flag (every segment that joined it a concave parabola) and
    the completion's point count.
    """
    near, dist, concave, read, parabola, basin, completed = [], [], [], [], [], [0], 0
    for i in range(1, seeds.shape[0]):
        sq = [np.sum((seeds[i] - seeds[j]) ** 2) for j in range(i)]
        j = int(np.argmin(sq))
        r = np.sqrt(sq[j])
        m = int(min(max(np.ceil(2.0 * r / lam_fine) - 1.0, 3.0), 64.0))
        u = problem.logl(_points_along(seeds[i], seeds[j], np.array([0.25, 0.5, 0.75])))
        five = np.concatenate([[seed_logl[i]], u, [seed_logl[j]]])
        with np.errstate(invalid="ignore"):
            down = bool(np.all(five[:-2] - 2.0 * five[1:-1] + five[2:] <= 0.0))
        parabola.append(down and _parabolic_reference(five))
        decided = m == 3 or parabola[-1]
        ok = down
        if not decided:
            t = np.arange(1, m + 1) / (m + 1)
            prof = np.concatenate([[seed_logl[i]],
                                   problem.logl(_points_along(seeds[i], seeds[j], t)),
                                   [seed_logl[j]]])
            with np.errstate(invalid="ignore"):
                ok = bool(np.all(prof[:-2] - 2.0 * prof[1:-1] + prof[2:] <= 0.0))
            completed += m - 3 if (m + 1) % 4 == 0 else m
        near.append(j)
        dist.append(r)
        concave.append(ok)
        read.append(decided)
        basin.append(basin[j] if ok else max(basin) + 1)
    flat = [all(parabola[i - 1] for i in range(1, len(basin))
                if concave[i - 1] and basin[i] == b) for b in range(max(basin) + 1)]
    return (np.array(near, dtype=np.int64), np.array(dist), np.array(concave),
            np.array(read), np.array(parabola), np.array(basin, dtype=np.int64),
            np.array(flat), completed)


def _two_bumps(x):
    # Two unit Gaussians 3 apart on the first axis: segments that cross
    # the valley between them are not concave.
    a = -0.5 * np.sum((x - 1.5) ** 2, axis=1)
    b = -0.5 * np.sum((x + 1.5) ** 2, axis=1)
    return np.logaddexp(a, b)


def _ranked_seeds(problem, n, rng_seed):
    """``n`` uniform box points with their values, ranked best first."""
    b = problem.bounds
    x = np.random.default_rng(rng_seed).uniform(b.lower, b.upper, (n, b.dim))
    v = problem.logl(x)
    order = np.lexsort((np.arange(n), -v))
    return x[order], v[order]


@pytest.mark.parametrize("fn", [_two_bumps, _ripple], ids=["two-bumps", "ripple"])
@pytest.mark.parametrize("d", [1, 2, 8, 128, 1024])
def test_group_seeds_matches_per_pair_reference(fn, d):
    # Nearest-better indices, distances, verdicts, probe decisions and
    # labels equal bit for bit a per-pair loop that probes each segment,
    # then completes it; the seed count spans several distance blocks.
    p = CountingProblem(fn, box(d))
    n = 29
    seeds, seed_logl = _ranked_seeds(p, n, d)
    for lam_fine in (0.5, 3.0):
        near, dist = _nearest_better(seeds)
        (want_near, want_dist, want_concave, want_read, want_parabola, want_basin,
         want_flat, completed) = _group_seeds_reference(p, seeds, seed_logl, lam_fine)
        assert near.tobytes() == want_near.tobytes()
        assert dist.tobytes() == want_dist.tobytes()
        n_test = np.clip(np.ceil(2.0 * dist / lam_fine) - 1.0, 3, 64).astype(np.int64)
        concave, read, parabola, _ = _concave(p, seeds, seed_logl, near, n_test,
                                              np.zeros((0, d)))
        assert concave.tobytes() == want_concave.tobytes()
        assert read.tobytes() == want_read.tobytes()
        assert parabola.tobytes() == want_parabola.tobytes()
        calls = p.calls
        basin, read, parabolic, lead_vals = group_seeds(p, seeds, seed_logl, lam_fine)
        assert basin.tobytes() == want_basin.tobytes()
        assert read.tobytes() == want_read.tobytes()
        assert parabolic.tobytes() == want_flat.tobytes()
        # One call probes every segment, with the best seed's 2d gradient
        # probes riding along; a second, made only when some segment is
        # left undecided, completes them all.
        assert p.rows[calls:] == [3 * (n - 1) + 2 * d] + ([completed] if completed else [])
        assert (completed > 0) is (not read.all())
        want_lead = axis_values(p, seeds[:1], fd_steps(seeds[:1], lam_fine))
        assert lead_vals.tobytes() == want_lead.tobytes()


def test_group_seeds_sees_both_verdicts():
    # On two bumps in 2-d some segments cross the valley and some do not.
    p = Problem(_two_bumps, box(2))
    seeds, seed_logl = _ranked_seeds(p, 40, 5)
    near, dist = _nearest_better(seeds)
    n_test = np.clip(np.ceil(2.0 * dist / 0.5) - 1.0, 3, 64).astype(np.int64)
    concave, _, _, _ = _concave(p, seeds, seed_logl, near, n_test, np.zeros((0, 2)))
    assert concave.any() and not concave.all()
    assert group_seeds(p, seeds, seed_logl, 0.5)[0].max() >= 1


@pytest.mark.parametrize("n", [0, 1])
def test_group_seeds_spends_nothing_below_two_seeds(n):
    # No segment to probe: a lone seed's gradient probes are the call's
    # only rows, and no seed makes no call.
    p = CountingProblem(lambda x: -0.5 * np.sum(x * x, axis=1), box(3))
    seeds = np.zeros((n, 3))
    basin, read, parabolic, lead_vals = group_seeds(
        p, seeds, p.logl(seeds) if n else np.zeros(0), 0.5)
    assert basin.tolist() == [0] * n and read.size == 0
    assert parabolic.tolist() == [True] * n
    assert p.rows == [1, 6] * n  # the value call above, then the stencil
    assert lead_vals.shape == (n, 6)
    assert basin_leaders(basin, parabolic).tolist() == list(range(n))


def _dip(centre):
    """A concave parabola in x0 with a valley 0.02 wide at x0 = ``centre``."""

    def fn(x):
        return -0.5 * np.sum(x * x, axis=1) - 5.0 * np.exp(-((x[:, 0] - centre) / 0.02) ** 2)

    return fn


def _dip_segment(centre, lam_fine):
    """The two seeds x0 = 0 (best) and 1 on a dip, grouped at ``lam_fine``."""
    p = CountingProblem(_dip(centre), box(1))
    seeds = np.array([[0.0], [1.0]])
    seed_logl = p.logl(seeds)
    basin, read, _, _ = group_seeds(p, seeds, seed_logl, lam_fine)
    return p, seeds, seed_logl, basin, read


def test_valley_between_the_probe_points_is_read_as_concave():
    # The probe's blind spot: a valley narrower than a quarter of the
    # segment, centred between the probe points x0 = 0.25 and 0.5, leaves
    # the five probe values on a parabola to PARABOLA_TOL, so the segment
    # is read as concave and the seeds share a basin, although its
    # 64-point grid shows the valley.
    p, seeds, seed_logl, basin, read = _dip_segment(0.375, 0.02)
    assert read.tolist() == [True] and basin.tolist() == [0, 0]
    assert p.rows[1:] == [3 + 2]  # the probe, and the best seed's stencil
    t = np.arange(1, 65) / 65
    prof = np.concatenate([seed_logl[1:], p.logl(_points_along(seeds[1], seeds[0], t)),
                           seed_logl[:1]])
    assert np.any(prof[:-2] - 2.0 * prof[1:-1] + prof[2:] > 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_valley_between_the_probe_points_through_run(dim):
    # The blind spot through the pipeline. Past the dip at x0 = 0.375 sits
    # a shoulder, a local maximum at x0 = 0.432 (logl -0.095), which no
    # seed climbs to: run finds the origin alone, as it did when every
    # basin sent K_PER_BASIN seeds up.
    fn = _dip(0.375)
    x = np.zeros((3, dim))
    x[:, 0] = [0.4315, 0.4319, 0.4323]
    left, top, right = fn(x)
    assert top > max(left, right) and top > np.log(0.1)
    res = run(Problem(fn, box(dim)), preset_config("fast", seed=1))
    assert len(res.modes) == 1
    np.testing.assert_allclose(res.modes[0].peak.position, np.zeros(dim), atol=1e-6)


@pytest.mark.parametrize("lam_fine,completed", [(0.02, 64), (2.0 / 64, 60)],
                         ids=["m=64", "m=63"])
def test_valley_at_the_probe_is_completed_and_splits(lam_fine, completed):
    # A valley at the segment's midpoint shows at the probe: the segment is
    # completed on its grid, which splits the basin. At m = 63 the probe
    # points are grid points, so completion evaluates only the other 60.
    p, _, _, basin, read = _dip_segment(0.5, lam_fine)
    assert read.tolist() == [False] and basin.tolist() == [0, 1]
    assert p.rows[1:] == [3 + 2, completed]


@pytest.mark.parametrize("name", ["gaussian", "cigar"])
def test_gaussian_segments_are_read_in_one_call(name):
    # Along every segment of a Gaussian target the log-likelihood is a
    # concave parabola: the probe decides every segment, in one call that
    # also holds the best seed's gradient probes.
    active, seeds, seed_logl, lam_fine = _pipeline_seeds(name, 8)
    root = getattr(active, "parent", active)
    calls, evals = root.call_counter, root.eval_counter
    basin, read, parabolic, _ = group_seeds(active, seeds, seed_logl, lam_fine)
    assert read.all() and basin.tolist() == [0] * len(seeds)
    assert parabolic.tolist() == [True]
    assert root.call_counter == calls + 1
    assert root.eval_counter == evals + 3 * (len(seeds) - 1) + 2 * active.dim


def test_basin_leaders_keeps_the_best_of_each_basin():
    basin = np.array([0, 0, 1, 0, 0, 2, 1, 1, 1, 0, 2])
    parabolic = np.array([False, True, False])
    want = [i for i in range(basin.size)
            if np.sum(basin[:i] == basin[i]) < (1 if parabolic[basin[i]] else K_PER_BASIN)]
    assert basin_leaders(basin, parabolic).tolist() == want == [0, 1, 2, 3, 5, 10]


def _kinked(x):
    # -x^2 / 2, and concave but not a parabola past x0 = 1.
    return -0.5 * np.sum(x * x, axis=1) - np.maximum(x[:, 0] - 1.0, 0.0) ** 4


@pytest.mark.parametrize("lam_fine,read", [(0.02, False), (10.0, True)],
                         ids=["completed", "shortcut"])
def test_one_leader_only_for_a_basin_of_probe_read_parabolas(lam_fine, read):
    # Seeds 0, -0.5, 0.6 and -0.8 join one basin through segments whose
    # five probe points lie on a concave parabola, so its best seed alone
    # ascends, at any segment grid. A fifth seed at 1.5 joins through the
    # segment from 0.6, which crosses the kink: concave, but not a
    # parabola. Completed on its grid (lam_fine 0.02), or decided by the
    # three-point shortcut (lam_fine 10), it leaves the basin K_PER_BASIN
    # leaders.
    p = Problem(_kinked, box(1))
    seeds = np.array([[0.0], [-0.5], [0.6], [-0.8], [1.5]])
    seed_logl = p.logl(seeds)
    assert (np.diff(seed_logl) < 0).all()
    basin, _, parabolic, _ = group_seeds(p, seeds[:4], seed_logl[:4], lam_fine)
    assert basin.tolist() == [0] * 4 and parabolic.tolist() == [True]
    assert basin_leaders(basin, parabolic).tolist() == [0]
    basin, decided, parabolic, _ = group_seeds(p, seeds, seed_logl, lam_fine)
    assert basin.tolist() == [0] * 5 and parabolic.tolist() == [False]
    assert decided.tolist() == [True] * 3 + [read]
    assert basin_leaders(basin, parabolic).tolist() == list(range(K_PER_BASIN))


def _pipeline_bank(name, dim, seed=1):
    """The active subproblem, survey bank and scale estimate of ``run``."""
    problem = get_target(name, dim).problem
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])
    active = active_subproblem(problem, precheck(problem))
    bank = survey(active, rng)
    return active, bank, estimate_scales(bank, active.bounds)


def _pipeline_seeds(name, dim, seed=1):
    """The active subproblem, ranked seeds, values and scale ``select_seeds``
    gives on ``run``'s survey."""
    active, bank, est = _pipeline_bank(name, dim, seed)
    return (active, *select_seeds(bank, est.lam_fine, active.dim), est.lam_fine)


@pytest.mark.parametrize("name,dim", [("gaussian", 32), ("correlated", 16)])
def test_log_concave_seeds_collapse_to_one_basin(name, dim, monkeypatch):
    # Every segment of a Gaussian target is a concave parabola, so every
    # seed joins the best one's basin, which is parabolic: only the best
    # seed ascends. Every ray is one concave parabola too, so the pipeline
    # skips the grouping and takes that seed, at the same bits, alone.
    active, seeds, seed_logl, lam_fine = _pipeline_seeds(name, dim)
    basin, _, parabolic, _ = group_seeds(active, seeds, seed_logl, lam_fine)
    assert basin.tolist() == [0] * len(seeds) and parabolic.tolist() == [True]
    lone, lone_logl = lone_seed(_pipeline_bank(name, dim)[1])
    assert lone.tobytes() == seeds[:1].tobytes()
    assert lone_logl.tobytes() == seed_logl[:1].tobytes()
    rows = []
    ascent = laplev.discovery.run_batch

    def traced(problem, theta0, *args, **kwargs):
        rows.append(len(theta0))
        return ascent(problem, theta0, *args, **kwargs)

    monkeypatch.setattr(laplev.discovery, "run_batch", traced)
    res = run(get_target(name, dim).problem, preset_config("fast", seed=1))
    assert rows == [1]
    assert res.survey["seeds"] == res.survey["ascents"] == 1 < len(seeds)
    assert res.survey["one_seed_basins"] == 1


# Rays of a two-dimensional synthetic bank: along x0, along x1, a diagonal.
PROBE_RAYS = (Ray(RAY_W2W, np.array([-5.0, 0.5]), np.array([5.0, 0.5])),
              Ray(RAY_W2W, np.array([0.25, -5.0]), np.array([0.25, 5.0])),
              Ray(RAY_V2V, np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
K_PROBE = np.arange(N_PROBE, dtype=np.float64)
# Integer-valued probe profiles, so every second difference is exact.
CONCAVE = -(K_PROBE - 10.0) ** 2
CONVEX = (K_PROBE - 10.0) ** 2
LINEAR = 3.0 * K_PROBE


def _probe_bank(*profiles):
    """A bank whose rays were all read at the probe, with these probe values."""
    return _as_bank([_padded(ray, T_PROBE, v) for ray, v in zip(PROBE_RAYS, profiles)])


def test_lone_seed_is_select_seeds_first_on_concave_parabolas():
    # Rays 0 and 2 tie at the highest value: the first in sample order,
    # ray 0's, is the seed, at the bits select_seeds gives its first seed.
    bank = _probe_bank(CONCAVE, CONCAVE - 1.0, CONCAVE)
    assert bank.read.all()
    seeds, seed_logl = lone_seed(bank)
    first, first_logl = select_seeds(bank, lam_fine=0.1, dim=2)
    assert seeds.shape == (1, 2) and seed_logl.tolist() == [0.0]
    assert seeds.tobytes() == first[:1].tobytes()
    assert seed_logl.tobytes() == first_logl[:1].tobytes()
    ray = PROBE_RAYS[0]
    assert seeds[0].tobytes() == _points_along(ray.start, ray.end, T_PROBE[10]).tobytes()


@pytest.mark.parametrize("why", ["convex", "linear"])
def test_lone_seed_needs_every_probe_second_difference_negative(why):
    # Both rays are read at the probe: a convex parabola, and a line, whose
    # second differences are all 0 and which _parabolic accepts, keep the
    # grouping.
    profile = CONVEX if why == "convex" else LINEAR
    assert laplev.discovery._parabolic(profile[None])[0]
    bank = _probe_bank(CONCAVE, profile)
    assert bank.read.all() and lone_seed(bank) is None


@pytest.mark.parametrize("why", ["convex", "flat"])
def test_survey_goes_on_past_a_first_wave_read_but_not_concave(why):
    # Every ray of a convex bowl or of a flat likelihood is read at the
    # probe as a parabola, but its second differences are positive or 0:
    # the survey probes the other rays in a second call and holds every
    # ray, and lone_seed leaves the seeds to be picked and grouped.
    fn = {"convex": lambda x: 0.5 * np.sum(x * x, axis=1),
          "flat": lambda x: np.zeros(x.shape[0])}[why]
    p = CountingProblem(fn, box(2))
    bank = survey(p, np.random.default_rng(3))
    assert bank.read.all() and len(bank.kind) == bank.total == 44
    assert p.rows == [12 * N_PROBE, 32 * N_PROBE]
    assert not bank.concave and lone_seed(bank) is None


@pytest.mark.parametrize("why", ["completed", "dead"])
def test_lone_seed_needs_every_ray_read_at_the_probe(why):
    # A ray the probe did not read, whether completed on its grid as a
    # concave parabola or dead, keeps the grouping.
    ray = PROBE_RAYS[1]
    if why == "completed":
        other = _padded(ray, T0, -(T0 - 0.5) ** 2)
    else:
        other = RaySamples(ray, T0.copy(), np.full(N_COARSE, -np.inf), True)
    bank = _as_bank([_padded(PROBE_RAYS[0], T_PROBE, CONCAVE), other])
    assert bank.read.tolist() == [True, False]
    assert bank.dead.tolist() == [False, why == "dead"]
    assert lone_seed(bank) is None


def test_half_ripple_quadratic_still_groups():
    # The ripple on x0 > 0 keeps the rays that cross it from reading as a
    # parabola, so the survey's seeds are picked and grouped.
    p = Problem(_half_ripple, box(2))
    rng = np.random.default_rng(np.random.SeedSequence(1).spawn(4)[0])
    assert lone_seed(survey(p, rng)) is None
    res = run(Problem(_half_ripple, box(2)), preset_config("fast", seed=1))
    assert res.survey["rays_read"] < 44 and res.survey["seeds"] > 1
    assert res.survey["segments_read"] + res.survey["segments_completed"] > 0


@pytest.mark.parametrize("preset", ["fast", "slow"])
def test_mixture4_keeps_a_basin_per_mode(preset):
    # The valleys between mixture4's components keep its seeds in at least
    # four basins, and the leaders still climb to all four modes.
    active, seeds, seed_logl, lam_fine = _pipeline_seeds("mixture4", 16)
    assert group_seeds(active, seeds, seed_logl, lam_fine)[0].max() + 1 >= 4
    res = run(get_target("mixture4", 16).problem, preset_config(preset, seed=1))
    assert len(res.modes) == 4
    assert res.survey["ascents"] < res.survey["seeds"]


@pytest.mark.parametrize("preset", ["fast", "slow"])
@pytest.mark.parametrize("seed", [1, 2, 6, 8])
def test_eggbox_one_ascent_keeps_every_mode(preset, seed):
    # In its one ascent every eggbox basin's leaders must stick at its
    # peak, and the five Gaussian patches must give Z to 1%.
    # test_recall_over_forty_seeds checks the mode count alone, on seeds
    # 1-40.
    target = get_target("eggbox", 2)
    res = run(target.problem, preset_config(preset, seed=seed))
    assert len(res.modes) == 5
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-2


# ---------------------------------------------------------------- search


def run_discovery(p, rng_seed=0, n_steps=15):
    # Survey, seeds, basin leaders and search, as the pipeline runs them.
    rng = np.random.default_rng(rng_seed)
    bank = survey(p, rng)
    est = estimate_scales(bank, p.bounds)
    seeds, seed_logl = select_seeds(bank, est.lam_fine, p.dim)
    basin, _, parabolic, lead_vals = group_seeds(p, seeds, seed_logl, est.lam_fine)
    climb = basin_leaders(basin, parabolic)
    return discover_modes(p, seeds[climb], seed_logl[climb], lead_vals, est,
                          n_steps=n_steps)


def test_discover_single_gaussian_peak():
    p = gaussian_problem(2, mu=np.array([1.0, -2.0]))
    peaks = run_discovery(p)
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0].position, [1.0, -2.0], atol=1e-4)
    assert peaks[0].logl == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(peaks[0].hess_diag, [-1.0, -1.0], rtol=1e-6)


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("cigar", 8),
                                      ("rotated-cigar", 16)])
def test_held_peak_hess_diag_is_an_independent_second_difference(name, dim):
    # A held peak's diagonal is (f(x + eps) - 2 f(x) + f(x - eps)) / eps^2
    # at eps = fd_steps(x, lam_fine), bit for bit: the ascent's last
    # gradient already evaluated those points at that centre value.
    p = get_target(name, dim).problem
    rng = np.random.default_rng(1)
    bank = survey(p, rng)
    est = estimate_scales(bank, p.bounds)
    seeds, seed_logl = select_seeds(bank, est.lam_fine, p.dim)
    basin, _, parabolic, lead_vals = group_seeds(p, seeds, seed_logl, est.lam_fine)
    climb = basin_leaders(basin, parabolic)
    peaks = discover_modes(p, seeds[climb], seed_logl[climb], lead_vals, est, n_steps=15)
    assert peaks
    for pk in peaks:
        eps = fd_steps(pk.position, est.lam_fine)[0]
        assert pk.steps.tobytes() == eps.tobytes()
        want = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = eps[i]
            plus, minus = p.logl(np.stack([pk.position + e, pk.position - e]))
            want[i] = (plus - 2.0 * pk.logl + minus) / eps[i] ** 2
        assert pk.hess_diag.tobytes() == want.tobytes()


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
    peaks = run_discovery(p, n_steps=45)
    assert len(peaks) == 2
    xs = sorted(pk.position[0] for pk in peaks)
    assert xs[0] == pytest.approx(-2.5, abs=1e-3)
    assert xs[1] == pytest.approx(2.5, abs=1e-3)


def _side_peak(x):
    # Main peak at +2, a side peak 3 nats lower at -2: samples that climb
    # the side peak converge below the log 0.1 keep band and do not stick.
    a = -0.5 * np.sum((x - 2.0) ** 2, axis=1)
    b = -3.0 - 0.5 * np.sum((x + 2.0) ** 2, axis=1)
    return np.logaddexp(a, b)


def test_discover_drops_peak_below_keep_band():
    # Secondary basin 3 nats below the main one (under the log 0.1 floor):
    # it may attract samples but must never appear in the output.
    p = Problem(_side_peak, box(2, -4, 4))
    peaks = run_discovery(p, n_steps=45)
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
    # conservative's 45-step budget finds the one peak, as 15 steps do.
    p = gaussian_problem(2)
    peaks = run_discovery(p, n_steps=45)
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0].position, [0.0, 0.0], atol=1e-4)


def _all_seeds(p, rng):
    # Every seed select_seeds keeps, so several samples climb each peak.
    bank = survey(p, rng)
    est = estimate_scales(bank, p.bounds)
    seeds, seed_logl = select_seeds(bank, est.lam_fine, p.dim)
    return seeds, seed_logl, est


@pytest.mark.parametrize("n_steps", [15, 45])
def test_discover_runs_one_ascent_of_n_steps(n_steps, monkeypatch):
    # The search is one run_batch of n_steps steps over the seeds, and
    # nothing else is evaluated. The peaks are that ascent's samples that
    # converged within the keep band, deduplicated best first, as they
    # stand.
    p = CountingProblem(_side_peak, box(3, -4, 4))
    seeds, seed_logl, est = _all_seeds(p, np.random.default_rng(3))
    ascents = []
    ascent = laplev.discovery.run_batch

    def traced(problem, theta0, logl0, axis_vals0, iterations, tol, width):
        mark = p.eval_counter
        state = ascent(problem, theta0, logl0, axis_vals0, iterations, tol, width)
        ascents.append((np.array(theta0), iterations, tol, width, state,
                        p.eval_counter - mark))
        return state

    monkeypatch.setattr(laplev.discovery, "run_batch", traced)
    mark = p.eval_counter
    peaks = discover_modes(p, seeds, seed_logl, (), est, n_steps=n_steps)
    ((start, iterations, tol, width, state, evals),) = ascents
    assert iterations == n_steps
    assert (tol, width) == (STICK_GRAD, est.lam_fine)
    assert start.tobytes() == seeds.tobytes()
    assert evals == p.eval_counter - mark
    logl = state.logl
    held = np.where(np.isfinite(logl), logl, -np.inf)
    stuck = np.flatnonzero(state.converged(STICK_GRAD)
                           & (logl >= held.max() + np.log(KEEP_RATIO)))
    radius = DEDUP_WIDTH_FRACTION * float(np.mean(p.bounds.widths))
    kept = stuck[dedup_linf(state.theta[stuck], logl[stuck], radius)]
    # More samples stuck than were kept: the duplicates retired.
    assert stuck.size > kept.size == len(peaks) == 1
    hess, steps = state.hess_diag(kept)
    (peak,) = peaks
    assert peak.position.tobytes() == state.theta[kept[0]].tobytes()
    assert peak.logl == logl[kept[0]]
    assert peak.hess_diag.tobytes() == hess[0].tobytes()
    assert peak.steps.tobytes() == steps[0].tobytes()


def test_discover_all_stuck_makes_no_later_round():
    # On a unit Gaussian every sample sticks within 15 steps, and the
    # ascent ends once every row has stopped, so a 45-step budget makes
    # no further call and changes no peak.
    def once(n_steps):
        p = CountingProblem(lambda x: -0.5 * np.sum(x * x, axis=1), box(3))
        rng = np.random.default_rng(3)
        seeds, seed_logl, est = _all_seeds(p, rng)
        mark = (p.eval_counter, p.calls)
        peaks = discover_modes(p, seeds, seed_logl, (), est, n_steps=n_steps)
        return peaks, (p.eval_counter - mark[0], p.calls - mark[1])

    short, cost_short = once(15)
    long, cost_long = once(45)
    assert cost_long == cost_short
    assert len(long) == len(short) == 1
    for a, b in zip(short, long):
        assert a.position.tobytes() == b.position.tobytes()
        assert np.float64(a.logl).tobytes() == np.float64(b.logl).tobytes()
        assert a.hess_diag.tobytes() == b.hess_diag.tobytes()
        assert a.steps.tobytes() == b.steps.tobytes()


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("mixture4", 4), ("cigar", 8)])
def test_ascent_starts_from_the_grouping_values(name, dim):
    # The leaders start from their survey values and the best seed's
    # stencil from the grouping's call. The peaks equal, bit for bit, those
    # of an ascent from values measured again and no stencil, and the
    # ascent spends one stencil, 2d rows, less.
    active, seeds, seed_logl, lam_fine = _pipeline_seeds(name, dim)
    est = ScaleEstimate(lam_fine, False)
    basin, _, parabolic, lead_vals = group_seeds(active, seeds, seed_logl, lam_fine)
    climb = basin_leaders(basin, parabolic)
    root = getattr(active, "parent", active)

    def ascend(logl0, axis_vals0):
        mark = (root.call_counter, root.eval_counter)
        peaks = discover_modes(active, seeds[climb], logl0, axis_vals0, est, n_steps=15)
        return peaks, (root.call_counter - mark[0], root.eval_counter - mark[1])

    given, (calls, evals) = ascend(seed_logl[climb], lead_vals)
    fresh, (fresh_calls, fresh_evals) = ascend(active.logl(seeds[climb]), ())
    assert calls == fresh_calls - (climb.size == 1)
    assert evals == fresh_evals - 2 * active.dim
    assert len(given) == len(fresh) > 0
    for a, b in zip(given, fresh):
        assert a.position.tobytes() == b.position.tobytes()
        assert np.float64(a.logl).tobytes() == np.float64(b.logl).tobytes()
        assert a.hess_diag.tobytes() == b.hess_diag.tobytes()
