"""Mode discovery: ray survey, length-scale estimation, oscillating search.

The search never trusts a single optimizer run. It first scans the box with
a family of line probes to learn where mass lives and at what length scales
the log-likelihood bends. That survey costs two batched likelihood calls,
one for every ray's coarse grid and one for every live ray's refill; reading
scales and seeds off it costs none. Then it runs a stick/release cycle:
batches of seeds ascend until they stick to a peak, duplicates collapse,
freed slots reseed, and the survivors are shaken loose sideways and
downhill so the next ascent can only end somewhere new. Everything is
driven by one seeded generator and batched evaluator calls, so a (seed,
config) pair fixes the run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoModesFoundError
from .lbfgs import _row_dot, fd_gradient, run_batch
from .linalg import dedup_linf
from .problem import BoundsBox

RAY_V2V = 0  # vertex to vertex
RAY_V2E = 1  # vertex to edge midpoint
RAY_W2W = 2  # wall to opposing wall, perpendicular
RAY_SUN = 3  # center outward to the boundary

KIND_NAMES = {RAY_V2V: "v2v", RAY_V2E: "v2e", RAY_W2W: "w2w", RAY_SUN: "sunburst"}

N_COARSE = 64
ACTIVE_DROP = 20.0


def rays_per_kind(dim: int) -> int:
    return int(np.ceil(10.0 + np.log2(dim)))


@dataclass(frozen=True)
class Ray:
    kind: int
    start: np.ndarray
    end: np.ndarray


def _points_along(start, end, t) -> np.ndarray:
    """``start + t (end - start)``, with a coordinate axis appended to ``t``.

    The one formula for positions on rays, so the survey and the seed picks
    agree bit for bit.
    """
    return start + np.asarray(t, dtype=np.float64)[..., None] * (end - start)


@dataclass
class RaySamples:
    ray: Ray
    t: np.ndarray
    logl: np.ndarray
    tags: np.ndarray  # 0 = coarse pass, 1 = refined pass
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


def generate_rays(bounds: BoundsBox, rng) -> list[Ray]:
    """Fixed-order ray family over the box; count scales as ceil(10+log2 d).

    Four kinds, equal quota each. One dimension has no edges distinct from
    its vertices, so there the edge-kind quota goes to extra sunburst rays
    and the total stays at four quotas.
    """
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


def _eval_rays(problem, rays, t) -> np.ndarray:
    """Evaluate row k of ``t`` along ``rays[k]`` in one batched call."""
    start = np.array([r.start for r in rays])[:, None, :]
    end = np.array([r.end for r in rays])[:, None, :]
    pts = _points_along(start, end, t)
    return problem.logl(pts.reshape(-1, pts.shape[-1])).reshape(t.shape)


def _refill_t(t0, v0, rng, active_drop):
    """Mass-weighted refill positions for a stack of coarse passes.

    ``v0`` holds one ray's coarse values per row. Rows with no finite value
    are dead and draw nothing; every live row draws ``rng.random(n_coarse)``
    in row order, which is the same stream as one draw per ray. Returns the
    live-row mask and the refill t values, one row per live ray.
    """
    n_coarse = t0.size
    finite = np.isfinite(v0)
    live = finite.any(axis=1)
    if not live.any():
        return live, np.zeros((0, n_coarse))
    v0, finite = v0[live], finite[live]
    vmax = np.where(finite, v0, -np.inf).max(axis=1, keepdims=True)
    active = finite & (v0 > vmax - active_drop)
    edges = np.empty(n_coarse + 1)
    edges[0], edges[-1] = 0.0, 1.0
    edges[1:-1] = 0.5 * (t0[:-1] + t0[1:])
    cell_w = np.diff(edges)
    weights = np.where(active, np.exp(np.where(finite, v0, -np.inf) - vmax), 0.0) * cell_w
    cum = np.cumsum(weights, axis=1)
    targets = rng.random(cum.shape) * cum[:, -1:]
    # np.searchsorted has no row-wise form: one call per live ray.
    cells = np.minimum(
        [np.searchsorted(c, x, side="right") for c, x in zip(cum, targets)],
        n_coarse - 1,
    )
    w = np.take_along_axis(weights, cells, axis=1)
    lo = np.take_along_axis(cum, cells, axis=1) - w
    frac = np.where(w > 0, (targets - lo) / w, 0.5)
    return live, edges[cells] + frac * cell_w[cells]


def _sample_rays(problem, rays, rng, n_coarse, active_drop) -> list[RaySamples]:
    """Two-pass survey of ``rays`` in at most two batched likelihood calls.

    One call evaluates every ray's coarse grid; a second evaluates every
    live ray's refill and is skipped when all rays are dead.
    """
    t0 = np.linspace(0.0, 1.0, n_coarse)
    v0 = _eval_rays(problem, rays, np.broadcast_to(t0, (len(rays), n_coarse)))
    live, t1 = _refill_t(t0, v0, rng, active_drop)
    live_idx = np.flatnonzero(live)
    out = [RaySamples(ray, t0.copy(), v0[i], np.zeros(n_coarse, dtype=np.uint8), True)
           for i, ray in enumerate(rays)]
    if live_idx.size == 0:
        return out
    v1 = _eval_rays(problem, [rays[i] for i in live_idx], t1)

    t_all = np.concatenate([np.broadcast_to(t0, t1.shape), t1], axis=1)
    v_all = np.concatenate([v0[live], v1], axis=1)
    tags = np.concatenate(
        [np.zeros(t1.shape, dtype=np.uint8), np.ones(t1.shape, dtype=np.uint8)], axis=1
    )
    order = np.argsort(t_all, axis=1, kind="stable")
    t_all, v_all, tags = (np.take_along_axis(x, order, axis=1) for x in (t_all, v_all, tags))
    for k, i in enumerate(live_idx):
        out[i] = RaySamples(rays[i], t_all[k], v_all[k], tags[k], False)
    return out


@dataclass
class RayBank:
    """All ray samples from one survey."""

    rays: list = field(default_factory=list)

    def summary(self) -> str:
        counts = {name: 0 for name in KIND_NAMES.values()}
        for r in self.rays:
            counts[KIND_NAMES[r.ray.kind]] += 1
        dead = sum(r.dead for r in self.rays)
        parts = ", ".join(f"{k}={v}" for k, v in counts.items())
        return f"{len(self.rays)} rays ({parts}), {dead} dead"


def survey(problem, rng, n_coarse: int = N_COARSE,
           active_drop: float = ACTIVE_DROP) -> RayBank:
    """Two-pass survey of the ``generate_rays`` family in two batched calls.

    Each ray gets an inclusive uniform coarse grid in t. Cells whose value
    sits within ``active_drop`` nats of the ray maximum form the active
    region; a second pass of equal size draws t values from the normalized
    piecewise-constant profile over those cells by inverse transform. A ray
    whose coarse pass is entirely non-finite is marked dead and gets no
    second pass. One likelihood call evaluates every ray's coarse grid, a
    second every live ray's refill (skipped when every ray is dead). The
    bank equals, bit for bit, surveying the rays one at a time with the
    same generator: the refill draws are the only generator use after the
    rays, and they are taken in ray order.
    """
    return RayBank(_sample_rays(problem, generate_rays(problem.bounds, rng), rng,
                                n_coarse, active_drop))


@dataclass(frozen=True)
class ScaleEstimate:
    """Three characteristic lengths, finest first, in parameter units."""

    lam_fine: float
    lam_mid: float
    lam_coarse: float
    fallback: bool
    h: np.ndarray
    kappa: np.ndarray

    def as_tuple(self):
        return (self.lam_fine, self.lam_mid, self.lam_coarse)


def _profiles(bank: RayBank):
    """The usable rays' profiles as the rows of one padded array.

    A live ray with at least 8 finite values is usable. Its finite samples
    become arc lengths s = t * length, and a sample whose s does not exceed
    the previous one's is dropped. A row holds a -inf sentinel, the kept
    samples in order, then +inf padding. Returns those s rows, the matching
    log-likelihood rows (0 outside the samples) and the kept count per row.
    """
    live = [r for r in bank.rays if not r.dead]
    t = np.zeros((len(live), max((r.t.size for r in live), default=0)))
    v = np.full(t.shape, np.nan)
    for j, r in enumerate(live):
        t[j, :r.t.size] = r.t
        v[j, :r.t.size] = r.logl
    finite = np.isfinite(v)
    use = finite.sum(axis=1) >= 8
    if not use.any():
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=np.intp)
    t, v, finite = t[use], v[use], finite[use]
    chord = np.array([r.ray.end - r.ray.start for r, u in zip(live, use) if u])
    length = np.sqrt(_row_dot(chord, chord))  # np.linalg.norm, bit for bit
    row, col = np.nonzero(finite)  # each row's finite samples, in order
    s = t[row, col] * length[row]
    keep = np.r_[True, (row[1:] != row[:-1]) | (np.diff(s) > 0)]
    row, s, v = row[keep], s[keep], v[row, col][keep]
    n = np.bincount(row, minlength=length.size)
    s_pad = np.full((n.size, int(n.max()) + 2), np.inf)
    s_pad[:, 0] = -np.inf
    v_pad = np.zeros(s_pad.shape)
    slot = np.arange(row.size) - (np.cumsum(n) - n)[row] + 1
    s_pad[row, slot] = s
    v_pad[row, slot] = v
    return s_pad, v_pad, n


def _candidates(s_pad, n, hs, match_tol) -> np.ndarray:
    """(ray, h, column) cells of ``_profiles`` rows that may match.

    The necessary condition of ``estimate_scales``: h fits in half the
    ray's span, the larger of the sample's two gaps is at most
    1.01 (h + tol) and the shorter of its reaches to the ray's ends is at
    least 0.99 h - 1.01 tol. Sentinel and padding columns fail it.
    """
    first = s_pad[:, 1:2]
    last = s_pad[np.arange(n.size), n][:, None]
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        step = np.diff(s_pad, axis=1)
    gap = np.full(s_pad.shape, np.nan)
    gap[:, 1:-1] = np.maximum(step[:, :-1], step[:, 1:])
    reach = np.minimum(s_pad - first, last - s_pad)
    tol = match_tol * hs
    cand = gap[:, None, :] <= (1.01 * (hs + tol))[:, None]
    cand &= reach[:, None, :] >= (0.99 * hs - 1.01 * tol)[:, None]
    cand &= (hs <= (last - first) / 2.0)[:, :, None]
    return cand


def _nearest(s_pad, cut, targets) -> np.ndarray:
    """Flat index into ``s_pad`` of the sample nearest each target on its row.

    ``targets[cut[r]:cut[r + 1]]`` lie on row r; np.searchsorted has no
    row-wise form, so it runs once per row. pos is the first sample not
    below the target, and the nearest is pos or pos - 1, pos on a strict
    win. The sentinels take the place of clamping pos at the ends: an
    infinite distance never wins.
    """
    width = s_pad.shape[1]
    pos = np.empty(targets.size, dtype=np.intp)
    for r in np.flatnonzero(np.diff(cut)):
        lo, hi = cut[r], cut[r + 1]
        pos[lo:hi] = np.searchsorted(s_pad[r], targets[lo:hi]) + r * width
    s_flat = s_pad.ravel()
    return pos - (s_flat[pos] - targets >= targets - s_flat[pos - 1])


def _kappa_rays(s_pad, v_pad, n, hs, match_tol) -> np.ndarray:
    """Spikiest matched second difference, one row per ray, one column per h.

    The rows are ``_profiles`` rows. Only ``_candidates`` cells are
    evaluated, as flat arrays over all rays. NaN where h does not fit in
    half the ray's span or no sample matches.
    """
    n_rays, width = s_pad.shape
    n_h = hs.size
    cand = _candidates(s_pad, n, hs, match_tol)
    counts = cand.sum(axis=2).ravel()  # cells per (ray, h), in cell order
    cell = np.flatnonzero(cand)
    kappa = np.full(n_rays * n_h, np.nan)
    if cell.size == 0:
        return kappa.reshape(n_rays, n_h)

    q, col = np.divmod(cell, width)
    ix = q // n_h * width + col  # the cell's sample in s_pad.flat
    h = np.repeat(np.tile(hs, n_rays), counts)
    tol = np.repeat(np.tile(match_tol * hs, n_rays), counts)
    s_flat, v_flat = s_pad.ravel(), v_pad.ravel()
    s = s_flat[ix]
    cut = np.concatenate([[0], np.cumsum(counts)[n_h - 1::n_h]])  # cells by ray
    ip = _nearest(s_pad, cut, s + h)
    im = _nearest(s_pad, cut, s - h)
    a = s_flat[ip] - s  # actual forward offset
    b = s - s_flat[im]  # actual backward offset
    ok = (np.abs(a - h) <= tol) & (np.abs(b - h) <= tol) & (a > 0) & (b > 0)
    # Three-point second derivative with unequal arms; this form cancels
    # the first-derivative term that a plain (v+ - 2v + v-)/h^2 leaks when
    # the matched neighbors sit asymmetrically, which would otherwise fake
    # a curvature rise at small h. Unmatched entries get unit arms so they
    # stay finite; the mask drops them.
    aa = np.where(ok, a, 1.0)
    bb = np.where(ok, b, 1.0)
    second = 2.0 * np.abs(
        bb * v_flat[ip] - (aa + bb) * v_flat[ix] + aa * v_flat[im]
    ) / (aa * bb * (aa + bb))
    # Largest matched value per (ray, h); a matched value is never -inf,
    # so -inf marks an (ray, h) with no match, which stays NaN.
    live = counts > 0
    start = (np.cumsum(counts) - counts)[live]
    peak = np.maximum.reduceat(np.where(ok, second, -np.inf), start)
    kappa[live] = np.where(peak == -np.inf, np.nan, peak)
    return kappa.reshape(n_rays, n_h)


def estimate_scales(bank: RayBank, bounds: BoundsBox, n_h: int = 24,
                    match_tol: float = 0.3,
                    slope_threshold: float = -0.5) -> ScaleEstimate:
    """Read bending length scales off the stored ray profiles.

    For a grid of skip lengths h the spikiest second difference across all
    stored samples gives kappa(h), an upper curvature envelope. Structure
    finer than h averages out of the second difference, so kappa falls off
    steeply once h crosses a characteristic length; the h values at the
    three steepest drops of log kappa against log h are the scale triple.
    No new evaluations are spent here.

    Degenerate cases: constant curvature has no drop at all, so the single
    quadratic length 1/sqrt(kappa) stands in for all three (it equals sigma
    for a pure Gaussian profile); one or two drops are padded by repetition;
    a bank with no usable rays falls back to fixed fractions of the mean
    box width and sets the fallback flag.

    Sample i of a ray matches at h when the samples nearest to s[i] + h and
    s[i] - h sit at positive offsets a and b with |a - h| and |b - h| at
    most tol = match_tol * h. Only the cells (ray, h, i) that pass a
    necessary condition are evaluated, as flat arrays over all rays; on
    survey banks that is about a quarter of them. a > 0 puts the forward
    match at or beyond s[i+1] and at or before the ray's last sample, and
    rounded subtraction is monotone, so the gap s[i+1] - s[i] is at most a
    and the reach s[-1] - s[i] at least a. The same holds backward with b,
    the gap s[i] - s[i-1] and the reach s[i] - s[0]. A match therefore
    needs both gaps at most 1.01 (h + tol) and both reaches at least
    0.99 h - 1.01 tol: the match test rounds by a few ulps of h and tol,
    far inside that 1% slack. The filter drops only cells that cannot
    match, and the rest go through the same elementwise expressions as on
    the full (h, sample) grid, so kappa is the same bit for bit.
    """
    s_pad, v_pad, n = _profiles(bank)
    mean_width = float(np.mean(bounds.widths))
    if n.size == 0:
        return ScaleEstimate(1e-3 * mean_width, 1e-2 * mean_width, 1e-1 * mean_width,
                             True, np.zeros(0), np.zeros(0))

    spans = s_pad[np.arange(n.size), n] - s_pad[:, 1]
    with np.errstate(invalid="ignore"):
        step = np.diff(s_pad, axis=1)
    h_hi = float(spans.max()) / 2.0
    h_lo = max(float(step[np.isfinite(step)].min()), 1e-9 * h_hi)
    if h_lo >= h_hi:
        h_lo = h_hi / 1e3
    hs = np.geomspace(h_lo, h_hi, n_h)

    kappa_rays = _kappa_rays(s_pad, v_pad, n, hs, match_tol)
    # Slopes along one ray's own profile only: pooling first and
    # differentiating after would fake transitions wherever the set of rays
    # able to support a given h changes. Consecutive live entries of one
    # row are adjacent in the row-major nonzero order.
    rows, cols = np.nonzero(np.isfinite(kappa_rays) & (kappa_rays > 0))
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    lk = np.log(kappa_rays[rows, cols])
    lh = np.log(hs[cols])
    slopes = (lk[pair + 1] - lk[pair]) / (lh[pair + 1] - lh[pair])
    steep = slopes < slope_threshold
    h_mid = np.sqrt(hs[cols[pair[steep]]] * hs[cols[pair[steep] + 1]])
    # Three steepest drops, ties in (ray, h) order.
    found = sorted(h_mid[np.argsort(slopes[steep], kind="stable")[:3]].tolist())

    finite = np.isfinite(kappa_rays)
    kappa = np.where(finite, kappa_rays, -np.inf).max(axis=0)
    kappa[~finite.any(axis=0)] = np.nan

    if not found:
        if not np.isfinite(kappa).any() or np.nanmax(kappa) <= 0:
            return ScaleEstimate(1e-3 * mean_width, 1e-2 * mean_width,
                                 1e-1 * mean_width, True, hs, kappa)
        lam = 1.0 / float(np.sqrt(np.nanmax(kappa)))
        found = [lam]
    while len(found) < 3:
        found.append(found[-1])
    return ScaleEstimate(found[0], found[1], found[2], False, hs, kappa)


def select_seeds(bank: RayBank, lam_fine: float, dim: int):
    """Top ray samples by value, plus each ray's own champion.

    Global value ranking alone starves secondary basins in high dimension:
    a weak mode's best samples can all rank below the flank samples of a
    dominant mode. Every live ray therefore also contributes its single
    best sample, so any basin a ray grazes gets seeded no matter how it
    compares across basins. The union is thinned at the finest scale.
    """
    q = max(32, 4 * rays_per_kind(dim))
    live = [r for r in bank.rays if not r.dead]
    if not live:
        return np.zeros((0, dim))
    ray = np.repeat(np.arange(len(live)), [r.t.size for r in live])
    t = np.concatenate([r.t for r in live])
    val = np.concatenate([r.logl for r in live])
    finite = np.isfinite(val)
    ray, t, val = ray[finite], t[finite], val[finite]
    if val.size == 0:
        return np.zeros((0, dim))
    order = np.lexsort((np.arange(val.size), -val))
    pick = np.zeros(val.size, dtype=bool)
    pick[order[:q]] = True
    # Champion per ray: the first of its samples in (ray, -value, index)
    # order, which is the first maximum as argmax would pick it.
    by_ray = np.lexsort((-val, ray))
    pick[by_ray[np.r_[True, np.diff(ray[by_ray]) != 0]]] = True
    idx = np.flatnonzero(pick)
    # Positions of the picked samples only.
    start = np.array([r.ray.start for r in live])[ray[idx]]
    end = np.array([r.ray.end for r in live])[ray[idx]]
    pos = _points_along(start, end, t[idx])
    kept, _ = dedup_linf(pos, val[idx], lam_fine)
    kept = np.asarray(kept)
    order = np.lexsort((idx[kept], -val[idx[kept]]))
    return pos[kept[order]]


@dataclass(frozen=True)
class CoarsePeak:
    position: np.ndarray
    logl: float
    width: float
    grad_inf: float
    oscillation: int


def smoothed_gradient(problem, theta, sigma, k, rng, widths=None):
    """Average finite-difference gradient over a Gaussian position cloud.

    With sigma = 0 and k = 1 the cloud collapses onto the sample itself and
    this is exactly ``fd_gradient``.
    """
    th = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    n, d = th.shape
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (d,))
    z = rng.standard_normal((n, int(k), d))
    pts = th[:, None, :] + sig[None, None, :] * z
    g, _ = fd_gradient(problem, pts.reshape(n * int(k), d), widths)
    return g.reshape(n, int(k), d).mean(axis=1)


def _smoothed_ascent(problem, theta, lam_fine, n_cloud, k_smooth, rng):
    """Climb the noise-averaged gradient to hop over fine-scale ripple.

    Takes ``n_cloud`` steps of length ``lam_fine`` along the normalised
    smoothed gradient. Each step averages central-difference gradients (2d
    evaluations each) over a Gaussian cloud of
    ``k = min(k_smooth, max(1, 2 * k_smooth // d))`` points per sample, so
    a step costs at most ``max(4 * k_smooth, 2d)`` evaluations per sample
    at any d. At d <= 2 the cloud holds all ``k_smooth`` points.
    """
    th = np.array(theta, dtype=np.float64)
    if th.shape[0] == 0:
        return th
    k_smooth = int(k_smooth)
    k = min(k_smooth, max(1, 2 * k_smooth // th.shape[1]))
    sigma = th.std(axis=0)
    for _ in range(int(n_cloud)):
        g = smoothed_gradient(problem, th, sigma, k, rng, widths=lam_fine)
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
        step = np.where(nrm > 0, g / np.where(nrm > 0, nrm, 1.0), 0.0)
        th = problem.bounds.clip(th + lam_fine * step)
    return th


def _momentum_descent(problem, theta, lam_fine, n_steps, rng, momentum=0.9):
    """Push samples downhill with momentum so they leave the current basin."""
    th = np.array(theta, dtype=np.float64)
    if th.shape[0] == 0:
        return th
    v = np.zeros_like(th)
    alpha = 0.5 * lam_fine
    for _ in range(int(n_steps)):
        g, _ = fd_gradient(problem, th, widths=lam_fine)
        v = momentum * v - alpha * g
        th = problem.bounds.clip(th + v)
    return th


def _reseed_from_unconverged(rng, n_lost, unconverged, lam_mid, lam_coarse, bounds):
    """Refill lost slots by shooting outward from wandering samples."""
    out = np.empty((n_lost, bounds.dim))
    for i in range(n_lost):
        base = unconverged[int(rng.integers(unconverged.shape[0]))]
        while True:
            z = rng.standard_normal(bounds.dim)
            nrm = float(np.linalg.norm(z))
            if nrm > 1e-12:
                break
        dist = rng.uniform(lam_mid, lam_coarse)
        out[i] = base + (dist / nrm) * z
    return bounds.clip(out)


def _reseed_orthonormal(rng, n_lost, peaks, lam_coarse, bounds):
    """Refill lost slots on signed orthonormal spokes around known peaks."""
    d = bounds.dim
    r = min(d, n_lost)
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    n_peaks = peaks.shape[0]
    out = np.empty((n_lost, d))
    for i in range(n_lost):
        peak = peaks[i % n_peaks]
        spoke = (i // n_peaks) % (2 * r)
        sign = 1.0 if spoke % 2 == 0 else -1.0
        out[i] = peak + sign * lam_coarse * q[:, spoke // 2]
    return bounds.clip(out)


def discover_modes(problem, seeds, scales: ScaleEstimate, rng, *,
                   n_oscillations: int = 1, n_converge: int = 15,
                   n_anticonverge: int = 10, n_cloud: int = 5,
                   k_smooth: int = 8, stick_grad: float = 1e-6,
                   dedup_radius: float | None = None,
                   keep_ratio: float = 0.1) -> list[CoarsePeak]:
    """Stick/release search over a fixed population of samples.

    Each oscillation re-runs the ascent on every sample, sticks the ones
    that converged onto a peak within ``keep_ratio`` of the best value seen
    anywhere so far, collapses duplicate peaks, and (except on the last
    round) refills the freed slots and perturbs the rest: a smoothed-
    gradient climb first, then a momentum descent away from the basin.

    The climb takes ``n_cloud`` steps. ``k_smooth`` is its gradient cloud
    size at d <= 2; above that the cloud shrinks so that one step costs at
    most ``max(4 * k_smooth, 2d)`` evaluations per sample (see
    ``_smoothed_ascent``). The momentum descent takes ``n_anticonverge``
    steps of 2d evaluations each.

    Raises the no-modes error, carrying the best sample seen, if nothing
    ever sticks.
    """
    bounds = problem.bounds
    lam_fine, lam_mid, lam_coarse = scales.as_tuple()
    if dedup_radius is None:
        dedup_radius = 1e-3 * float(np.mean(bounds.widths))
    positions = bounds.clip(np.atleast_2d(np.asarray(seeds, dtype=np.float64)))
    if positions.shape[0] == 0:
        raise NoModesFoundError(None, -np.inf, "no seeds to start from")

    n = positions.shape[0]
    stuck = np.zeros(n, dtype=bool)
    stuck_osc = np.zeros(n, dtype=np.int64)
    widths = np.full(n, lam_fine)
    logls = np.full(n, -np.inf)
    grad_inf = np.full(n, np.inf)
    best_pos, best_logl = None, -np.inf
    golden_enabled = True
    prev_used_golden = False
    prev_peak_count = 0

    for osc in range(1, int(n_oscillations) + 1):
        state = run_batch(problem, positions, n_converge, stick_grad, widths=lam_fine)
        positions = state.theta
        logls = state.logl
        grad_inf = state.grad_inf()
        gamma = state.width_estimate()
        widths = np.where(np.isfinite(gamma) & (gamma > 0), np.sqrt(gamma), lam_fine)

        finite = np.isfinite(logls)
        if finite.any():
            i = int(np.argmax(np.where(finite, logls, -np.inf)))
            if logls[i] > best_logl:
                best_pos, best_logl = positions[i].copy(), float(logls[i])

        floor = problem.peak_logl + np.log(keep_ratio)
        stuck = (grad_inf < stick_grad) & finite & (logls >= floor)
        stuck_osc[stuck & (stuck_osc == 0)] = osc

        lost = np.zeros(0, dtype=np.intp)
        if stuck.any():
            sidx = np.flatnonzero(stuck)
            kept_local, _ = dedup_linf(positions[sidx], logls[sidx], dedup_radius)
            kept = sidx[np.asarray(kept_local)]
            lost = np.setdiff1d(sidx, kept)
            stuck[lost] = False

        n_peaks = int(stuck.sum())
        if prev_used_golden and n_peaks <= prev_peak_count:
            golden_enabled = False
        prev_used_golden = False
        prev_peak_count = n_peaks

        if osc == int(n_oscillations):
            break

        unstuck_idx = np.flatnonzero(~stuck)
        if lost.size:
            wanderers = np.setdiff1d(unstuck_idx, lost)
            if wanderers.size >= 5:
                positions[lost] = _reseed_from_unconverged(
                    rng, lost.size, positions[wanderers], lam_mid, lam_coarse, bounds
                )
            elif stuck.any() and golden_enabled:
                positions[lost] = _reseed_orthonormal(
                    rng, lost.size, positions[np.flatnonzero(stuck)], lam_coarse, bounds
                )
                prev_used_golden = True

        if unstuck_idx.size:
            moved = _smoothed_ascent(
                problem, positions[unstuck_idx], lam_fine, n_cloud, k_smooth, rng
            )
            moved = _momentum_descent(problem, moved, lam_fine, n_anticonverge, rng)
            positions[unstuck_idx] = moved

    if not stuck.any():
        raise NoModesFoundError(
            best_pos, best_logl,
            f"no sample stuck after {n_oscillations} oscillation(s)",
        )
    peaks = []
    for i in np.flatnonzero(stuck):
        peaks.append(CoarsePeak(
            position=positions[i].copy(),
            logl=float(logls[i]),
            width=float(widths[i]),
            grad_inf=float(grad_inf[i]),
            oscillation=int(stuck_osc[i]),
        ))
    peaks.sort(key=lambda p: -p.logl)
    return peaks
