"""Mode discovery: ray survey, length-scale estimation, one batched ascent.

The search never trusts a single optimizer run. It first scans the box with
a family of line probes to learn where mass lives and how sharply the
log-likelihood bends there. That survey costs at most four batched
likelihood calls: one for the probe points of a first wave, a quarter of
each kind's rays; one for the other rays' probe points; a third for the
rest of the coarse grid of each ray the probe cannot read as a parabola;
and a fourth for the refill of each such ray whose whole coarse profile
is not a parabola either; reading the length scale and the seeds off it
costs none. The samples sit in one ``RayBank`` of arrays, one row per ray
and one row of samples per live ray, so the scale and the seeds are read
off every ray at once, in array operations. The length scale is the
smallest profile width the rays show at their best samples. When every
ray of the first wave is read at the probe and its probe values bend down
at every point, each is one concave parabola: the survey ends there, the
target is taken for one Gaussian-like peak, and the wave's best sample is
the one seed, with no grouping. A Gaussian target is a parabola along
every line, so its survey is one call of 22 points per first-wave ray. A
mode that no ray of the first wave crosses then goes unsought. Otherwise
the other rays are surveyed and the seeds are grouped into basins by a hill-valley test: a seed joins
the basin of its nearest better seed when the log-likelihood is concave on
the segment between them. The test costs at most two batched calls: one
probes every segment at three points, which read a segment whose values
lie on a concave parabola, and a second completes every other segment's
grid. The gradient stencil of the best seed, which always ascends, rides
in the probe call; a lone seed's stencil is that call's only rows, so a
Gaussian target starts its ascent in one call of 2d points. A basin
whose every segment read as a concave parabola sends its
best seed on alone; any other basin sends its best few. A valley narrower
than a quarter of a segment can hide between its probe points; that
segment reads as concave, so such a valley can cost a mode.
Then the basin leaders ascend once, in one batch of at most the preset's
step budget. The ascent starts from the leaders' survey values and the
best seed's stencil, so it spends one call on the other leaders' stencils
and none on a lone leader. A sample that converges onto a peak within the
keep band, a factor of the best value the ascent holds, sticks. A sample
still climbing retires once it sits on the Gaussian bowl of a converged
sample at least as high, since it would climb to that peak and be
deduplicated there; it costs no further evaluation. The stuck samples are
deduplicated, best first, and the survivors are the peaks (each one's
diagonal Hessian is read off the values its last gradient evaluated).
Everything is driven by one seeded generator and batched evaluator calls,
so a (seed, config) pair fixes the run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoModesFoundError
from .lbfgs import _row_dot, axis_points, fd_steps, run_batch
# Unused here: the benchmark tracer (perfbench/spans.py) wraps this name.
from .lbfgs import fd_gradient  # noqa: F401
from .linalg import dedup_linf
from .problem import BoundsBox

RAY_V2V = 0  # vertex to vertex
RAY_V2E = 1  # vertex to edge midpoint
RAY_W2W = 2  # wall to opposing wall, perpendicular
RAY_SUN = 3  # center outward to the boundary

KIND_NAMES = {RAY_V2V: "v2v", RAY_V2E: "v2e", RAY_W2W: "w2w", RAY_SUN: "sunburst"}

N_COARSE = 64  # coarse samples per survey ray, and as many refill samples
ACTIVE_DROP = 20.0  # nats below a ray's maximum that still count as mass
PARABOLA_TOL = 1e-8  # second-difference spread, relative, of a parabolic profile
PROBE_STEP = 3  # coarse-grid steps between two probe points, which can read a ray alone
N_PROBE = len(range(0, N_COARSE, PROBE_STEP))  # probe points per ray, both ends included
FIRST_WAVE_SHARE = 0.25  # share of each kind's rays probed first, which can end the survey
KEEP_RATIO = 0.1  # a peak sticks within this factor of the best value the ascent holds
DEDUP_WIDTH_FRACTION = 1e-3  # duplicate-peak radius, as a fraction of the mean box width
STICK_GRAD = 1e-6  # gradient sup-norm, per unit of max(1, |logl|), of a stuck sample
K_PER_BASIN = 3  # best seeds that ascend from a basin not read as a parabola
N_TEST_MIN = 3  # fewest interior points on a seed's concavity segment
N_TEST_MAX = 64  # most interior points on a seed's concavity segment
DIST_BLOCK = 8  # seeds whose nearest-better distances are taken together


def rays_per_kind(dim: int) -> int:
    return int(np.ceil(10.0 + np.log2(dim)))


def _points_along(start, end, t) -> np.ndarray:
    """``start + t (end - start)``, with a coordinate axis appended to ``t``.

    The one formula for positions on rays, so the survey and the seed picks
    agree bit for bit. The sum is built in place; addition commutes, so
    every point has the bits of ``start + t (end - start)``.
    """
    out = np.multiply(np.asarray(t, dtype=np.float64)[..., None], end - start)
    out += start
    return out


def _vertex_picks(rng, n, d) -> np.ndarray:
    """The n v2v vertex pairs, (n, 2, d) 0/1 rows, as the per-ray draws take them.

    The first 2n picks are drawn as one (2n, d) block. When no pair of the
    block repeats its start, the block is the pairs. Otherwise the pairs
    are walked in draw order: an end equal to its start is redrawn from the
    picks that follow, past the block one pick per call. The walk compares
    each pick as its 0/1 row packed to bits, as bytes, which is far faster
    than comparing the rows.
    """
    block = rng.integers(0, 2, size=(2 * n, d))
    pairs = block.reshape(n, 2, d)
    if not (pairs[:, 0] == pairs[:, 1]).all(axis=1).any():
        return pairs

    def picks():
        for row in np.packbits(block, axis=1):
            yield row.tobytes()
        while True:
            yield np.packbits(rng.integers(0, 2, size=d)).tobytes()

    stream = picks()
    drawn = []
    for _ in range(n):
        first, second = next(stream), next(stream)
        while second == first:
            second = next(stream)
        drawn += (first, second)
    bits = np.frombuffer(b"".join(drawn), dtype=np.uint8).reshape(2 * n, -1)
    return np.unpackbits(bits, axis=1, count=d).reshape(n, 2, d)


def random_directions(rng, n, d) -> np.ndarray:
    """n random unit directions, (n, d), as n draws of ``rng.standard_normal(d)`` take them.

    The rows come from one (n, d) block. A row too short to normalise is
    dropped, the rows after it move up and one more is drawn at the end, so
    the directions are the stream's usable rows in order and the generator
    is left where a loop that redraws each such row leaves it. Each norm is
    the ``sqrt`` of the row's ``_row_dot``, the bits ``np.linalg.norm``
    gives the row.
    """
    z = rng.standard_normal((n, d))
    nrm = np.sqrt(_row_dot(z, z))
    while not (nrm > 1e-12).all():
        more = rng.standard_normal((int(np.sum(nrm <= 1e-12)), d))
        z = np.concatenate([z[nrm > 1e-12], more])
        nrm = np.concatenate([nrm[nrm > 1e-12], np.sqrt(_row_dot(more, more))])
    return z / nrm[:, None]


def generate_rays(bounds: BoundsBox, rng):
    """Fixed-order ray family over the box; count scales as ceil(10+log2 d).

    Four kinds, equal quota each. One dimension has no edges distinct from
    its vertices, so there the edge-kind quota goes to extra sunburst rays
    and the total stays at four quotas. Returns ``(kind, start, end)``: the
    kind of every ray, and its end points as rows of two (n_rays, d) arrays.

    The draws follow ray order, as one generator call per vertex, edge
    pick, wall point and direction would take them, but each block of rays
    draws in one call: numpy's Generator returns the same numbers, and
    leaves the same state, for one (n, k) draw as for n draws of k. The
    v2v rays draw their 2n vertices as one block; only when some ray's end
    equals its start does ``_vertex_picks`` walk the redraws, one pick per
    call past the block. The wall rays draw one at a time, because each
    interleaves an integer draw with a float draw. The geometry that needs
    no draw (vertices, edge midpoints, wall points and ends and the
    sunburst exits) is computed for all rays at once afterwards.
    """
    d = bounds.dim
    lower, upper, c = bounds.lower, bounds.upper, bounds.center
    n = rays_per_kind(d)
    n_v2e = n if d > 1 else 0
    n_sun = n if d > 1 else 2 * n
    kind = np.repeat([RAY_V2V, RAY_V2E, RAY_W2W, RAY_SUN], [n, n_v2e, n, n_sun])
    start = np.empty((kind.size, d))
    end = np.empty((kind.size, d))
    n_vert = n + n_v2e
    # Vertex picks: 1 selects the upper bound of a coordinate, 0 the lower.
    # A v2v end equal to its start is redrawn from the vectors that follow.
    v_start = np.empty((n_vert, d), dtype=np.int64)
    v_end = np.empty((n_vert, d), dtype=np.int64)
    pairs = _vertex_picks(rng, n, d)
    v_start[:n], v_end[:n] = pairs[:, 0], pairs[:, 1]
    # Per v2e ray: its start vertex, the vertex of its edge, the edge axis.
    pick = rng.integers(0, np.r_[np.full(2 * d, 2), d], size=(n_v2e, 2 * d + 1))
    v_start[n:], v_end[n:], edge_axis = pick[:, :d], pick[:, d:-1], pick[:, -1]
    start[:n_vert] = np.where(v_start == 1, upper, lower)
    end[:n_vert] = np.where(v_end == 1, upper, lower)
    end[n + np.arange(n_v2e), edge_axis] = c[edge_axis]

    wall = np.arange(n_vert, n_vert + n)
    wall_axis = np.empty(n, dtype=np.int64)
    wall_u = np.empty((n, d))
    for j in range(n):
        wall_axis[j] = rng.integers(d)
        wall_u[j] = rng.random(d)
    # rng.uniform(lower, upper) draws lower + (upper - lower) * rng.random(d),
    # the same bits and generator state, but takes far longer per call.
    start[wall] = lower + (upper - lower) * wall_u
    end[wall] = start[wall]
    start[wall, wall_axis] = lower[wall_axis]
    end[wall, wall_axis] = upper[wall_axis]

    u = random_directions(rng, n_sun, d)
    with np.errstate(divide="ignore"):
        t_hi = np.where(u > 0, (upper - c) / u, np.inf)
        t_lo = np.where(u < 0, (lower - c) / u, np.inf)
    t_exit = np.min(np.minimum(t_hi, t_lo), axis=1, keepdims=True)
    start[-n_sun:] = c
    end[-n_sun:] = c + t_exit * u
    return kind, start, end


def _eval_rays(problem, start, end, t) -> np.ndarray:
    """Evaluate row k of ``t`` along ray k, ``start[k]`` to ``end[k]``, in one call."""
    pts = _points_along(start[:, None, :], end[:, None, :], t)
    return problem.logl(pts.reshape(-1, pts.shape[-1])).reshape(t.shape)


def _parabolic(v) -> np.ndarray:
    """Rows of ``v`` that are all finite and lie on a parabola.

    The values sit on a uniform grid, so a parabola has constant second
    differences: a row is parabolic when they agree to ``PARABOLA_TOL`` of
    the largest one.
    """
    whole = np.isfinite(v).all(axis=1)
    every = whole.all()
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.diff(v if every else v[whole], n=2, axis=1)
        spread = np.abs(d2 - d2.mean(axis=1, keepdims=True)).max(axis=1)
        # A spread that overflowed to NaN is not a parabola either.
        par = spread <= PARABOLA_TOL * np.abs(d2).max(axis=1)
    if every:
        return par
    out = np.zeros(v.shape[0], dtype=bool)
    out[whole] = par
    return out


def _refill_t(t0, v0, rng):
    """Mass-weighted refill positions for the rays the coarse pass cannot read.

    ``v0`` holds one ray's coarse values per row. Rows with no finite value
    are dead. A live row that is ``_parabolic`` draws nothing: the coarse
    grid already holds the whole profile. Every other live row draws
    ``rng.random(n_coarse)`` in row order, which is the same stream as one
    draw per refilled ray. Returns the live and refill masks over the rows
    and the refill t values, one row per refilled ray.
    """
    n_coarse = t0.size
    finite = np.isfinite(v0)
    live = finite.any(axis=1)
    refill = live & ~_parabolic(v0)
    if not refill.any():
        return live, refill, np.zeros((0, n_coarse))
    v0, finite = v0[refill], finite[refill]
    vmax = np.where(finite, v0, -np.inf).max(axis=1, keepdims=True)
    active = finite & (v0 > vmax - ACTIVE_DROP)
    edges = np.empty(n_coarse + 1)
    edges[0], edges[-1] = 0.0, 1.0
    edges[1:-1] = 0.5 * (t0[:-1] + t0[1:])
    cell_w = np.diff(edges)
    weights = np.where(active, np.exp(np.where(finite, v0, -np.inf) - vmax), 0.0) * cell_w
    cum = np.cumsum(weights, axis=1)
    targets = rng.random(cum.shape) * cum[:, -1:]
    # np.searchsorted has no row-wise form: one call per refilled ray, which
    # is faster than one broadcast count of cum <= x over all rows.
    cells = np.minimum(
        [np.searchsorted(c, x, side="right") for c, x in zip(cum, targets)],
        n_coarse - 1,
    )
    w = np.take_along_axis(weights, cells, axis=1)
    lo = np.take_along_axis(cum, cells, axis=1) - w
    frac = np.where(w > 0, (targets - lo) / w, 0.5)
    return live, refill, edges[cells] + frac * cell_w[cells]


@dataclass
class RayBank:
    """All ray samples from one survey, as arrays.

    ``kind``, ``start``, ``end``, ``index``, ``dead`` and ``read`` hold
    one row per ray the bank holds; ``index`` is the ray's place in the
    ``total`` rays generated, and ``read`` marks the rays read at the
    probe. ``t`` and ``logl`` hold one row per live ray, in ray order,
    sorted by t: the samples the ray took. A ray read at the probe holds
    its probe samples, a ray left unrefilled its coarse grid, and a
    refilled ray its coarse grid and refill. When every ray was read at the
    probe the rows are ``N_PROBE`` wide, the probe alone; otherwise they
    are ``2 * N_COARSE`` wide, and the places a ray did not take are
    padding, t = +inf and a NaN value, which sort last and which the scale
    reading and the seed picks skip as non-finite. A dead ray's coarse
    values are all non-finite, so no row is kept for it.

    ``concave`` marks a bank of the survey's first wave alone, every ray
    of which the probe read as one concave parabola (see ``survey``).
    """

    kind: np.ndarray
    start: np.ndarray
    end: np.ndarray
    dead: np.ndarray
    read: np.ndarray
    t: np.ndarray
    logl: np.ndarray
    index: np.ndarray
    total: int
    concave: bool

    def kind_counts(self) -> dict:
        """Ray count per kind name, in kind order."""
        counts = np.bincount(self.kind, minlength=len(KIND_NAMES))
        return {name: int(counts[k]) for k, name in KIND_NAMES.items()}

    def first_max(self):
        """``(row, sample)`` of the first maximum in sample order of a bank
        whose values are all finite, as a first-wave bank's are."""
        return divmod(int(np.argmax(self.logl)), self.logl.shape[1])

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.kind_counts().items())
        return (f"{self.kind.size} of {self.total} rays ({parts}), "
                f"{int(self.dead.sum())} dead")


def survey(problem, rng) -> RayBank:
    """Survey of the ``generate_rays`` family in at most four batched calls.

    Each ray's samples come from an inclusive uniform coarse grid of
    ``N_COARSE`` points in t. Values that are all finite with second
    differences agreeing to ``PARABOLA_TOL`` of the largest lie on a
    parabola, which they read exactly.

    - First wave: the first ``ceil(FIRST_WAVE_SHARE * n)`` of the n rays of
      each kind are evaluated at every ``PROBE_STEP``-th grid point, both
      ends included (22 of 64). When every one of them is a parabola whose
      second differences are all negative, the target reads as one concave
      parabola along every line, as a Gaussian does: the bank is those rays
      alone, with their probe samples, and the survey ends after this call.
      A linear ray, whose second differences are all 0, does not pass.
    - Probe: otherwise every other ray is evaluated at the same points. A
      ray whose probe values are a parabola is read: it keeps its probe
      samples only.
    - Completion: every other ray, including one with no finite probe
      value, is evaluated at its other grid points. A ray whose whole grid
      is non-finite is marked dead; one whose whole grid is a parabola
      keeps its coarse samples only.
    - Refill: on every other live ray, cells whose value sits within
      ``ACTIVE_DROP`` nats of the ray maximum form the active region; a
      pass of ``N_COARSE`` t values is drawn from the normalized
      piecewise-constant profile over those cells by inverse transform.

    Each pass is one likelihood call, skipped when it has no ray. A row's
    value does not depend on its batch, so the first wave and the probe
    together give every ray the values one probe call of the whole family
    gives, and a survey that does not end at its first wave holds the bank
    it would hold without it. Probe and completion together evaluate an
    unread ray on the whole coarse grid, so its samples and its refill
    draws do not depend on the probe. Every ray's samples in t order,
    padded to the bank's width, and the generator state afterwards equal
    bit for bit what surveying the rays one at a time with the same
    generator gives: the refill draws are the only generator use after the
    rays, and they are taken in ray order. Only a refilled row is sorted; a
    probe or coarse row is in t order as it is taken.

    The gates are blind to structure the grid aliases away: a ripple whose
    period divides the grid step on every ray reads as a parabola, and at
    the probe so does one whose period divides ``PROBE_STEP`` grid steps.
    A survey that ends at its first wave is also blind to a mode only the
    other rays cross.
    """
    return _sample_rays(problem, *generate_rays(problem.bounds, rng), rng)


def _first_wave(kind) -> np.ndarray:
    """Mask of the rays of the first wave: the first ``ceil(FIRST_WAVE_SHARE * n)``
    of the n rays of each kind, in ray order."""
    # A ray's rank in its kind: its place in the stable kind-sorted order
    # minus the place of its kind's first ray.
    order = np.argsort(kind, kind="stable")
    ranked = kind[order]
    rank = np.empty(kind.size, dtype=np.int64)
    rank[order] = np.arange(kind.size) - np.searchsorted(ranked, ranked)
    counts = np.bincount(kind, minlength=len(KIND_NAMES))
    return rank < np.ceil(FIRST_WAVE_SHARE * counts)[kind]


def _sample_rays(problem, kind, start, end, rng) -> RayBank:
    """First wave, probe, completion and refill passes; see ``survey``."""
    t0 = np.linspace(0.0, 1.0, N_COARSE)
    probe = slice(0, N_COARSE, PROBE_STEP)
    other = np.arange(N_COARSE) % PROBE_STEP != 0
    t_probe = np.tile(t0[probe], (kind.size, 1))
    first = _first_wave(kind)
    v_first = _eval_rays(problem, start[first], end[first], t_probe[first])
    if _parabolic(v_first).all() and (_second(v_first) < 0.0).all():
        n = v_first.shape[0]
        return RayBank(kind[first], start[first], end[first], np.zeros(n, dtype=bool),
                       np.ones(n, dtype=bool), t_probe[first], v_first,
                       np.flatnonzero(first), kind.size, True)
    v_probe = np.empty((kind.size, N_PROBE))
    v_probe[first] = v_first
    if not first.all():
        v_probe[~first] = _eval_rays(problem, start[~first], end[~first], t_probe[~first])
    read = _parabolic(v_probe)
    rest = np.flatnonzero(~read)
    index = np.arange(kind.size)
    if rest.size == 0:
        return RayBank(kind, start, end, ~read, read, t_probe, v_probe, index, kind.size, False)
    # Row k holds ray k's samples in t order; a sample not taken is
    # padding, t = +inf and a NaN value. A read row holds its probe and an
    # unread row its coarse grid, both in t order as taken; only a
    # refilled row, its coarse grid and then its refill, is sorted.
    t_all = np.full((kind.size, 2 * N_COARSE), np.inf)
    v_all = np.full((kind.size, 2 * N_COARSE), np.nan)
    t_all[read, :N_PROBE], v_all[read, :N_PROBE] = t0[probe], v_probe[read]
    v0 = np.empty((rest.size, N_COARSE))
    v0[:, probe] = v_probe[rest]
    v0[:, other] = _eval_rays(problem, start[rest], end[rest],
                              np.tile(t0[other], (rest.size, 1)))
    t_all[rest, :N_COARSE], v_all[rest, :N_COARSE] = t0, v0
    live = read.copy()
    live[rest], refill, t1 = _refill_t(t0, v0, rng)
    refilled = rest[refill]
    if refilled.size:
        t_ref = np.concatenate([t_all[refilled, :N_COARSE], t1], axis=1)
        v_ref = np.concatenate([v0[refill], _eval_rays(problem, start[refilled],
                                                       end[refilled], t1)], axis=1)
        order = np.argsort(t_ref, axis=1, kind="stable")
        t_all[refilled] = np.take_along_axis(t_ref, order, axis=1)
        v_all[refilled] = np.take_along_axis(v_ref, order, axis=1)
    return RayBank(kind, start, end, ~live, read, t_all[live], v_all[live], index,
                   kind.size, False)


@dataclass(frozen=True)
class ScaleEstimate:
    """The survey's length scale in parameter units, and whether it is a guess."""

    lam_fine: float
    fallback: bool


def estimate_scales(bank: RayBank, bounds: BoundsBox) -> ScaleEstimate:
    """The finest profile width any live ray shows at its best sample.

    Each live ray's curvature c at its best sample (its first maximum)
    gives a width 1/sqrt(-c): sigma along the ray for a Gaussian profile,
    at least the smallest sigma of a Gaussian mode for any ray direction.
    c is the three-point second difference with unequal arms a and b over
    the best sample and its stored neighbours, in arc length; this form
    cancels the first-derivative term a plain (v+ - 2v + v-)/h^2 leaks
    when the arms differ. A ray reads no width when its best sample is a
    ray end, a neighbour is not finite, an arm is empty or c is not
    negative. All live rays are read at once; the lanes that read no width
    are computed and then discarded.

    The scale is the smallest width read. No new evaluations are spent
    here. When no ray reads a width, the scale falls back to 1e-3 of the
    mean box width and the fallback flag is set.
    """
    live = ~bank.dead
    v = np.where(np.isfinite(bank.logl), bank.logl, -np.inf)
    n_live, m = v.shape
    rows = np.arange(n_live)
    i = np.argmax(v, axis=1)
    inner = (i > 0) & (i < m - 1)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, m - 1)
    v_lo, v_mid, v_hi = v[rows, lo], v[rows, i], v[rows, hi]
    diff = bank.end[live] - bank.start[live]
    length = np.sqrt(_row_dot(diff, diff))
    t = bank.t
    with np.errstate(all="ignore"):
        a = (t[rows, hi] - t[rows, i]) * length
        b = (t[rows, i] - t[rows, lo]) * length
        c = 2.0 * (b * v_hi - (a + b) * v_mid + a * v_lo) / (a * b * (a + b))
        readable = inner & np.isfinite(v_lo + v_hi) & (a > 0) & (b > 0) & (c < 0)
    if not readable.any():
        return ScaleEstimate(1e-3 * float(np.mean(bounds.widths)), True)
    return ScaleEstimate(float(np.min(1.0 / np.sqrt(-c[readable]))), False)


def select_seeds(bank: RayBank, lam_fine: float, dim: int):
    """Top ray samples by value, plus each ray's own champion.

    Global value ranking alone starves secondary basins in high dimension:
    a weak mode's best samples can all rank below the flank samples of a
    dominant mode. Every live ray therefore also contributes its single
    best sample, so any basin a ray grazes gets seeded no matter how it
    compares across basins. The union is thinned at the finest scale.
    The top q come from the flattened live arrays, ray by ray in t order,
    through one ``np.partition``: every sample above the q-th value, and
    of the samples equal to it the first ones in sample order.

    Returns ``(seeds, values)``: the seed positions ranked best first (ties
    in sample order) and their survey values, which ``group_seeds`` reads
    at no new evaluation. Thinning at ``lam_fine`` alone leaves one basin
    seeded many times over; ``group_seeds`` groups them.
    """
    q = max(32, 4 * rays_per_kind(dim))
    n_live, m = bank.logl.shape
    ray = np.repeat(np.flatnonzero(~bank.dead), m)
    t = bank.t.ravel()
    val = bank.logl.ravel()
    finite = np.isfinite(val)
    ray, t, val = ray[finite], t[finite], val[finite]
    if val.size == 0:
        return np.zeros((0, dim)), np.zeros(0)
    # The top q, ties in sample order: every sample above the q-th value,
    # then the first samples equal to it, the mask a stable sort gives.
    if val.size > q:
        kth = np.partition(val, val.size - q)[val.size - q]
        pick = val > kth
        tie = np.flatnonzero(val == kth)
        pick[tie[:q - np.count_nonzero(pick)]] = True
    else:
        pick = np.ones(val.size, dtype=bool)
    # Champion per ray: its first maximum. A row's argmax is a flat index
    # into the bank, which the running count of finite samples maps into
    # the finite samples; a row with no finite value has no champion.
    v = np.where(finite, bank.logl.ravel(), -np.inf).reshape(n_live, m)
    best = np.arange(n_live) * m + np.argmax(v, axis=1)
    pick[(np.cumsum(finite) - 1)[best[finite[best]]]] = True
    idx = np.flatnonzero(pick)
    # Positions of the picked samples only.
    pos = _points_along(bank.start[ray[idx]], bank.end[ray[idx]], t[idx])
    # dedup_linf keeps ascending indices, so ties stay in sample order.
    kept = dedup_linf(pos, val[idx], lam_fine)
    order = np.argsort(-val[idx[kept]], kind="stable")
    return pos[kept[order]], val[idx[kept[order]]]


def lone_seed(bank: RayBank):
    """The bank's best sample as the only seed, when every ray is one concave parabola.

    A Gaussian's log-likelihood is a parabola along every line. When the
    survey ended at its first wave (``bank.concave``), every ray it holds
    was read at the probe and bends down at every probe point, so the
    target reads as one such peak: ``group_seeds`` would find one parabolic
    basin, and only its best seed would climb. That seed is the bank's
    first maximum in sample order, ``select_seeds``' first seed, at the
    same bits. A bank of the whole family never reads so: its first wave
    failed the test, and the full bank holds those rays' probe values.

    Returns ``(seeds, values)`` as ``select_seeds`` does, one row each, or
    None when the seeds must be picked and grouped. The test is blind to a
    mode no ray of the first wave crosses, which a segment between two
    seeds could cross.
    """
    if not bank.concave:
        return None
    ray, j = bank.first_max()
    pos = _points_along(bank.start[ray:ray + 1], bank.end[ray:ray + 1], bank.t[ray, j:j + 1])
    return pos, bank.logl[ray, j:j + 1].copy()


def _nearest_better(seeds):
    """Index of, and distance to, the nearest seed ranked above each seed.

    For seeds 1..n-1 in rank order, the closest of the seeds before it in
    Euclidean distance (the first of them on a tie). Squared distances are
    elementwise sums over each pair's coordinate differences, the rounding
    of ``np.sum((a - b) ** 2)`` per pair, with no BLAS product. Seeds are
    taken ``DIST_BLOCK`` at a time against the seeds before them, in one
    buffer of ``DIST_BLOCK`` x n x d that every block reuses, as a
    contiguous array of its own shape: numpy sums a strided view slower.
    """
    n, d = seeds.shape
    near = np.empty(n - 1, dtype=np.int64)
    sq = np.empty(n - 1)
    buf = np.empty(min(DIST_BLOCK, n - 1) * (n - 1) * d)
    for lo in range(1, n, DIST_BLOCK):
        hi = min(lo + DIST_BLOCK, n)
        diff = buf[:(hi - lo) * (hi - 1) * d].reshape(hi - lo, hi - 1, d)
        np.subtract(seeds[None, :hi - 1], seeds[lo:hi, None], out=diff)
        np.multiply(diff, diff, out=diff)
        block = np.sum(diff, axis=2)
        rows = np.arange(lo, hi)
        block[np.arange(hi - 1) >= rows[:, None]] = np.inf
        near[lo - 1:hi - 1] = np.argmin(block, axis=1)
        sq[lo - 1:hi - 1] = block[rows - lo, near[lo - 1:hi - 1]]
    return near, np.sqrt(sq)


def _second(prof) -> np.ndarray:
    """Second differences ``a - 2b + c`` along each row of ``prof``."""
    with np.errstate(invalid="ignore"):
        return prof[:, :-2] - 2.0 * prof[:, 1:-1] + prof[:, 2:]


def _concave(problem, seeds, seed_logl, near, n_test, also):
    """Whether each seed's log-likelihood profile to its nearest better is concave.

    Seed i (1..n-1) is joined to ``seeds[near[i - 1]]`` by ``n_test[i - 1]``
    evenly spaced interior points. The profile (v_i, interior values, v_j)
    is concave when each of its second differences is <= 0; a non-finite
    value fails it. Two batched calls at most:

    - Probe: every segment is evaluated at t = 1/4, 1/2 and 3/4, which
      with the two seed values gives five uniform points. A segment whose
      grid is those three points (m = ``N_TEST_MIN``) is judged on them;
      any other segment is read as concave when its five points are
      ``_parabolic`` and none of their second differences is positive.
      The ``also`` rows (an (m, d) array) ride in this call, after the
      segments' points.
    - Completion: every segment the probe did not decide is evaluated on
      its grid, and judged on its whole profile. The probe points are on
      the grid when 4 divides m + 1, and are not evaluated again; any
      other completed segment pays m points after the probe's 3.

    Returns the verdicts, the mask of segments the probe decided, the mask
    of segments whose five points are a concave parabola and the values of
    the ``also`` rows.
    """
    n_pair = n_test.size
    ends = seeds[near]
    probe = _points_along(seeds[1:, None], ends[:, None], np.array([0.25, 0.5, 0.75]))
    values = problem.logl(np.concatenate([probe.reshape(3 * n_pair, -1), also]))
    five = np.empty((n_pair, 5))
    five[:, 0] = seed_logl[1:]
    five[:, 1:4] = values[:3 * n_pair].reshape(n_pair, 3)
    five[:, 4] = seed_logl[near]
    also_values = values[3 * n_pair:]
    down = np.all(_second(five) <= 0.0, axis=1)
    parabola = down & _parabolic(five)
    read = (n_test == N_TEST_MIN) | parabola
    concave = read & down
    rest = np.flatnonzero(~read)
    if rest.size == 0:
        return concave, read, parabola, also_values
    m = n_test[rest]
    # Row r is segment rest[r]'s profile (v_i, interior values, v_j),
    # zero-padded. Where 4 divides m + 1 the probe points are grid points
    # q, 2q and 3q, q = (m + 1) / 4, and only the others are evaluated;
    # elsewhere (q = m + 1, which no grid index reaches) the whole grid is.
    prof = np.zeros((rest.size, int(m.max()) + 2))
    rows = np.arange(rest.size)
    prof[:, 0] = five[rest, 0]
    prof[rows, m + 1] = five[rest, 4]
    on = (m + 1) % 4 == 0
    quarter = np.where(on, (m + 1) // 4, m + 1)
    prof[rows[on, None], quarter[on, None] * np.arange(1, 4)] = five[rest[on], 1:4]
    row = np.repeat(rows, m)
    k = np.arange(row.size) - (np.cumsum(m) - m)[row] + 1
    other = k % quarter[row] != 0
    row, k = row[other], k[other]
    seg = rest[row]
    prof[row, k] = problem.logl(_points_along(seeds[seg + 1], ends[seg], k / (m[row] + 1)))
    inside = np.arange(prof.shape[1] - 2) < m[:, None]
    concave[rest] = np.all(~inside | (_second(prof) <= 0.0), axis=1)
    return concave, read, parabola, also_values


def group_seeds(problem, seeds, seed_logl, lam_fine: float):
    """Basin label of every seed, by a line-concavity (hill-valley) test.

    ``seeds`` come ranked best first with their survey values ``seed_logl``,
    as ``select_seeds`` returns them. Seed i joins the basin of its nearest
    better seed j, the closest seed ranked above it, when the
    log-likelihood profile on the segment from i to j is concave: the
    segment gets m evenly spaced interior points, at most lam_fine / 2
    apart with ``N_TEST_MIN <= m <= N_TEST_MAX``, and every second
    difference of (v_i, interior values, v_j) is <= 0. Otherwise i starts
    a basin of its own. A log-concave target thus collapses to one basin,
    and any valley, shoulder or plateau on a segment keeps the two seeds
    apart. Basins are numbered in the order of their best seed.

    Along a segment of a Gaussian-class target the log-likelihood is a
    parabola, which five uniform points show. So one batched call probes
    every segment at t = 1/4, 1/2 and 3/4, and a segment whose five points
    lie on a concave parabola is read as concave; a second call completes
    every other segment's grid (see ``_concave``). The probe is blind to
    a valley narrower than a quarter of the segment whose five points
    still lie on a parabola to ``PARABOLA_TOL``: that segment reads as
    concave.

    The best seed leads basin 0, so it always ascends. The 2d
    ``axis_points`` of its gradient, at ``fd_steps(seeds[0], lam_fine)``,
    ride in the probe call, and the ascent starts from their values. With
    fewer than two seeds those rows are the call's only rows; with none
    no call is made.

    A basin is parabolic when every segment that joined a seed to it was
    read at the probe as a concave parabola; a segment decided by the
    ``N_TEST_MIN`` shortcut or completed on its grid is not. A basin of
    one seed is parabolic, having no segment.

    Returns the labels, the mask of segments the probe decided (one per
    seed after the first), the parabolic flag of every basin and the best
    seed's ``axis_values``, one (1, 2d) row (no row without a seed).
    """
    n, d = seeds.shape
    lead = axis_points(seeds[:1], fd_steps(seeds[:1], lam_fine))
    if n < 2:
        lead_vals = problem.logl(lead) if n else np.zeros(0)
        return (np.zeros(n, dtype=np.int64), np.zeros(0, dtype=bool),
                np.ones(n, dtype=bool), lead_vals.reshape(n, 2 * d))
    near, dist = _nearest_better(seeds)
    n_test = np.clip(np.ceil(2.0 * dist / lam_fine) - 1.0, N_TEST_MIN, N_TEST_MAX)
    concave, read, parabola, lead_vals = _concave(problem, seeds, seed_logl, near,
                                                  n_test.astype(np.int64), lead)
    # The walk reads Python lists: indexing numpy arrays once per seed
    # costs more than the labelling itself.
    labels, parabolic = [0], [True]
    for c, j, p in zip(concave.tolist(), near.tolist(), parabola.tolist()):
        if c:
            labels.append(labels[j])
            parabolic[labels[j]] &= p
        else:
            labels.append(len(parabolic))
            parabolic.append(True)
    return (np.array(labels, dtype=np.int64), read, np.array(parabolic),
            lead_vals.reshape(1, 2 * d))


def basin_leaders(basin, parabolic) -> np.ndarray:
    """Indices of the seeds that ascend, in seed order.

    A ``parabolic`` basin (see ``group_seeds``) is one Gaussian-like peak,
    so its best seed alone climbs; every other basin sends its first
    ``K_PER_BASIN`` seeds.
    """
    # A seed's rank in its basin: its place in the stable basin-sorted
    # order minus the place of its basin's first seed.
    order = np.argsort(basin, kind="stable")
    ranked = basin[order]
    rank = np.empty(basin.size, dtype=np.int64)
    rank[order] = np.arange(basin.size) - np.searchsorted(ranked, ranked)
    return np.flatnonzero(rank < np.where(parabolic[basin], 1, K_PER_BASIN))


@dataclass(frozen=True)
class Peak:
    """A mode from the search to its evidence.

    ``hess_diag`` is the diagonal second difference at ``position`` at the
    per-axis ``steps``. The search reads it off the values its last
    gradient evaluated, at ``fd_steps(position, lam_fine)``; refine
    replaces both where it measures the diagonal again.
    """

    position: np.ndarray
    logl: float
    hess_diag: np.ndarray
    steps: np.ndarray


class PeakList(list):
    """The peaks of one ascent, best first, and how many samples ``retired``.

    A list, so a caller that reads only the peaks reads them as before.
    """

    def __init__(self, peaks, retired):
        super().__init__(peaks)
        self.retired = retired


def discover_modes(problem, seeds, seed_logl, lead_vals, scales: ScaleEstimate, *,
                   n_steps: int) -> PeakList:
    """One batched ascent from ``seeds``; the samples that stick are the peaks.

    ``seeds`` is the starting population. The pipeline passes the basin
    leaders of ``basin_leaders``: the best seed of each basin
    ``group_seeds`` read as a parabola, and the best ``K_PER_BASIN`` seeds
    of every other basin; or the one seed of ``lone_seed``. So a Gaussian
    target climbs from one seed, not from every seed ``select_seeds``
    keeps.

    The ascent starts from what was measured already: ``seed_logl`` holds
    the seeds' survey values, and ``lead_vals`` the ``axis_values`` of the
    first seed (the best seed, which leads basin 0) that ``group_seeds``
    measured in its probe call, one (1, 2d) row. ``make_state`` measures
    the other seeds' gradient probes in one call, and evaluates again only
    a seed that ``bounds.clip`` moves, value and stencil; a lone leader
    inside the box starts with no call.

    The population ascends in one ``run_batch`` of at most ``n_steps``
    steps (the preset's budget), whose finite-difference gradients step at
    the survey's one length scale ``scales.lam_fine``. The ascent stops a
    sample at the one convergence rule it shares with the search,
    ``BatchState.converged(STICK_GRAD)``: a gradient sup-norm below
    ``STICK_GRAD * max(1, |logl|)``, so finite-difference noise at a large
    peak value does not hold it back. A sample that has not converged
    retires once it sits on the Gaussian bowl of a converged sample at
    least as high (``lbfgs._retire``): the diagonal quadratic read off that
    sample's last stencil predicts its value and gradient. A retired sample
    takes no further step and never sticks; it would have climbed to the
    converged sample's peak and been deduplicated there. A sample sticks
    when it converged onto a peak within a factor ``KEEP_RATIO`` of the
    best value the ascent holds. The stuck samples are deduplicated within
    ``DEDUP_WIDTH_FRACTION`` of the mean box width, best first, and the
    survivors are the peaks, best first, in a ``PeakList`` that also counts
    the ``retired`` samples. A peak keeps the position and value the ascent
    ended on; its diagonal Hessian is read off the values its last
    gradient evaluated, x +- eps_i e_i at eps = ``fd_steps(x, lam_fine)``,
    with no likelihood call (``BatchState.hess_diag``).

    Raises the no-modes error, carrying the ascent's best sample, if no
    sample sticks.
    """
    positions = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    if positions.shape[0] == 0:
        raise NoModesFoundError(None, -np.inf, "no seeds to start from")

    state = run_batch(problem, positions, seed_logl, lead_vals, n_steps, STICK_GRAD,
                      scales.lam_fine)
    logls = state.logl
    held = np.where(np.isfinite(logls), logls, -np.inf)
    best = int(np.argmax(held))
    floor = held[best] + np.log(KEEP_RATIO)
    stuck = np.flatnonzero(state.converged(STICK_GRAD) & (logls >= floor))
    if stuck.size == 0:
        best_pos = state.theta[best].copy() if held[best] > -np.inf else None
        raise NoModesFoundError(best_pos, float(held[best]),
                                f"no sample stuck after {n_steps} ascent steps")
    radius = DEDUP_WIDTH_FRACTION * float(np.mean(problem.bounds.widths))
    kept = stuck[dedup_linf(state.theta[stuck], logls[stuck], radius)]
    hess, steps = state.hess_diag(kept)
    peaks = [Peak(state.theta[i].copy(), float(logls[i]), h, eps)
             for i, h, eps in zip(kept, hess, steps)]
    peaks.sort(key=lambda p: -p.logl)
    return PeakList(peaks, int(state.retired.sum()))
