"""Batched quasi-Newton ascent with finite-difference gradients.

Every sample in a batch carries its own limited-memory curvature history,
but all function evaluations across the batch are fused into shared calls:
one batch for the 2*N*d gradient probes, one batch per backtracking round
for the line-search candidates. The evaluator never sees a single-row call
unless only one sample is still searching.

Internally the math runs in minimization convention on f = -logl; the
public surface (gradients, monotonicity, convergence checks) speaks in
log-likelihood terms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HISTORY = 10
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACK = 20
CURVATURE_TOL = 1e-12
FD_WIDTH_FACTOR = 1e-3

_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def fd_steps(theta, widths=None) -> np.ndarray:
    """Per-coordinate central-difference offsets for positions ``theta``.

    The baseline sqrt(eps) * (1 + |theta|) step is the classic optimum for
    a unit-scale function. When the caller knows a length scale (a ray
    resolution during search, a mode width during polish) the step is kept
    at no less than a fixed fraction of it, because the subtraction noise
    floor grows with |logl| and a too-small step drowns the signal.
    """
    th = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    eps = _SQRT_EPS * (1.0 + np.abs(th))
    if widths is not None:
        w = np.broadcast_to(np.asarray(widths, dtype=np.float64), th.shape)
        eps = np.maximum(eps, FD_WIDTH_FACTOR * np.abs(w))
    return eps


def axis_values(problem, theta, eps) -> np.ndarray:
    """Log-likelihood at ``theta +- eps_i e_i`` for every row and axis.

    ``theta`` is (N, d) and ``eps`` broadcasts to it. All 2*N*d probes go
    out as one batch; returns (N, 2d) values, the +eps probes in the first
    d columns and the -eps probes in the last d.
    """
    n, d = theta.shape
    probes = np.repeat(theta[:, None, :], 2 * d, axis=1)
    idx = np.arange(d)
    rows = np.arange(n)[:, None]
    probes[rows, idx, idx] += eps
    probes[rows, d + idx, idx] -= eps
    return problem.logl(probes.reshape(n * 2 * d, d)).reshape(n, 2 * d)


def fd_gradient(problem, theta, widths=None):
    """Central-difference gradient of the log-likelihood, one fused batch.

    Returns ``(grad, bad)`` where ``grad`` is (N, d) and ``bad`` marks
    samples for which at least one coordinate produced a non-finite
    difference; those coordinates are zeroed rather than poisoning the
    whole direction.
    """
    th = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    n, d = th.shape
    if n == 0:
        return np.zeros((0, d)), np.zeros(0, dtype=bool)
    eps = fd_steps(th, widths)
    vals = axis_values(problem, th, eps)
    grad = (vals[:, :d] - vals[:, d:]) / (2.0 * eps)
    finite = np.isfinite(grad)
    bad = ~finite.all(axis=1)
    grad[~finite] = 0.0
    return grad, bad


def _two_loop(g_f, s_hist, y_hist) -> np.ndarray:
    """Descent direction for f from one sample's curvature pairs.

    ``s_hist``/``y_hist`` are chronological (oldest first); every stored
    pair already passed the positive-curvature gate. Empty history falls
    back to steepest descent.
    """
    if not s_hist:
        return -g_f
    k = len(s_hist)
    rho = np.empty(k)
    alpha = np.empty(k)
    q = g_f.copy()
    for j in range(k - 1, -1, -1):
        rho[j] = 1.0 / float(np.dot(s_hist[j], y_hist[j]))
        alpha[j] = rho[j] * float(np.dot(s_hist[j], q))
        q -= alpha[j] * y_hist[j]
    s_last, y_last = s_hist[-1], y_hist[-1]
    gamma = float(np.dot(s_last, y_last)) / float(np.dot(y_last, y_last))
    r = gamma * q
    for j in range(k):
        beta = rho[j] * float(np.dot(y_hist[j], r))
        r += s_hist[j] * (alpha[j] - beta)
    return -r


@dataclass
class BatchState:
    """Mutable per-batch optimizer state; one row per sample."""

    theta: np.ndarray
    logl: np.ndarray
    grad: np.ndarray
    frozen: np.ndarray
    gamma: np.ndarray
    s_ring: np.ndarray
    y_ring: np.ndarray
    pairs_total: np.ndarray
    bad_grad: np.ndarray
    widths: np.ndarray | None = None
    record: bool = False
    steps: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def grad_inf(self) -> np.ndarray:
        return np.max(np.abs(self.grad), axis=1)

    def width_estimate(self) -> np.ndarray:
        """Most recent curvature scale s.y/y.y per sample (variance units).

        NaN until a sample has accepted at least one curvature pair.
        """
        return self.gamma.copy()

    def freeze(self, mask) -> None:
        self.frozen |= np.asarray(mask, dtype=bool)

    def _history(self, i):
        memory = self.s_ring.shape[1]
        v = int(min(self.pairs_total[i], memory))
        base = int(self.pairs_total[i])
        s_hist, y_hist = [], []
        for j in range(v):
            slot = (base - v + j) % memory
            s_hist.append(self.s_ring[i, slot])
            y_hist.append(self.y_ring[i, slot])
        return s_hist, y_hist

    def _push_pair(self, i, s, y) -> None:
        sy = float(np.dot(s, y))
        gate = CURVATURE_TOL * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
        if not np.isfinite(sy) or sy <= gate:
            return
        slot = int(self.pairs_total[i]) % self.s_ring.shape[1]
        self.s_ring[i, slot] = s
        self.y_ring[i, slot] = y
        self.pairs_total[i] += 1
        self.gamma[i] = sy / float(np.dot(y, y))


def make_state(problem, theta0, widths=None, record=False,
               memory=HISTORY) -> BatchState:
    """Evaluate a starting batch and freeze rows that begin non-finite."""
    th = np.array(np.atleast_2d(theta0), dtype=np.float64)
    th = problem.bounds.clip(th)
    n, d = th.shape
    if widths is not None:
        widths = np.broadcast_to(
            np.asarray(widths, dtype=np.float64), th.shape
        ).copy()
    logl = problem.logl(th)
    frozen = ~np.isfinite(logl)
    grad = np.zeros((n, d))
    bad = np.zeros(n, dtype=bool)
    live = ~frozen
    if live.any():
        g, b = fd_gradient(problem, th[live],
                           None if widths is None else widths[live])
        grad[live] = g
        bad[live] = b
    return BatchState(
        theta=th,
        logl=logl,
        grad=grad,
        frozen=frozen,
        gamma=np.full(n, np.nan),
        s_ring=np.zeros((n, memory, d)),
        y_ring=np.zeros((n, memory, d)),
        pairs_total=np.zeros(n, dtype=np.int64),
        bad_grad=bad,
        widths=None if widths is None else np.asarray(widths, dtype=np.float64),
        record=record,
        steps=[[] for _ in range(n)],
    )


def step_batch(state: BatchState, problem) -> np.ndarray:
    """One quasi-Newton iteration over all unfrozen samples.

    Directions come from each sample's own history; the backtracking line
    search shares evaluator batches across samples round by round. Samples
    whose search exhausts its budget simply stay put. Returns the boolean
    mask of rows that moved.
    """
    moved = np.zeros(state.n, dtype=bool)
    active = np.flatnonzero(~state.frozen)
    if active.size == 0:
        return moved

    dirs = np.zeros((active.size, state.dim))
    slopes = np.zeros(active.size)
    searchable = np.zeros(active.size, dtype=bool)
    alpha = np.ones(active.size)
    for k, i in enumerate(active):
        g_f = -state.grad[i]
        s_hist, y_hist = state._history(i)
        d_k = _two_loop(g_f, s_hist, y_hist)
        m = float(np.dot(g_f, d_k))
        if not np.all(np.isfinite(d_k)) or m >= 0.0:
            d_k = -g_f
            m = -float(np.dot(g_f, g_f))
        nrm = float(np.linalg.norm(d_k))
        if m < 0.0 and nrm > 0.0 and np.isfinite(m):
            dirs[k] = d_k
            slopes[k] = m
            searchable[k] = True
            if not s_hist:
                # First step has no curvature scale yet; cap the raw
                # gradient step so a stiff direction cannot fling the
                # sample across the whole box before backtracking bites.
                alpha[k] = min(1.0, 1.0 / nrm)

    searching = np.flatnonzero(searchable)
    new_theta = state.theta.copy()
    new_logl = state.logl.copy()
    # Phase 0: first trial, fit a quadratic along the line and aim the next
    # probe at its maximizer (exact line search on locally quadratic peaks,
    # which lets the two-loop direction inherit conjugacy). Phase 1: probe
    # the fitted step, keep the better Armijo-passing candidate. Phase 2:
    # plain halving.
    phase = np.zeros(active.size, dtype=np.int8)
    alpha0 = alpha.copy()
    best_val = np.full(active.size, -np.inf)
    best_pos = np.zeros((active.size, state.dim))
    for _ in range(MAX_BACKTRACK):
        if searching.size == 0:
            break
        rows = active[searching]
        a = alpha[searching]
        raw = state.theta[rows] + a[:, None] * dirs[searching]
        cand = problem.bounds.clip(raw)
        vals = problem.logl(cand)
        displaced = np.any(cand != state.theta[rows], axis=1)
        unclipped = np.all(cand == raw, axis=1)
        ok = (
            displaced
            & np.isfinite(vals)
            & (vals >= state.logl[rows] - ARMIJO_C1 * a * slopes[searching])
            & (vals > state.logl[rows])
        )

        accept = np.zeros(searching.size, dtype=bool)
        for k in range(searching.size):
            j = searching[k]
            if phase[j] == 0:
                gain = float(vals[k] - state.logl[rows[k]])
                slope_up = -slopes[j]
                curv = 2.0 * (slope_up * a[k] - gain) / (a[k] * a[k])
                a_fit = slope_up / curv if curv > 0.0 else np.inf
                fit_ok = (
                    unclipped[k]
                    and np.isfinite(vals[k])
                    and np.isfinite(a_fit)
                    and 0.0 < a_fit <= 10.0 * a[k]
                    and abs(a_fit - a[k]) > 0.05 * a[k]
                )
                if ok[k]:
                    best_val[j] = vals[k]
                    best_pos[j] = cand[k]
                if fit_ok:
                    alpha[j] = a_fit
                    phase[j] = 1
                elif ok[k]:
                    accept[k] = True
                else:
                    alpha[j] *= BACKTRACK
                    phase[j] = 2
            elif phase[j] == 1:
                if ok[k] and vals[k] > best_val[j]:
                    best_val[j] = vals[k]
                    best_pos[j] = cand[k]
                if best_val[j] > -np.inf:
                    accept[k] = True
                else:
                    alpha[j] = BACKTRACK * min(a[k], alpha0[j])
                    phase[j] = 2
            else:
                if ok[k]:
                    best_val[j] = vals[k]
                    best_pos[j] = cand[k]
                    accept[k] = True
                else:
                    alpha[j] *= BACKTRACK

        hit = rows[accept]
        sel = searching[accept]
        new_theta[hit] = best_pos[sel]
        new_logl[hit] = best_val[sel]
        moved[hit] = True
        searching = searching[~accept]

    rows = np.flatnonzero(moved)
    if rows.size:
        sub_w = None if state.widths is None else state.widths[rows]
        g_new, bad = fd_gradient(problem, new_theta[rows], sub_w)
        for k, i in enumerate(rows):
            s = new_theta[i] - state.theta[i]
            y = state.grad[i] - g_new[k]
            state._push_pair(i, s, y)
            if state.record:
                state.steps[i].append(
                    (state.theta[i].copy(), state.grad[i].copy(), new_theta[i].copy())
                )
        state.theta[rows] = new_theta[rows]
        state.logl[rows] = new_logl[rows]
        state.grad[rows] = g_new
        state.bad_grad[rows] |= bad
    return moved


def run_batch(problem, theta0, iterations, tol, widths=None, record=False) -> BatchState:
    """Drive a batch for a fixed iteration budget with a gradient stop.

    A sample freezes once its gradient sup-norm drops below ``tol``; the
    loop ends early when every sample is frozen or nothing moved.
    """
    state = make_state(problem, theta0, widths=widths, record=record)
    for _ in range(int(iterations)):
        state.freeze(state.grad_inf() < tol)
        if state.frozen.all():
            break
        if not step_batch(state, problem).any():
            break
    return state
