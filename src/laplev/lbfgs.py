"""Batched quasi-Newton ascent with finite-difference gradients.

Every sample in a batch carries its own limited-memory curvature history,
but all function evaluations across the batch are fused into shared calls:
one batch per backtracking round for the line-search candidates, then one
for the 2*N*d gradient probes of the rows that moved. The evaluator never
sees a single-row call unless only one sample is still searching. The
optimizer's own math runs as array operations across the batch too: the
two-loop recursion steps over the ring buffers by pair age, the line-search
phases advance by masks, and the curvature pairs are gated and stored for
all moved rows at once. Row dot products go through ``_row_dot`` so every
row rounds exactly as a per-sample ``np.dot`` would.

A batch starts from values its caller already holds. The mode search passes
the survey's value at every start and the gradient probes of its first
start, which rode in the seed grouping's call; so the start costs one batch
for the other starts' 2*(N-1)*d gradient probes, and none for a lone start.

Each line search first fits a parabola through its first trial and takes
the fitted step at whatever length it asks for: on a quadratic peak that is
the exact line search, with which L-BFGS ends in at most d steps.

A sample is frozen once it has converged, its gradient sup-norm below
``tol * max(1, |logl|)``, the rule the mode search sticks a sample by. It
is frozen too once a step leaves it where it started: its position, value,
gradient and history are then unchanged, so every later step would replay
the same failed search. For an evaluator whose row values do not depend on
the batch, that freeze removes only evaluations that cannot change any row.
A sample retires (freezes without converging) once it sits on the Gaussian
bowl of a converged sample at least as high: the bowl's diagonal quadratic,
read off the second differences of the converged sample's last gradient
stencil, predicts the retiring sample's value and gradient to within
``RETIRE_TOL``. It would climb to that peak and add nothing there, so its
remaining steps are saved; the test reads only values the batch holds.

Internally the math runs in minimization convention on f = -logl; the
public surface (gradients, monotonicity, convergence checks) speaks in
log-likelihood terms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HISTORY = 10
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACK = 20
CURVATURE_TOL = 1e-12
FD_WIDTH_FACTOR = 1e-3
RETIRE_TOL = 1e-3  # relative misfit of a held peak's bowl that retires a sample

_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def fd_steps(theta, width) -> np.ndarray:
    """Per-coordinate central-difference offsets for positions ``theta``.

    The baseline sqrt(eps) * (1 + |theta|) step is the classic optimum for
    a unit-scale function. The step is kept at no less than
    ``FD_WIDTH_FACTOR`` times the length scale ``width`` (the survey's ray
    resolution, in the search), because the subtraction noise floor grows
    with |logl| and a too-small step drowns the signal. A zero ``width``
    leaves the baseline step as it is. Each step is rounded to one the
    float grid holds on both sides, ``theta +- eps`` exactly, so a
    difference quotient divides by the distance its points are apart: at
    the baseline step an unrounded offset is off by up to sqrt(eps)
    relative, which a second difference doubles.
    """
    th = np.abs(np.atleast_2d(np.asarray(theta, dtype=np.float64)))
    eps = np.maximum(_SQRT_EPS * (1.0 + th), FD_WIDTH_FACTOR * np.abs(width))
    # Rounded on the side away from zero, the coarser grid of the two.
    return (th + eps) - th


def axis_points(theta, eps) -> np.ndarray:
    """The rows ``theta +- eps_i e_i`` for every row of ``theta`` and axis.

    ``theta`` is (N, d) and ``eps`` broadcasts to it. Returns (N * 2d, d)
    rows, row by row of ``theta``: its d +eps rows, then its d -eps rows.
    """
    n, d = theta.shape
    probes = np.empty((n, 2, d, d))
    probes[...] = theta[:, None, None, :]
    # Probe k of a sign block moves axis k: the block's strided diagonal.
    diag = probes.reshape(n, 2, d * d)[:, :, ::d + 1]
    diag[:, 0] += eps
    diag[:, 1] -= eps
    return probes.reshape(n * 2 * d, d)


def axis_values(problem, theta, eps) -> np.ndarray:
    """Log-likelihood at the ``axis_points`` of ``theta``, in one batch.

    Returns (N, 2d) values, the +eps probes in the first d columns and the
    -eps probes in the last d.
    """
    n, d = theta.shape
    return problem.logl(axis_points(theta, eps)).reshape(n, 2 * d)


def central_gradient(vals, eps) -> np.ndarray:
    """Central differences of (N, 2d) ``axis_values`` taken at steps ``eps``.

    A coordinate whose difference is not finite is zeroed rather than
    poisoning the whole direction.
    """
    d = vals.shape[1] // 2
    grad = (vals[:, :d] - vals[:, d:]) / (2.0 * eps)
    grad[~np.isfinite(grad)] = 0.0
    return grad


def second_difference(vals, logl, eps) -> np.ndarray:
    """Diagonal second differences of (N, 2d) ``axis_values`` at steps ``eps``.

    (f(x + eps) - 2 f(x) + f(x - eps)) / eps^2 per axis, with ``logl`` the
    (N,) centre values f(x).
    """
    d = vals.shape[1] // 2
    return (vals[:, :d] - 2.0 * logl[:, None] + vals[:, d:]) / eps**2


def fd_gradient(problem, theta, width):
    """Central-difference gradient of the log-likelihood, one fused batch.

    Returns ``(grad, vals)``: the (N, d) ``central_gradient`` at steps
    ``fd_steps(theta, width)`` and the (N, 2d) ``axis_values`` it was read
    from.
    """
    th = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    eps = fd_steps(th, width)
    vals = axis_values(problem, th, eps)
    return central_gradient(vals, eps), vals


def _row_dot(a, b) -> np.ndarray:
    """Row-wise dot products of two (N, d) arrays, bit-equal to ``np.dot``."""
    # Not einsum: its row sums round differently from np.dot for d >= 2.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass
class BatchState:
    """Mutable per-batch optimizer state; one row per sample.

    ``s_ring``/``y_ring`` hold each row's most recent curvature pairs; the
    pair of age ``a`` (0 = newest) sits in slot
    ``(pairs_total - 1 - a) % HISTORY``. ``gamma`` is each row's most recent
    curvature scale s.y/y.y (variance units), NaN until the row has
    accepted a pair. ``width`` is the length scale of every gradient's
    finite-difference steps, and ``axis_vals`` holds the (N, 2d)
    ``axis_values`` each row's ``grad`` was read from (NaN on a row that
    began non-finite). ``retired`` marks the rows ``run_batch`` froze on a
    converged row's bowl.
    """

    theta: np.ndarray
    logl: np.ndarray
    grad: np.ndarray
    axis_vals: np.ndarray
    frozen: np.ndarray
    gamma: np.ndarray
    s_ring: np.ndarray
    y_ring: np.ndarray
    pairs_total: np.ndarray
    width: float
    retired: np.ndarray

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def grad_inf(self) -> np.ndarray:
        return np.max(np.abs(self.grad), axis=1)

    def converged(self, tol) -> np.ndarray:
        """Finite rows whose gradient sup-norm is below ``tol * max(1, |logl|)``.

        Relative above a unit value, so finite-difference noise at a large
        peak value does not hold a row back; a non-finite row, whose bound
        would be infinite or NaN, never converges.
        """
        return (np.isfinite(self.logl)
                & (self.grad_inf() < tol * np.maximum(1.0, np.abs(self.logl))))

    def hess_diag(self, rows):
        """Diagonal Hessian of ``rows`` from the values of their gradient.

        The ``second_difference`` of the values, the steps
        ``fd_steps(theta, width)`` and the centre value of the gradient each
        row holds; no likelihood call. ``rows`` indexes or masks the batch;
        returns ``(hess_diag, steps)``, a row for each.
        """
        eps = fd_steps(self.theta[rows], self.width)
        return second_difference(self.axis_vals[rows], self.logl[rows], eps), eps


def make_state(problem, theta0, logl0, axis_vals0, width) -> BatchState:
    """Start a batch from the values it was measured at; freeze non-finite rows.

    ``logl0`` holds the value at every row of ``theta0``, and ``axis_vals0``
    the ``axis_values`` of its first ``len(axis_vals0)`` rows, at steps
    ``fd_steps(theta0, width)``; the ascent's caller measured them already.
    A row that ``bounds.clip`` moves is measured again at its clipped
    position, value and stencil. A row that begins non-finite is frozen;
    every other row without a stencil gets one, all of them in one
    ``fd_gradient`` batch. So a batch whose rows are all given and inside
    the box makes no likelihood call. Every gradient is the
    ``central_gradient`` of its row's values.
    """
    raw = np.atleast_2d(np.asarray(theta0, dtype=np.float64))
    th = problem.bounds.clip(raw)
    n, d = th.shape
    moved = np.any(th != raw, axis=1)
    logl = np.array(logl0, dtype=np.float64).reshape(n)
    if moved.any():
        logl[moved] = problem.logl(th[moved])
    frozen = ~np.isfinite(logl)
    grad = np.zeros((n, d))
    vals = np.full((n, 2 * d), np.nan)
    given = len(axis_vals0)
    known = (np.arange(n) < given) & ~moved & ~frozen
    if known.any():
        vals[known] = np.asarray(axis_vals0, dtype=np.float64)[known[:given]]
        grad[known] = central_gradient(vals[known], fd_steps(th[known], width))
    fresh = ~known & ~frozen
    if fresh.any():
        grad[fresh], vals[fresh] = fd_gradient(problem, th[fresh], width)
    return BatchState(
        theta=th,
        logl=logl,
        grad=grad,
        axis_vals=vals,
        frozen=frozen,
        gamma=np.full(n, np.nan),
        s_ring=np.zeros((n, HISTORY, d)),
        y_ring=np.zeros((n, HISTORY, d)),
        pairs_total=np.zeros(n, dtype=np.int64),
        width=width,
        retired=np.zeros(n, dtype=bool),
    )


def _directions(state: BatchState, active):
    """Search directions for f = -logl at rows ``active``, all at once.

    Gathers each row's pairs once, in age order (newest first), and runs
    the two-loop recursion over them age by age; a row with no pair of some
    age keeps its ``q`` and ``r`` through that age, and a row with no pairs
    at all takes steepest descent. A non-finite or ascending direction
    falls back to steepest descent too. Returns
    ``(dirs, slopes, alpha, searchable)``: directions, directional
    derivatives of f, first trial steps and the mask of rows with a usable
    descent direction.
    """
    g_f = -state.grad[active]
    n, dim = g_f.shape
    memory = state.s_ring.shape[1]
    total = state.pairs_total[active]
    depth = np.minimum(total, memory)
    ages = int(depth.max())
    slots = (total[:, None] - 1 - np.arange(ages)) % memory
    s = state.s_ring[active[:, None], slots]
    y = state.y_ring[active[:, None], slots]
    # Ages every row has need no mask.
    shared = int(depth.min())
    has = [None if age < shared else (depth > age)[:, None] for age in range(ages)]
    with np.errstate(all="ignore"):
        rho = (1.0 / _row_dot(s.reshape(-1, dim), y.reshape(-1, dim))).reshape(n, ages)
        q = g_f.copy()
        coef = np.empty((n, ages))
        for age in range(ages):
            coef[:, age] = rho[:, age] * _row_dot(s[:, age], q)
            step = q - coef[:, age, None] * y[:, age]
            q = step if has[age] is None else np.where(has[age], step, q)
        # gamma is s.y/y.y of each row's newest pair.
        r = state.gamma[active][:, None] * q
        for age in reversed(range(ages)):
            beta = rho[:, age] * _row_dot(y[:, age], r)
            step = r + s[:, age] * (coef[:, age] - beta)[:, None]
            r = step if has[age] is None else np.where(has[age], step, r)
        fresh = depth == 0
        d = np.where(fresh[:, None], -g_f, -r)
        m = _row_dot(g_f, d)
        fallback = ~np.isfinite(d).all(axis=1) | (m >= 0.0)
        d = np.where(fallback[:, None], -g_f, d)
        m = np.where(fallback, -_row_dot(g_f, g_f), m)
        nrm = np.sqrt(_row_dot(d, d))
        searchable = (m < 0.0) & (nrm > 0.0) & np.isfinite(m)
        # First step has no curvature scale yet; cap the raw gradient step
        # so a stiff direction cannot fling the sample across the whole box
        # before backtracking bites.
        alpha = np.where(searchable & fresh, np.minimum(1.0, 1.0 / nrm), 1.0)
    return d, m, alpha, searchable


def _push_pairs(state: BatchState, rows, s, y) -> None:
    """Store the curvature pairs ``(s, y)`` of ``rows`` that pass the gate.

    A pair is kept when s.y is finite and above ``CURVATURE_TOL * |s| |y|``;
    it overwrites the row's oldest slot and sets its ``gamma``.
    """
    with np.errstate(all="ignore"):
        sy = _row_dot(s, y)
        yy = _row_dot(y, y)
        gate = CURVATURE_TOL * np.sqrt(_row_dot(s, s)) * np.sqrt(yy)
        keep = np.isfinite(sy) & ~(sy <= gate)
        gamma = sy[keep] / yy[keep]
    rows = rows[keep]
    slot = state.pairs_total[rows] % state.s_ring.shape[1]
    state.s_ring[rows, slot] = s[keep]
    state.y_ring[rows, slot] = y[keep]
    state.pairs_total[rows] += 1
    state.gamma[rows] = gamma


def step_batch(state: BatchState, problem) -> np.ndarray:
    """One quasi-Newton iteration over all unfrozen samples.

    Directions, line-search transitions and curvature-pair updates run as
    array operations across the batch; each sample still follows its own
    history and its own line search, and the searches share evaluator
    batches round by round. The line search fits a parabola along the line
    through its first trial and probes the parabola's maximizer at any
    length, the exact step on a quadratic peak. It keeps the better of the
    two candidates that pass the Armijo test, so a bad extrapolation costs
    one probe, and a fitted step past the largest float lands on the wall.
    A candidate the box clipped is held to the Armijo bound of the step it
    took, the gradient times ``cand - theta``.
    When no candidate passes, it halves. A sample leaves the search early
    once its candidate lands on its own position before any candidate was
    accepted: every later trial step is no longer, so it cannot leave
    either. Every sample that ends the step unmoved (no descent direction,
    a dropped or exhausted search) is frozen, since a replay from the same
    state would fail the same way. Returns the boolean mask of rows that
    moved.
    """
    moved = np.zeros(state.n, dtype=bool)
    active = np.flatnonzero(~state.frozen)
    if active.size == 0:
        return moved

    dirs, slopes, alpha, searchable = _directions(state, active)
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
        # A fitted step can reach past the largest float; the wall takes it.
        with np.errstate(over="ignore"):
            raw = state.theta[rows] + a[:, None] * dirs[searching]
        cand = problem.bounds.clip(raw)
        vals = problem.logl(cand)
        displaced = np.any(cand != state.theta[rows], axis=1)
        unclipped = np.all(cand == raw, axis=1)
        # The Armijo bound of a clipped candidate is the slope along the
        # step it actually took, cand - theta, not along the trial step.
        armijo = ARMIJO_C1 * a * slopes[searching]
        wall = np.flatnonzero(~unclipped)
        step = cand[wall] - state.theta[rows[wall]]
        armijo[wall] = -ARMIJO_C1 * _row_dot(state.grad[rows[wall]], step)
        ok = (
            displaced
            & np.isfinite(vals)
            & (vals >= state.logl[rows] - armijo)
            & (vals > state.logl[rows])
        )

        first = phase[searching] == 0
        fitted = phase[searching] == 1
        with np.errstate(all="ignore"):
            gain = vals - state.logl[rows]
            slope_up = -slopes[searching]
            curv = 2.0 * (slope_up * a - gain) / (a * a)
            a_fit = np.where(curv > 0.0, slope_up / curv, np.inf)
            fit_ok = (
                first
                & unclipped
                & np.isfinite(vals)
                & np.isfinite(a_fit)
                & (0.0 < a_fit)
                & (np.abs(a_fit - a) > 0.05 * a)
            )
        better = ok & (~fitted | (vals > best_val[searching]))
        best_val[searching[better]] = vals[better]
        best_pos[searching[better]] = cand[better]
        accept = (ok & ~fitted & ~fit_ok) | (fitted & (best_val[searching] > -np.inf))
        retreat = fitted & ~accept
        halve = ~ok & ~fitted & ~fit_ok
        alpha[searching[fit_ok]] = a_fit[fit_ok]
        alpha[searching[retreat]] = BACKTRACK * np.minimum(a, alpha0[searching])[retreat]
        alpha[searching[halve]] = a[halve] * BACKTRACK
        phase[searching[fit_ok]] = 1
        phase[searching[retreat | halve]] = 2

        hit = rows[accept]
        sel = searching[accept]
        new_theta[hit] = best_pos[sel]
        new_logl[hit] = best_val[sel]
        moved[hit] = True
        # A candidate that rounded or clipped back onto its own position,
        # with nothing accepted yet: no later trial step is longer than the
        # next one (only a phase-0 fit may aim longer, hence the alpha
        # check), so every later candidate lands there too and fails.
        stuck = (~displaced & (best_val[searching] == -np.inf)
                 & (alpha[searching] <= a))
        searching = searching[~(accept | stuck)]

    rows = np.flatnonzero(moved)
    if rows.size:
        g_new, state.axis_vals[rows] = fd_gradient(problem, new_theta[rows], state.width)
        end = new_theta[rows]
        _push_pairs(state, rows, end - state.theta[rows], state.grad[rows] - g_new)
        state.theta[rows] = end
        state.logl[rows] = new_logl[rows]
        state.grad[rows] = g_new
    state.frozen[active] |= ~moved[active]
    return moved


def _retire(state: BatchState, held) -> None:
    """Freeze every active row that sits on a ``held`` row's Gaussian bowl.

    A held row p is a converged row whose ``hess_diag`` h_p is finite and
    negative on every axis. An active row at x with value f <= f_p and
    gradient g sits on p's bowl when the diagonal quadratic
    m = f_p + 1/2 sum h_p (x - x_p)^2 explains it: |f - m| is at most
    ``RETIRE_TOL`` times the drop f_p - m, and g is within ``RETIRE_TOL``
    of the model gradient h_p (x - x_p) in sup-norm, relative to that
    gradient's sup-norm. Such a row is frozen and marked ``retired``.
    """
    held = np.flatnonzero(held)
    active = np.flatnonzero(~state.frozen)
    if held.size == 0 or active.size == 0:
        return
    with np.errstate(all="ignore"):
        h, _ = state.hess_diag(held)
        bowl = np.all(np.isfinite(h) & (h < 0.0), axis=1)
        held, h = held[bowl], h[bowl]
        # (active, held, d) offsets from each held peak and its model gradient.
        delta = state.theta[active, None, :] - state.theta[None, held, :]
        slope = h * delta
        drop = -0.5 * np.sum(slope * delta, axis=2)
        peak = state.logl[held]
        logl = state.logl[active, None]
        misfit = np.max(np.abs(state.grad[active, None, :] - slope), axis=2)
        on = ((logl <= peak)
              & (np.abs(logl - (peak - drop)) <= RETIRE_TOL * drop)
              & (misfit <= RETIRE_TOL * np.max(np.abs(slope), axis=2)))
    rows = active[on.any(axis=1)]
    state.frozen[rows] = True
    state.retired[rows] = True


def run_batch(problem, theta0, logl0, axis_vals0, iterations, tol, width) -> BatchState:
    """Drive a batch for a fixed iteration budget with a gradient stop.

    The batch starts from ``make_state(problem, theta0, logl0, axis_vals0,
    width)``. Before each step a sample freezes once it has
    ``converged(tol)``, its gradient sup-norm below
    ``tol * max(1, |logl|)``; then every other sample that sits on the
    Gaussian bowl of a converged sample at least as high retires
    (``_retire``): it freezes too, is marked ``retired`` and never counts
    as converged. A step that leaves a sample unmoved freezes it as well.
    The loop ends early when every sample is frozen. A lone sample never
    retires, so a one-row batch runs as if the rule were not there. Each
    sample keeps its ``HISTORY`` newest curvature pairs, and every gradient
    steps at ``fd_steps(theta, width)``.
    """
    state = make_state(problem, theta0, logl0, axis_vals0, width)
    for _ in range(int(iterations)):
        converged = state.converged(tol)
        state.frozen |= converged
        _retire(state, converged)
        if state.frozen.all():
            break
        step_batch(state, problem)
    return state
