import warnings

import numpy as np
import pytest

import laplev.lbfgs
from laplev.lbfgs import (
    ARMIJO_C1,
    BACKTRACK,
    CURVATURE_TOL,
    HISTORY,
    MAX_BACKTRACK,
    RETIRE_TOL,
    BatchState,
    _directions,
    _push_pairs,
    _retire,
    _row_dot,
    axis_values,
    central_gradient,
    fd_gradient,
    fd_steps,
    make_state,
    run_batch,
    step_batch,
)
from laplev.problem import BoundsBox, Problem


def fresh_state(problem, theta0, width):
    """``make_state`` with nothing measured yet: one call for the values,
    then one for every live row's gradient probes."""
    theta0 = np.atleast_2d(np.asarray(theta0, dtype=np.float64))
    return make_state(problem, theta0, problem.logl(theta0), (), width)


def fresh_run(problem, theta0, iterations, tol, width):
    """``run_batch`` from a ``fresh_state`` start."""
    theta0 = np.atleast_2d(np.asarray(theta0, dtype=np.float64))
    return run_batch(problem, theta0, problem.logl(theta0), (), iterations, tol, width)


def quad_problem(mu, a, lo=-10.0, hi=10.0):
    mu = np.asarray(mu, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)

    def fn(x):
        r = x - mu
        return -0.5 * np.einsum("ni,ij,nj->n", r, a, r)

    return Problem(fn, BoundsBox.cube(mu.size, lo, hi))


def _axis_values_reference(problem, theta, eps):
    """``axis_values`` as it was written with ``np.repeat`` and fancy-index adds."""
    n, d = theta.shape
    probes = np.repeat(theta[:, None, :], 2 * d, axis=1)
    idx = np.arange(d)
    rows = np.arange(n)[:, None]
    probes[rows, idx, idx] += eps
    probes[rows, d + idx, idx] -= eps
    return problem.logl(probes.reshape(n * 2 * d, d)).reshape(n, 2 * d)


class _Recorder(Problem):
    """A problem that keeps a copy of every batch of points it evaluates."""

    def __init__(self, d):
        w = np.linspace(0.3, 1.7, d)
        # Row by row, so a row's value is the same bits in any batch.
        super().__init__(lambda x: -np.sum(x * x * w, axis=1) + np.sin(x).sum(axis=1),
                         BoundsBox.cube(d, -10.0, 10.0))
        self.batches = []

    def logl(self, points):
        self.batches.append(np.array(points))
        return super().logl(points)


@pytest.mark.parametrize("d", [1, 2, 8, 128])
def test_axis_values_bitwise_equal_to_repeat_stencil(d):
    rng = np.random.default_rng(d)
    n = 7
    theta = rng.uniform(-5.0, 5.0, (n, d)) * 10.0 ** rng.uniform(-8, 2, (n, d))
    for eps in (1e-5, rng.uniform(1e-8, 1e-3, d), fd_steps(theta, 0.01),
                fd_steps(theta, 0.0)):
        got_p, want_p = _Recorder(d), _Recorder(d)
        got = axis_values(got_p, theta, eps)
        want = _axis_values_reference(want_p, theta, eps)
        assert got.shape == want.shape == (n, 2 * d)
        assert got.tobytes() == want.tobytes()
        assert got_p.batches[0].tobytes() == want_p.batches[0].tobytes()


def test_fd_steps_floor_and_width_hint():
    th = np.array([[0.0, 1e5]])
    eps = fd_steps(th, 0.0)
    base = np.sqrt(np.finfo(float).eps)
    np.testing.assert_allclose(eps, [[base, base * 100001.0]], rtol=1e-12)
    # The width floor lifts the small step and leaves the larger one.
    eps_w = fd_steps(th, 1.0)
    assert eps_w[0, 0] == pytest.approx(1e-3)
    assert eps_w[0, 1] == eps[0, 1] > 1e-3
    assert fd_steps(th, 1e6)[0].tolist() == [1e3, 1e3]


def test_fd_steps_scalar_width_matches_broadcast_widths():
    # One scalar length scale gives the bits a per-row copy of it gave, and
    # a zero width gives the bits of the baseline step alone, each rounded
    # to the step |theta| + eps actually takes.
    rng = np.random.default_rng(2)
    th = rng.uniform(-5.0, 5.0, (9, 4)) * 10.0 ** rng.uniform(-8, 4, (9, 4))
    base = np.sqrt(np.finfo(np.float64).eps) * (1.0 + np.abs(th))
    a = np.abs(th)
    assert fd_steps(th, 0.0).tobytes() == ((a + base) - a).tobytes()
    for w in (1e-9, 0.01, 3.7, 1e6):
        wide = np.maximum(base, 1e-3 * np.abs(np.full(th.shape, w)))
        assert fd_steps(th, w).tobytes() == ((a + wide) - a).tobytes()
        assert fd_steps(th, np.full(th.shape, w)).tobytes() == fd_steps(th, w).tobytes()


def test_fd_steps_are_the_offsets_the_probes_take():
    # Every probe theta +- eps lies exactly eps from theta, so a difference
    # quotient divides by the distance its points are apart.
    rng = np.random.default_rng(5)
    th = rng.uniform(-5.0, 5.0, (50, 6)) * 10.0 ** rng.uniform(-3, 3, (50, 6))
    for w in (0.0, 1e-5, 0.3):
        eps = fd_steps(th, w)
        assert np.array_equal((th + eps) - th, eps)
        assert np.array_equal(th - (th - eps), eps)


def test_fd_gradient_quartic_oracle():
    p = Problem(lambda x: np.sum(x**4, axis=1), BoundsBox.cube(3, -5, 5))
    rng = np.random.default_rng(7)
    th = rng.uniform(-2, 2, size=(100, 3))
    g, _ = fd_gradient(p, th, 0.0)
    np.testing.assert_allclose(g, 4 * th**3, rtol=1e-6, atol=1e-7)
    assert p.eval_counter == 100 * 2 * 3


def test_fd_gradient_single_fused_batch():
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -np.sum(x * x, axis=1)

    p = Problem(fn, BoundsBox.cube(4, -3, 3))
    fd_gradient(p, np.zeros((6, 4)), 0.0)
    assert batches == [6 * 8]


def test_fd_gradient_nonfinite_zeroed():
    def fn(x):
        out = -np.sum(x * x, axis=1)
        out[x[:, 0] > 1.0] = np.nan
        return out

    p = Problem(fn, BoundsBox.cube(2, -3, 3))
    g, vals = fd_gradient(p, np.array([[1.0, 0.5], [0.0, 0.0]]), 0.5)
    assert np.isnan(vals[0, 0]) and np.isfinite(vals[1]).all()
    assert g[0, 0] == 0.0
    assert g[0, 1] == pytest.approx(-1.0, rel=1e-6)
    assert np.isfinite(g).all()


def _direction(grad, s_hist=(), y_hist=()):
    """Batched direction for one sample whose pairs are pushed in order."""
    g = np.asarray(grad, dtype=np.float64)
    state = fresh_state(quad_problem(np.zeros(g.size), np.eye(g.size)),
                       np.zeros((1, g.size)), 0.0)
    state.grad[0] = g
    for s, y in zip(s_hist, y_hist):
        _push_pairs(state, np.array([0]), s[None, :], y[None, :])
    return _directions(state, np.array([0]))[0][0]


def test_two_loop_empty_history_is_steepest_descent():
    g = np.array([3.0, -1.0])
    # g is the gradient of f = -logl, so the state holds -g.
    np.testing.assert_array_equal(_direction(-g), -g)


def test_two_loop_recovers_newton_step_on_quadratic():
    # For f = x^2/16 (logl = -x^2/16) one curvature pair already encodes the
    # Hessian exactly, so the two-loop direction equals -H^{-1} g.
    s = [np.array([0.5])]
    y = [np.array([0.0625])]  # y = H s with H = 1/8
    g = np.array([0.25])
    d = _direction(-g, s, y)
    np.testing.assert_allclose(d, [-2.0], rtol=1e-14)


def _tilted(d):
    """A correlated quadratic off the origin, whose rows do not depend on the batch."""
    a = np.eye(d) + 0.25
    return quad_problem(np.linspace(-1.0, 1.0, d), a)


def test_make_state_starts_from_the_values_it_is_given():
    # The first row's value and stencil are given, so the start measures
    # only the other rows' gradient probes, in one call; the state is the
    # one measured from nothing, bit for bit.
    theta0 = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5], [-2.0, 1.0, 0.25]])
    ref = fresh_state(_tilted(3), theta0, 0.05)
    p = _tilted(3)
    state = make_state(p, theta0, ref.logl, ref.axis_vals[:1], 0.05)
    assert (p.call_counter, p.eval_counter) == (1, 2 * 2 * 3)
    assert _state_bytes(state) == _state_bytes(ref)
    np.testing.assert_array_equal(
        state.grad[:1], central_gradient(ref.axis_vals[:1], fd_steps(theta0[:1], 0.05)))
    # Every row given: no call at all.
    p = _tilted(3)
    state = make_state(p, theta0, ref.logl, ref.axis_vals, 0.05)
    assert p.call_counter == 0 and _state_bytes(state) == _state_bytes(ref)


def test_make_state_measures_a_clipped_row_again():
    # A start one ulp past the wall, as rounding can leave a ray's end, is
    # clipped onto it. The value and stencil it was given belong to the
    # unclipped point, so both are measured again at the clipped one: its
    # value in a call of its own, its stencil with the other row's.
    theta0 = np.array([[np.nextafter(10.0, np.inf), 0.5], [1.0, -1.0]])
    clipped = np.array([[10.0, 0.5], [1.0, -1.0]])
    p = _tilted(2)
    given = p.logl(theta0)
    stencil = axis_values(p, theta0[:1], fd_steps(theta0[:1], 0.1))
    mark = (p.call_counter, p.eval_counter)
    state = make_state(p, theta0, given, stencil, 0.1)
    assert (p.call_counter - mark[0], p.eval_counter - mark[1]) == (2, 1 + 2 * 2 * 2)
    assert _state_bytes(state) == _state_bytes(fresh_state(_tilted(2), clipped, 0.1))
    assert state.logl[0] != given[0]


def test_gamma_is_inverse_curvature():
    p = quad_problem([0.0], [[0.25]])
    state = fresh_state(p, [[1.0]], 0.0)
    step_batch(state, p)
    assert state.gamma[0] == pytest.approx(4.0, rel=1e-6)


def test_batch_converges_on_shifted_anisotropic_quadratic():
    mu = np.array([1.5, -2.0, 0.25, 3.0])
    a = np.diag([1.0, 4.0, 0.5, 9.0])
    p = quad_problem(mu, a)
    rng = np.random.default_rng(3)
    state = fresh_run(p, rng.uniform(-5, 5, size=(6, 4)), iterations=60, tol=1e-9,
                      width=0.0)
    err = np.max(np.abs(state.theta - mu))
    assert err < 1e-6
    assert state.frozen.all()


def test_batch_converges_on_correlated_quadratic():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([0.5, 1.0, 2.0, 4.0, 8.0]) @ q.T
    mu = np.array([0.5, -1.0, 2.0, 0.0, -0.5])
    p = quad_problem(mu, a)
    state = fresh_run(p, rng.uniform(-4, 4, size=(4, 5)), iterations=80, tol=1e-9,
                      width=0.0)
    assert np.max(np.abs(state.theta - mu)) < 1e-6


def test_monotone_logl_every_iteration():
    def fn(x):
        return -np.sum(x * x, axis=1) - np.sin(3 * x[:, 0]) * 0.5

    p = Problem(fn, BoundsBox.cube(3, -4, 4))
    rng = np.random.default_rng(5)
    state = fresh_state(p, rng.uniform(-3, 3, size=(5, 3)), 0.0)
    for _ in range(25):
        prev = state.logl.copy()
        step_batch(state, p)
        assert np.all(state.logl >= prev - 1e-15)


def test_frozen_rows_cost_nothing_after_intake():
    def fn(x):
        out = -np.sum((x - 0.5) ** 2, axis=1)
        out[np.abs(x[:, 0] - 3.0) < 1e-9] = -np.inf
        return out

    good = np.array([[1.0, 1.0]])
    dead = np.array([[3.0, 0.0]])

    p_solo = Problem(fn, BoundsBox.cube(2, -5, 5))
    s_solo = fresh_state(p_solo, good, 0.0)
    for _ in range(5):
        step_batch(s_solo, p_solo)
    solo_total = p_solo.eval_counter

    p_pair = Problem(fn, BoundsBox.cube(2, -5, 5))
    s_pair = fresh_state(p_pair, np.vstack([good, dead]), 0.0)
    assert s_pair.frozen[1] and not s_pair.frozen[0]
    for _ in range(5):
        step_batch(s_pair, p_pair)
    # The dead row costs exactly one intake evaluation and nothing after.
    assert p_pair.eval_counter == solo_total + 1
    np.testing.assert_array_equal(s_pair.theta[1], [3.0, 0.0])
    np.testing.assert_array_equal(s_pair.theta[0], s_solo.theta[0])


def test_iterates_stay_inside_bounds():
    p = quad_problem([9.5, -9.5], np.eye(2) * 50.0, lo=-2.0, hi=2.0)
    state = fresh_run(p, [[0.0, 0.0], [1.5, -1.5]], iterations=30, tol=1e-9,
                      width=0.0)
    assert np.all((p.bounds.lower <= state.theta) & (state.theta <= p.bounds.upper))
    np.testing.assert_allclose(state.theta, [[2.0, -2.0], [2.0, -2.0]], atol=1e-9)


def _push(state, i, s, y):
    _push_pairs(state, np.array([i]), np.atleast_2d(s), np.atleast_2d(y))


def test_ring_history_caps_at_depth():
    state = fresh_state(quad_problem([0.0, 0.0], np.eye(2)), [[1.0, 1.0]], 0.0)
    for k in range(1, HISTORY + 9):
        s = np.array([float(k), 0.0])
        _push(state, 0, s, s)  # s.y > 0, so every pair is accepted
    assert state.pairs_total[0] == HISTORY + 8
    s_hist, y_hist = _history(state, 0)
    assert len(s_hist) == HISTORY
    # ring keeps the most recent HISTORY pairs, oldest first
    assert s_hist[0][0] == 9.0
    assert s_hist[-1][0] == float(HISTORY + 8)


def test_curvature_gate_rejects_nonpositive_pairs():
    state = fresh_state(quad_problem([0.0, 0.0], np.eye(2)), [[1.0, 1.0]], 0.0)
    before = int(state.pairs_total[0])
    _push(state, 0, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    _push(state, 0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert int(state.pairs_total[0]) == before
    _push(state, 0, np.array([1.0, 0.0]), np.array([0.5, 0.0]))
    assert int(state.pairs_total[0]) == before + 1


def test_curvature_gate_is_per_row_in_one_batch():
    state = fresh_state(quad_problem([0.0, 0.0], np.eye(2)), np.zeros((4, 2)), 0.0)
    s = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [np.nan, 0.0]])
    y = np.array([[-1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [1.0, 0.0]])
    _push_pairs(state, np.array([3, 2, 1, 0]), s, y)
    np.testing.assert_array_equal(state.pairs_total, [0, 1, 0, 0])
    np.testing.assert_array_equal(state.s_ring[1, 0], [1.0, 0.0])
    assert state.gamma[1] == 2.0
    assert np.isnan(state.gamma[[0, 2, 3]]).all()


def test_line_search_batches_candidates_per_round():
    sizes = []

    def fn(x):
        sizes.append(x.shape[0])
        return -np.sum(x * x, axis=1)

    p = Problem(fn, BoundsBox.cube(2, -5, 5))
    state = fresh_state(p, np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]), 0.0)
    sizes.clear()
    step_batch(state, p)
    # One shared candidate batch per backtracking round (possibly several
    # rounds), then one fused gradient batch for whoever moved.
    grad_batches = [s for s in sizes if s % (2 * 2) == 0 and s > 3]
    assert sizes[0] == 3
    assert all(s <= 3 or s in grad_batches for s in sizes)


def test_deterministic_repeat():
    def fn(x):
        return -np.sum(x * x, axis=1) + 0.3 * np.cos(2 * x[:, 0])

    def run():
        p = Problem(fn, BoundsBox.cube(3, -4, 4))
        st = fresh_run(
            p, np.linspace(-3, 3, 12).reshape(4, 3), iterations=40, tol=1e-8,
            width=0.0,
        )
        return st.theta.tobytes(), st.logl.tobytes(), st.gamma.tobytes()

    assert run() == run()


def test_armijo_constant_wired_in():
    # A function engineered so the full step gains slightly less than the
    # Armijo bound forces at least one halving; monotonicity still holds.
    assert ARMIJO_C1 == 1e-4


def test_run_batch_tol_freeze_skips_work():
    p = quad_problem([0.0, 0.0], np.eye(2))
    state = fresh_run(p, [[1e-12, 0.0]], iterations=50, tol=1e-6, width=0.0)
    # Started essentially at the optimum: frozen immediately after intake.
    assert state.frozen[0]
    assert p.eval_counter == 1 + 4


def test_run_batch_freezes_at_the_stick_rule():
    # The freeze bound is tol * max(1, |logl|), 1e-4 at logl = -100: a row
    # whose gradient sup-norm is 5e-5 has converged and takes no step.
    p = Problem(lambda x: -100.0 - 0.5 * np.sum(x * x, axis=1),
                BoundsBox.cube(2, -10.0, 10.0))
    state = fresh_run(p, [[5e-5, 0.0]], iterations=50, tol=1e-6, width=0.0)
    assert state.grad_inf()[0] == pytest.approx(5e-5, rel=0.05)
    assert state.frozen[0]
    assert state.theta[0].tolist() == [5e-5, 0.0]
    assert p.eval_counter == 1 + 4


def test_fitted_step_is_taken_at_any_length():
    # Steepest ascent from the origin points straight at the peak of an
    # isotropic quadratic 15.8 away. A fresh row's trial step has length 1,
    # so the line fit's exact step is 15.8 trial steps long.
    mu = np.array([15.0, 5.0])
    p = quad_problem(mu, np.eye(2), lo=-50.0, hi=50.0)
    state = fresh_state(p, [[0.0, 0.0]], 0.0)
    assert np.linalg.norm(mu) > 10.0
    assert step_batch(state, p)[0]
    np.testing.assert_allclose(state.theta[0], mu, rtol=0.0, atol=1e-12)


def test_fitted_step_past_the_largest_float_lands_on_the_wall():
    # A line with tiny positive curvature: the trial step of 1e299 gains all
    # but 2e-12 of its slope's prediction, so the fit aims 2.5e11 trial
    # steps further, past the largest float. The probe is clipped onto the
    # wall and nothing warns.
    hi = 1e300
    batches = []

    def fn(x):
        batches.append(x.copy())
        return x[:, 0] - 0.2 * (x[:, 0] * 1e-155) ** 2

    p = Problem(fn, BoundsBox.cube(1, -hi, hi))
    state = fresh_state(p, [[0.0]], 0.0)
    # One stored pair with curvature scale s.y/y.y = 1e299 aims the first
    # trial 1e299 along the line.
    _push_pairs(state, np.array([0]), np.array([[1e150]]), np.array([[1e-149]]))
    del batches[:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert step_batch(state, p)[0]
    trial, fitted = batches[0], batches[1]
    assert trial.tolist() == [[1e299]]
    assert fitted.tolist() == [[hi]]
    assert np.all((p.bounds.lower <= fitted) & (fitted <= p.bounds.upper))


def test_improving_clipped_probe_is_accepted():
    # A fresh row 2^-40 below the wall of a rising plane: its trial step of
    # length 1 is clipped onto the wall, which gains 2^-40. Judged by the
    # Armijo bound of the unclipped step (1e-4), that gain would fail, and
    # 20 halvings could not bring the bound below it; judged along the step
    # it took, the wall probe passes in the first round.
    p = Problem(lambda x: x[:, 0].copy(), BoundsBox.cube(1, -1.0, 1.0))
    state = fresh_state(p, [[1.0 - 2.0**-40]], 0.0)
    calls = p.call_counter
    assert step_batch(state, p)[0]
    assert state.theta.tolist() == [[1.0]] and state.logl.tolist() == [1.0]
    # One candidate round and the new gradient.
    assert p.call_counter - calls == 2


def test_row_dot_is_bitwise_np_dot():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 7, 8, 16, 17, 32, 128, 257):
        scale = 10.0 ** rng.uniform(-150, 150, size=(64, 1))
        a = rng.standard_normal((64, d)) * scale
        b = rng.standard_normal((64, d)) * 10.0 ** rng.uniform(-8, 8, size=(64, 1))
        got = _row_dot(a, b)
        want = np.array([np.dot(x, y) for x, y in zip(a, b)])
        assert got.tobytes() == want.tobytes(), d
        norms = np.array([np.linalg.norm(x) for x in b])
        assert np.sqrt(_row_dot(b, b)).tobytes() == norms.tobytes(), d
        # Strided row views of an (N, age, d) history, such as S[:, age].
        hist = rng.standard_normal((64, 3, d)) * scale[:, :, None]
        for age in range(3):
            view = hist[:, age]
            want = np.array([np.dot(x, y) for x, y in zip(view, b)])
            assert _row_dot(view, b).tobytes() == want.tobytes(), (d, age)
            assert _row_dot(b, view).tobytes() == want.tobytes(), (d, age)


def test_corner_row_pointing_out_of_the_box_costs_one_round():
    # Ascent points out of the box on both axes, so the clipped candidate
    # is the corner itself and every shorter step would clip back onto it.
    problems = [quad_problem([9.5, -9.5], np.eye(2), lo=-2.0, hi=2.0)
                for _ in range(2)]
    p_new, p_ref = problems
    s_new, s_ref = (fresh_state(p, [[2.0, -2.0]], 0.0) for p in problems)
    before = (p_new.call_counter, p_new.eval_counter)
    moved = step_batch(s_new, p_new)
    assert not moved[0] and s_new.frozen[0]
    assert (p_new.call_counter - before[0], p_new.eval_counter - before[1]) == (1, 1)
    # The per-sample step spends the whole backtracking budget instead.
    calls = p_ref.call_counter
    _step_batch_reference(s_ref, p_ref)
    assert p_ref.call_counter - calls == MAX_BACKTRACK
    # A frozen row costs nothing after.
    step_batch(s_new, p_new)
    assert p_new.call_counter - before[0] == 1


# --- Per-sample reference -------------------------------------------------
# A verbatim copy of the per-sample L-BFGS step that the batched step_batch
# replaced (the BatchState methods became functions of the state). The
# batched code must reproduce it byte for byte, apart from freezing the rows
# a step leaves unmoved and skipping the evaluations a replay of their
# search would spend.


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


def _step_batch_reference(state: BatchState, problem) -> np.ndarray:
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
        s_hist, y_hist = _history(state, i)
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
                alpha[k] = min(1.0, 1.0 / nrm)

    searching = np.flatnonzero(searchable)
    new_theta = state.theta.copy()
    new_logl = state.logl.copy()
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
        armijo = ARMIJO_C1 * a * slopes[searching]
        for k in np.flatnonzero(~unclipped):
            step = cand[k] - state.theta[rows[k]]
            armijo[k] = -ARMIJO_C1 * float(np.dot(state.grad[rows[k]], step))
        ok = (
            displaced
            & np.isfinite(vals)
            & (vals >= state.logl[rows] - armijo)
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
                    and 0.0 < a_fit
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
        g_new, state.axis_vals[rows] = fd_gradient(problem, new_theta[rows], state.width)
        for k, i in enumerate(rows):
            s = new_theta[i] - state.theta[i]
            y = state.grad[i] - g_new[k]
            _push_pair(state, i, s, y)
        state.theta[rows] = new_theta[rows]
        state.logl[rows] = new_logl[rows]
        state.grad[rows] = g_new
    return moved


def _rugged(d):
    """A non-concave target with NaN and -inf regions, peaked past the box.

    A rounded |x - c| cone (c beyond the 2.0 box face on some axes), ripples
    that feed the curvature gate negative pairs and, for d > 1, a banana
    valley across neighbouring axes. NaN for x_0 > c_0 + 0.2 and -inf for
    x_{d-1} < -1.7. ``seen`` counts evaluated points on the box face and
    NaN/-inf values.
    """
    seen = {"face": 0, "nan": 0, "ninf": 0}
    c = np.full(d, 1.4)
    c[1::3] = 2.5
    c[-1] = -1.65 if d > 1 else 1.7

    def fn(x):
        out = -np.sum(np.sqrt(1e-6 + (x - c) ** 2), axis=1)
        out = out + 0.15 * np.sum(np.cos(4.0 * x), axis=1)
        if d > 1:
            out = out - 0.5 * np.sum((x[:, 1:] - 0.5 * x[:, :-1] ** 2) ** 2, axis=1)
        out[x[:, 0] > c[0] + 0.2] = np.nan
        out[x[:, -1] < -1.7] = -np.inf
        seen["face"] += int(np.any(np.abs(x) == 2.0))
        seen["nan"] += int(np.isnan(out).sum())
        seen["ninf"] += int(np.isneginf(out).sum())
        return out

    return fn, seen


def _seed_history(state, rng):
    """Give row k a history of (k - 3) % (2 * memory + 2) curvature pairs."""
    memory = state.s_ring.shape[1]
    for k in range(state.n):
        total = (k - 3) % (2 * memory + 2)
        for j in range(total):
            s = rng.normal(0.0, 0.05, state.dim)
            y = s * rng.uniform(0.2, 5.0, state.dim)
            state.s_ring[k, j % memory] = s
            state.y_ring[k, j % memory] = y
            state.gamma[k] = float(np.dot(s, y)) / float(np.dot(y, y))
        state.pairs_total[k] = total


def _state_bytes(state, moved=None):
    """State bytes; the frozen mask and ``moved`` too when ``moved`` is given."""
    out = (
        state.theta.tobytes(), state.logl.tobytes(), state.grad.tobytes(),
        state.axis_vals.tobytes(), state.s_ring.tobytes(), state.y_ring.tobytes(),
        state.pairs_total.tobytes(), state.gamma.tobytes(),
    )
    return out if moved is None else out + (state.frozen.tobytes(), moved.tobytes())


def _rugged_start(rng, n, d):
    theta0 = rng.uniform(-1.6, 1.6, size=(n, d))
    theta0[0, -1] = -1.9          # starts in the -inf region: frozen at intake
    theta0[1] = 2.0               # starts on the box corner
    theta0[2] = -2.0
    theta0[3] = 0.3 * theta0[3]
    return theta0


@pytest.mark.parametrize("hinted", [False, True])
@pytest.mark.parametrize("d", [1, 32])
@pytest.mark.parametrize("memory", [1, 3, 10])
def test_step_batch_matches_per_sample_reference(memory, d, hinted, monkeypatch):
    monkeypatch.setattr(laplev.lbfgs, "HISTORY", memory)
    rng = np.random.default_rng(100 * memory + d)
    n = 12
    theta0 = _rugged_start(rng, n, d)
    width = 0.05 if hinted else 0.0  # gradient step floor
    fn, seen = _rugged(d)
    states, problems = [], []
    for _ in range(2):
        p = Problem(fn, BoundsBox.cube(d, -2.0, 2.0))
        st = fresh_state(p, theta0, width)
        _seed_history(st, np.random.default_rng(memory))
        states.append(st)
        problems.append(p)
    (s_ref, s_new), (p_ref, p_new) = states, problems
    assert s_new.frozen[0]
    intake_ninf = seen["ninf"]
    overwrites = 0
    frozen_beside_live = 0
    left_unmoved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for it in range(36):
            for st in states:
                st.frozen |= st.grad_inf() < 1e-6
                if it == 8:
                    st.frozen |= np.arange(n) == 5
            frozen_beside_live += s_new.frozen.any() and (~s_new.frozen).any()
            full = s_new.pairs_total >= memory
            before = s_new.pairs_total.copy()
            active = ~s_ref.frozen
            m_ref = _step_batch_reference(s_ref, p_ref)
            # The freezing rule, applied to the reference from outside.
            s_ref.frozen |= active & ~m_ref
            left_unmoved += int(np.sum(active & ~m_ref))
            m_new = step_batch(s_new, p_new)
            assert _state_bytes(s_new, m_new) == _state_bytes(s_ref, m_ref), it
            assert p_new.eval_counter == p_ref.eval_counter, it
            overwrites += int(np.sum(full & (s_new.pairs_total > before)))
    # The run covered what it is meant to cover.
    assert overwrites                 # pairs replaced the oldest slot of a full ring
    assert frozen_beside_live
    assert left_unmoved or d == 1
    assert seen["face"] and seen["nan"]
    assert seen["ninf"] > intake_ninf or d == 1


@pytest.mark.parametrize("d", [8, 16, 32])
def test_frozen_searches_end_where_replays_end(d):
    # Without outside help the reference replays every failed search until
    # the loop ends; run_batch freezes those rows instead. The end state is
    # the same to the bit and only the replayed evaluations are gone.
    theta0 = _rugged_start(np.random.default_rng(d), 16, d)
    fn, _ = _rugged(d)
    p_ref = Problem(fn, BoundsBox.cube(d, -2.0, 2.0))
    p_new = Problem(fn, BoundsBox.cube(d, -2.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s_new = fresh_run(p_new, theta0, iterations=40, tol=1e-6, width=0.0)
        # run_batch's loop as it was: stop when every row is frozen or a
        # step moves nothing.
        s_ref = fresh_state(p_ref, theta0, 0.0)
        for _ in range(40):
            s_ref.frozen |= s_ref.grad_inf() < 1e-6 * np.maximum(1.0, np.abs(s_ref.logl))
            if s_ref.frozen.all() or not _step_batch_reference(s_ref, p_ref).any():
                break
    assert _state_bytes(s_new) == _state_bytes(s_ref)
    assert p_new.eval_counter < p_ref.eval_counter
    assert p_new.call_counter < p_ref.call_counter


# ------------------------------------------------------------ retirement


def _two_gaussians(d):
    """Two axis-aligned Gaussian components, at x_0 = -3 (weight 1) and
    x_0 = +3 (weight 1/2), each a diagonal bowl with curvatures 1 to 3."""
    mu = np.zeros((2, d))
    mu[:, 0] = (-3.0, 3.0)
    w = np.linspace(1.0, 3.0, d)

    def fn(x):
        comp = -0.5 * np.sum(w * (x[:, None, :] - mu) ** 2, axis=2)
        return np.logaddexp(comp[:, 0], comp[:, 1] + np.log(0.5))

    return (lambda: Problem(fn, BoundsBox.cube(d, -6.0, 6.0))), mu


def _old_run_batch(problem, theta0, iterations, tol, width):
    """``run_batch`` as it ran before the retirement rule."""
    state = fresh_state(problem, theta0, width)
    for _ in range(iterations):
        state.frozen |= state.converged(tol)
        if state.frozen.all():
            break
        step_batch(state, problem)
    return state


@pytest.mark.parametrize("d", [1, 3, 8])
def test_a_row_on_a_held_peaks_bowl_retires_and_costs_nothing(d):
    # Row 0 starts on the higher component's peak, so it has converged
    # before the first step. Row 1 starts on that peak's bowl and retires
    # at once; row 2 starts on the other component's bowl, which the held
    # peak's model does not explain, and climbs to its own peak.
    make, mu = _two_gaussians(d)
    theta0 = np.array([mu[0], mu[0] + 0.4, mu[1] + 0.7])
    p_three = make()
    s_three = fresh_run(p_three, theta0, iterations=30, tol=1e-6, width=0.0)
    assert s_three.retired.tolist() == [False, True, False]
    assert s_three.converged(1e-6).tolist() == [True, False, True]
    np.testing.assert_array_equal(s_three.theta[1], theta0[1])
    np.testing.assert_allclose(s_three.theta[2], mu[1], atol=1e-6)
    # The retired row costs its intake evaluations and nothing after, and
    # the other rows end as they do without it.
    p_two = make()
    s_two = fresh_run(p_two, theta0[[0, 2]], iterations=30, tol=1e-6, width=0.0)
    assert p_three.eval_counter == p_two.eval_counter + 1 + 2 * d
    assert p_three.call_counter == p_two.call_counter
    for a, b in zip((s_three.theta, s_three.logl, s_three.grad, s_three.axis_vals),
                    (s_two.theta, s_two.logl, s_two.grad, s_two.axis_vals)):
        assert a[[0, 2]].tobytes() == b.tobytes()


def _bowls(kind, d):
    """A peak at the origin whose curvature there is diagonal and negative,
    with a bowl that is not that diagonal quadratic away from the peak."""
    if kind == "quartic":
        return lambda x: -np.sum(x * x + x**4, axis=1)
    if kind == "banana":
        return lambda x: (-0.5 * np.sum(x * x, axis=1)
                          - 2.0 * (x[:, 1] - x[:, 0] ** 2) ** 2)
    # A rotated Gaussian: the diagonal of its Hessian misses the cross terms.
    q, _ = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))
    a = q @ np.diag(np.linspace(1.0, 4.0, d)) @ q.T
    return lambda x: -0.5 * np.einsum("ni,ij,nj->n", x, a, x)


@pytest.mark.parametrize("kind", ["quartic", "banana", "rotated"])
def test_a_bowl_the_diagonal_quadratic_misfits_retires_no_row(kind):
    # The same offsets from the held peak retire every row on the Gaussian
    # bowl with the peak's own diagonal curvature, and no row on a bowl
    # that the diagonal quadratic does not explain.
    d = 3
    fn = _bowls(kind, d)
    rng = np.random.default_rng(7)
    theta0 = np.vstack([np.zeros(d), rng.uniform(-1.5, 1.5, size=(8, d))])
    state = fresh_state(Problem(fn, BoundsBox.cube(d, -3.0, 3.0)), theta0, 0.0)
    held = state.converged(1e-6)
    assert held.tolist() == [True] + [False] * 8
    state.frozen |= held
    _retire(state, held)
    assert not state.retired.any() and state.frozen.tolist() == held.tolist()
    h = state.hess_diag([0])[0][0]
    assert np.all(h < 0.0)
    bowl = fresh_state(Problem(lambda x: 0.5 * np.sum(h * x * x, axis=1),
                               BoundsBox.cube(d, -3.0, 3.0)), theta0, 0.0)
    bowl.frozen |= held
    _retire(bowl, held)
    assert bowl.retired.tolist() == [False] + [True] * 8


@pytest.mark.parametrize("kind", ["quartic", "banana"])
def test_rows_retire_only_where_the_bowl_is_quadratic(kind):
    # Climbing rows retire once they reach the held peak's quadratic core:
    # on -(x^2 + x^4) the model's relative misfit is about |x|^2, so a row
    # retires within about sqrt(RETIRE_TOL) of the peak, never far out.
    d = 3
    fn = _bowls(kind, d)
    rng = np.random.default_rng(0)
    theta0 = np.vstack([np.zeros(d), rng.uniform(-1.5, 1.5, size=(8, d))])
    p = Problem(fn, BoundsBox.cube(d, -3.0, 3.0))
    state = fresh_run(p, theta0, iterations=40, tol=1e-6, width=0.0)
    assert state.frozen.all() and not state.retired[0]
    retired = np.abs(state.theta[state.retired]).max(axis=1)
    assert retired.size and retired.max() <= 2.0 * np.sqrt(RETIRE_TOL)
    assert (state.retired ^ state.converged(1e-6)).all()


@pytest.mark.parametrize("kind", ["gaussian", "rugged"])
def test_a_one_row_batch_runs_as_before(kind):
    # A lone row has no other row's bowl to retire on: its state, frozen
    # mask and evaluations are those of the loop without the rule.
    d = 8
    if kind == "gaussian":
        fn = _bowls("rotated", d)
        theta0 = np.full((1, d), 1.2)
    else:
        fn, _ = _rugged(d)
        theta0 = _rugged_start(np.random.default_rng(3), 4, d)[3:]
    p_new = Problem(fn, BoundsBox.cube(d, -2.0, 2.0))
    p_old = Problem(fn, BoundsBox.cube(d, -2.0, 2.0))
    s_new = fresh_run(p_new, theta0, iterations=40, tol=1e-6, width=0.0)
    s_old = _old_run_batch(p_old, theta0, 40, 1e-6, 0.0)
    assert _state_bytes(s_new) == _state_bytes(s_old)
    assert s_new.frozen.tobytes() == s_old.frozen.tobytes()
    assert not s_new.retired.any()
    assert (p_new.eval_counter, p_new.call_counter) == (p_old.eval_counter,
                                                        p_old.call_counter)
