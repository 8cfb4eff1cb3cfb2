import json

import numpy as np
import pytest

from laplev.discovery import Peak
from laplev.errors import (
    HessianFailedError,
    NoModesFoundError,
    NotPositiveDefiniteError,
    UnsupportedDimensionError,
)
from laplev.evidence import (
    HEAVY_TAIL_WARNING,
    PROBE_EXTRA,
    PROBE_REL_THRESHOLD,
    PROBE_STEP_FRACTION,
    TAIL_SIGMA,
    ModeEvidence,
    Probe,
    combine,
    full_hessian,
    mode_evidence,
    probe_offdiag,
)
from laplev.linalg import cholesky_lower, condition_pd
from laplev.pipeline import preset_config, result_json, run
from laplev.precheck import PrecheckReport
from laplev.problem import BoundsBox, Problem
from laplev.lbfgs import fd_steps, make_state
from laplev.targets import get_target

LOG_2PI = np.log(2.0 * np.pi)


def box(d, lo=-5.0, hi=5.0):
    return BoundsBox.cube(d, lo, hi)


def peak(position, logl, hess_diag):
    """A refined peak whose steps are the ascent's at its finest width."""
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    widths = 1.0 / np.sqrt(-hess_diag)
    return Peak(position=position, logl=float(logl), hess_diag=hess_diag,
                steps=fd_steps(position, widths.min())[0])


def second_difference(problem, position, center_logl, steps):
    """(f(x + eps_i e_i) - 2 f(x) + f(x - eps_i e_i)) / eps_i^2, axis by axis."""
    out = np.empty(position.size)
    for i in range(position.size):
        e = np.zeros(position.size)
        e[i] = steps[i]
        plus, minus = problem.logl(np.stack([position + e, position - e]))
        out[i] = (plus - 2.0 * center_logl + minus) / steps[i] ** 2
    return out


# ---------------------------------------------------------------- probe


def quad_problem(h, d, lo=-5.0, hi=5.0):
    h = np.asarray(h, dtype=np.float64)

    def fn(x):
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x)

    return Problem(fn, box(d, lo, hi))


def probe(p, position, hess_diag, seed=0):
    """The rotated flag of a peak of value 0 at ``position``, probed alone."""
    pr, = probe_offdiag(p, [peak(position, 0.0, hess_diag)],
                        rng=np.random.default_rng(seed))
    return pr.rotated


def evidence(p, pk, rng):
    """``mode_evidence`` of one peak, probed alone."""
    pr, = probe_offdiag(p, [pk], rng=rng)
    return mode_evidence(p, pk, pr)


def test_probe_hand_case_negative_coupling():
    # l = -(x1^2 + x2^2 + x1 x2): H = [[-2,-1],[-1,-2]], so the probe along
    # (1,1)/sqrt(2) reads v'Hv = -3 against the diagonal prediction -2.
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    assert probe(p, np.zeros(2), np.array([-2.0, -2.0]))


def test_probe_hand_case_positive_coupling():
    p = quad_problem([[-2.0, 1.0], [1.0, -2.0]], 2)
    assert probe(p, np.zeros(2), np.array([-2.0, -2.0]))


def test_probe_diagonal_silent_even_with_extras():
    p = quad_problem(np.diag([-2.0, -4.0, -1.0]), 3)
    assert not probe(p, np.zeros(3), np.array([-2.0, -4.0, -1.0]), seed=3)


def test_probe_extras_catch_sign_cancelling_coupling():
    # H couples (1,2) with -1 and (3,4) with +1: the mean off-diagonal is 0,
    # so the diagonal-direction probe is blind, but random directions see it.
    h = np.diag([-2.0, -2.0, -2.0, -2.0]).astype(float)
    h[0, 1] = h[1, 0] = -1.0
    h[2, 3] = h[3, 2] = 1.0
    p = quad_problem(h, 4)
    hd = np.full(4, -2.0)

    v = np.full(4, 0.5)
    assert v @ h @ v == np.sum(v * v * hd)  # no excess along the diagonal

    assert probe(p, np.zeros(4), hd, seed=1)


def test_probe_nonfinite_is_conservatively_rotated():
    def fn(x):
        out = -0.5 * np.sum(x * x, axis=1)
        out[np.abs(x).max(axis=1) > 1e-6] = np.nan
        return out

    p = Problem(fn, box(2))
    assert probe(p, np.zeros(2), np.array([-1.0, -1.0]))


def test_probe_single_fused_batch_and_cost():
    # Two peaks' probe and tail rows go out in one call, peak by peak.
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -0.5 * np.sum(x * x, axis=1)

    p = Problem(fn, box(3))
    peaks = [peak(np.zeros(3), 0.0, np.full(3, -1.0)),
             peak([1.0, 0.0, 0.0], -0.5, np.full(3, -4.0))]
    probes = probe_offdiag(p, peaks, rng=np.random.default_rng(0))
    assert batches == [2 * (2 + 2 * PROBE_EXTRA + 2)]
    assert p.eval_counter == 20 and [pr.evals for pr in probes] == [10, 10]
    for pk, pr, width in zip(peaks, probes, (1.0, 0.5)):
        # +-3 whitened radii along the diagonal direction
        delta = 3.0 / np.sqrt(3.0) * width
        np.testing.assert_array_equal(pr.tail, [pk.position + delta, pk.position - delta])
        np.testing.assert_array_equal(pr.tail_values, fn(pr.tail))


def test_probe_draws_directions_peak_by_peak():
    # Probing peaks together reads what probing them one after another on
    # the same generator reads, bit for bit, and leaves the generator in
    # the same state. The second peak's coupling shows only along the
    # random directions, so its verdict rests on their draws.
    batches = []
    h = np.diag([-2.0, -2.0, -2.0, -2.0])
    h[0, 1] = h[1, 0] = -1.0
    h[2, 3] = h[3, 2] = 1.0

    def fn(x):
        batches.append(x.copy())
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x)

    p = Problem(fn, box(4))
    peaks = [peak(np.full(4, 0.5), -2.0, np.diag(h)), peak(np.zeros(4), 0.0, np.diag(h))]
    rng_together, rng_apart = np.random.default_rng(1), np.random.default_rng(1)
    together = probe_offdiag(p, peaks, rng=rng_together)
    apart = [probe_offdiag(p, [pk], rng=rng_apart)[0] for pk in peaks]
    assert np.concatenate(batches[1:]).tobytes() == batches[0].tobytes()
    assert rng_together.bit_generator.state == rng_apart.bit_generator.state
    for a, b in zip(together, apart):
        assert (a.rotated, a.evals) == (b.rotated, b.evals)
        assert a.tail_values.tobytes() == b.tail_values.tobytes()
    assert together[1].rotated


# The probe as it was written peak by peak, kept verbatim: one generator
# call per direction, a redraw for a direction too short to normalise, and
# each peak's rows, tail rows and verdict built on their own. The array
# pass must reproduce all of it bit for bit.


def _probe_directions_reference(d, rng):
    directions = [np.full(d, 1.0 / np.sqrt(d))]
    for _ in range(PROBE_EXTRA):
        u = rng.standard_normal(d)
        norm = float(np.linalg.norm(u))
        while norm <= 1e-12:
            u = rng.standard_normal(d)
            norm = float(np.linalg.norm(u))
        directions.append(u / norm)
    return np.vstack(directions)


def _rotated_reference(values, directions, eps, center_logl, hess_diag):
    finite = np.isfinite(values).all(axis=1)
    pred = np.sum(directions * directions * hess_diag, axis=1)
    with np.errstate(invalid="ignore"):
        quad = (values[:, 0] + values[:, 1] - 2.0 * center_logl) / (eps * eps)
        off = np.abs(quad - pred) >= PROBE_REL_THRESHOLD * np.abs(pred)
    return bool((~finite | off).any())


def _probe_offdiag_reference(problem, peaks, *, rng):
    rows, parts = [], []
    for pk in peaks:
        position = np.asarray(pk.position, dtype=np.float64)
        hess_diag = np.asarray(pk.hess_diag, dtype=np.float64)
        widths = 1.0 / np.sqrt(-hess_diag)
        d = position.size
        directions = _probe_directions_reference(d, rng) if d >= 2 else np.zeros((0, d))
        eps = PROBE_STEP_FRACTION / np.max(np.abs(directions) / widths, axis=1)
        steps = eps[:, None] * directions
        delta = (TAIL_SIGMA / np.sqrt(d)) * widths
        tail = problem.bounds.clip(np.stack([position + delta, position - delta]))
        rows += [np.stack([position + steps, position - steps], axis=1).reshape(-1, d),
                 tail]
        parts.append((pk.logl, hess_diag, directions, eps, tail))
    values = problem.logl(np.concatenate(rows))
    probes, at = [], 0
    for center_logl, hess_diag, directions, eps, tail in parts:
        k = 2 * eps.size
        rotated = _rotated_reference(values[at:at + k].reshape(-1, 2), directions,
                                     eps, center_logl, hess_diag)
        probes.append(Probe(rotated, tail, values[at + k:at + k + 2], k + 2))
        at += k + 2
    return probes


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


class _RecordingProblem(Problem):
    """A problem that keeps a copy of every batch it evaluates."""

    def __init__(self, fn, bounds):
        super().__init__(fn, bounds)
        self.batches = []

    def logl(self, points):
        self.batches.append(np.array(points, dtype=np.float64))
        return super().logl(points)


def _probe_peaks(rng, n_peaks, d):
    """Peaks on a separable quadratic with a NaN corner, their verdicts mixed.

    Peak i reads the diagonal of H scaled by 1 + (i % 2) / 2, so its
    prediction misses for odd i only. The last peak sits by the upper
    wall, so its tail rows are clipped, and the second by the NaN corner,
    so some of its probe values are not finite.
    """
    h = np.diag(-rng.uniform(0.5, 4.0, d))

    def fn(x):
        out = 0.5 * np.einsum("ni,ij,nj->n", x, h, x)
        out[(x > 4.0).all(axis=1)] = np.nan
        return out

    peaks = []
    for i in range(n_peaks):
        position = rng.uniform(-4.0, 4.0, d)
        if i == n_peaks - 1:
            position[0] = 4.9
        if i == 1:
            position = np.full(d, 4.0)
        hd = np.diag(h) * (1.0 + (i % 2) / 2)
        peaks.append(Peak(position=position, logl=float(fn(position[None])[0]),
                          hess_diag=hd, steps=fd_steps(position, 0.1)[0]))
    return fn, peaks


@pytest.mark.parametrize("zero", [(), (0,), (0, 1, "first redraw")])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("n_peaks", [1, 2, 5])
def test_probe_bitwise_equal_to_per_peak_loop(n_peaks, d, zero):
    # Every row sent and its order, every verdict, tail row and tail value,
    # each peak's evals and the generator state afterwards match the per-peak
    # loop, also when the first directions drawn are zero and are redrawn.
    zero = [n_peaks * PROBE_EXTRA if z == "first redraw" else z for z in zero]
    fn, peaks = _probe_peaks(np.random.default_rng(100 * n_peaks + d), n_peaks, d)
    p, q = _RecordingProblem(fn, box(d)), _RecordingProblem(fn, box(d))
    rng, rng_ref = _ZeroDirections(d, zero), _ZeroDirections(d, zero)
    got = probe_offdiag(p, peaks, rng=rng)
    want = _probe_offdiag_reference(q, peaks, rng=rng_ref)
    assert len(p.batches) == len(q.batches) == 1
    assert p.batches[0].tobytes() == q.batches[0].tobytes()
    assert rng._rng.bit_generator.state == rng_ref._rng.bit_generator.state
    assert (p.eval_counter, p.call_counter) == (q.eval_counter, q.call_counter)
    assert [(a.rotated, a.evals) for a in got] == [(b.rotated, b.evals) for b in want]
    for a, b in zip(got, want):
        assert a.tail.tobytes() == b.tail.tobytes()
        assert a.tail_values.tobytes() == b.tail_values.tobytes()
    if d >= 2 and n_peaks >= 2:
        assert {a.rotated for a in got} == {True, False}


def test_probe_1d_sends_tail_rows_only():
    # One coordinate has no off-diagonal: the peak sends its two tail rows.
    p = quad_problem([[-1.0]], 1)
    pr, = probe_offdiag(p, [peak([0.0], 0.0, [-1.0])], rng=np.random.default_rng(0))
    assert pr.evals == 2 and pr.tail_values.size == 2
    assert p.call_counter == 1 and not pr.rotated


# ---------------------------------------------------------------- full H


def test_full_hessian_quadratic_exact():
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    h = full_hessian(p, np.zeros(2), 0.0, np.array([-2.0, -2.0]), np.full(2, 1e-3))
    np.testing.assert_allclose(h, [[-2.0, -1.0], [-1.0, -2.0]], rtol=1e-7)
    np.testing.assert_array_equal(h, h.T)


def test_full_hessian_separable_offdiag_zero():
    p = quad_problem(np.diag([-1.0, -3.0, -0.5]), 3)
    h = full_hessian(p, np.zeros(3), 0.0, np.array([-1.0, -3.0, -0.5]),
                     np.full(3, 1e-3))
    off = h - np.diag(np.diag(h))
    np.testing.assert_allclose(off, 0.0, atol=1e-9)


def test_full_hessian_rotated_cigar_recovered():
    d = 8
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.ones(d)
    lam[0] = 1e6
    h_true = -(q * lam) @ q.T
    h_true = 0.5 * (h_true + h_true.T)
    p = quad_problem(h_true, d)
    h = full_hessian(p, np.zeros(d), 0.0, np.diag(h_true), np.full(d, 1e-6))
    scale = np.abs(h_true).max()
    np.testing.assert_allclose(h, h_true, rtol=1e-4, atol=1e-4 * scale)


def test_full_hessian_one_batch_cost_d_dminus1():
    # Two rows per pair, d (d - 1) in one call: the axis rows are the
    # search's, already read into the diagonal.
    batches = []
    d = 5

    def fn(x):
        batches.append(x.shape[0])
        return -0.5 * np.sum(x * x, axis=1)

    p = Problem(fn, box(d))
    full_hessian(p, np.zeros(d), 0.0, np.full(d, -1.0), np.full(d, 1e-3))
    assert batches == [d * (d - 1)]


def _full_hessian_reference(problem, position, center_logl, hess_diag, eps):
    """The seven-point cross stencil as a loop over the pairs."""
    d = position.size
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows = np.empty((2 * len(pairs), d))
    for k, axes in enumerate(pairs):
        for r, sign in enumerate((1.0, -1.0)):
            row = position.copy()
            for a in axes:
                row[a] += sign * eps[a]
            rows[2 * k + r] = row
    values = problem.logl(rows)

    def both(k):  # f(+) - f(x) + f(-) - f(x) at pair point k
        return (values[2 * k] - center_logl) + (values[2 * k + 1] - center_logl)

    def axis(i):  # the same sum at x +- eps_i e_i, from the diagonal
        return hess_diag[i] * eps[i] * eps[i]

    hess = np.diag(hess_diag)
    for k, (i, j) in enumerate(pairs):
        hess[i, j] = hess[j, i] = (
            (both(k) - axis(i) - axis(j)) / (2.0 * eps[i] * eps[j]))
    return hess


@pytest.mark.parametrize("d", [2, 5, 32])
def test_full_hessian_bitwise_equal_to_pair_loop(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    h = -(a @ a.T / d + np.eye(d))
    position = rng.uniform(-1.0, 1.0, d)
    mu = position + rng.uniform(-0.5, 0.5, d)  # no symmetry about the stencil
    batches = []

    def value(x):
        z = x - mu
        return (3.0 + 0.5 * np.einsum("ni,ij,nj->n", z, h, z)
                - 0.1 * np.sum(z ** 4, axis=1) + 0.05 * np.sum(z, axis=1) ** 3)

    def fn(x):
        batches.append(x.copy())
        return value(x)

    p = Problem(fn, box(d))
    hess_diag = np.diag(h) * rng.uniform(0.5, 2.0, d)
    steps = rng.uniform(1e-4, 1e-2, d)
    center = float(value(position[None, :])[0])
    got = full_hessian(p, position, center, hess_diag, steps)
    want = _full_hessian_reference(p, position, center, hess_diag, steps)
    assert batches[0].tobytes() == batches[1].tobytes()
    assert got.tobytes() == want.tobytes()


def test_full_hessian_nonfinite_raises():
    def fn(x):
        out = -0.5 * np.sum(x * x, axis=1)
        out[(x[:, 0] > 0) & (x[:, 1] > 0)] = np.nan
        return out

    p = Problem(fn, box(2))
    with pytest.raises(HessianFailedError):
        full_hessian(p, np.zeros(2), 0.0, np.array([-1.0, -1.0]), np.full(2, 1e-3))


def test_full_hessian_cross_terms_second_order():
    # Quadratic plus quartic couplings: the mixed partials at x are
    # known, and the stencil's error is a multiple of eps^2 (the quartic's
    # fourth derivatives are constant), so halving every step cuts it by 4.
    # A one-sided stencil would only halve it. The diagonal is the second
    # difference at the same steps, as the search hands it over.
    h = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, -0.4], [0.0, -0.4, -1.5]])

    def fn(x):
        quartic = (0.1 * x[:, 0] ** 3 * x[:, 1] + 0.05 * x[:, 0] ** 2 * x[:, 1] ** 2
                   - 0.2 * x[:, 1] * x[:, 2] ** 3)
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x) + quartic

    x = np.array([0.7, -0.5, 0.4])
    want = h.copy()
    want[0, 1] = want[1, 0] = 0.3 + 0.3 * x[0] ** 2 + 0.2 * x[0] * x[1]
    want[1, 2] = want[2, 1] = -0.4 - 0.6 * x[2] ** 2
    p = Problem(fn, box(3))
    center = float(p.logl(x[None, :])[0])
    off = ~np.eye(3, dtype=bool)
    errors = []
    for step in (1e-2, 5e-3):
        steps = np.full(3, step)
        diag = second_difference(p, x, center, steps)
        got = full_hessian(p, x, center, diag, steps)
        errors.append(np.abs(got - want)[off])
    coarse, fine = errors
    # (0, 2) has no fourth-order coupling: exact up to rounding
    assert max(coarse[[1, 4]].max(), fine[[1, 4]].max()) < 1e-9
    for k in (0, 2, 3, 5):  # the (0, 1) and (1, 2) entries, both triangles
        assert coarse[k] > 1e-6
        assert 3.8 < coarse[k] / fine[k] < 4.2


def test_full_hessian_rejects_1d():
    p = quad_problem([[-1.0]], 1)
    with pytest.raises(UnsupportedDimensionError):
        full_hessian(p, np.zeros(1), 0.0, np.array([-1.0]), np.array([1e-3]))


# ---------------------------------------------------------------- mode_evidence


def test_mode_evidence_standard_gaussian_diag_path():
    # the probe (1 + 3 directions, 8 evaluations) finds no coupling, and
    # the diagonal route costs nothing beyond the 2 tail-screen rows
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
                  rng=np.random.default_rng(0))
    assert me.hessian_kind == "diagonal"
    assert me.log_z == pytest.approx(LOG_2PI, rel=1e-14)
    assert me.condition_number == pytest.approx(1.0)
    assert me.evals_used == 8 + 2
    assert me.hessian is None


def test_mode_evidence_correlated_full_path_value():
    # integral of exp(-(x^2 + y^2 + xy)) is 2 pi / sqrt(3)
    p = quad_problem([[-2.0, -1.0], [-1.0, -2.0]], 2)
    me = evidence(p, peak([0.0, 0.0], 0.0, [-2.0, -2.0]),
                  rng=np.random.default_rng(0))
    assert me.hessian_kind == "full"
    assert me.log_z == pytest.approx(LOG_2PI - 0.5 * np.log(3.0), rel=1e-9)
    assert me.condition_number == pytest.approx(3.0, rel=1e-9)
    assert me.hessian is not None


def test_mode_evidence_1d_scaling():
    def fn(x):
        return -x[:, 0] ** 2 / 8.0

    p = Problem(fn, box(1))
    me = evidence(p, peak([0.0], 0.0, [-0.25]),
                  rng=np.random.default_rng(0))
    assert me.hessian_kind == "diagonal"
    assert me.log_z == pytest.approx(0.5 * LOG_2PI + 0.5 * np.log(4.0),
                                     rel=1e-12)


def test_mode_evidence_path_consistency_on_axis_aligned():
    # The full-Hessian route's arithmetic (stencil, Cholesky log det and
    # condition number) applied to an axis-aligned Gaussian must agree with
    # the diagonal route that the probe picks for it.
    p = quad_problem(np.diag([-1.0, -0.25]), 2)
    pk = peak([0.0, 0.0], 0.0, [-1.0, -0.25])
    diag_me = evidence(p, pk, rng=np.random.default_rng(0))
    assert diag_me.hessian_kind == "diagonal"
    neg_hess = -full_hessian(p, pk.position, pk.logl, pk.hess_diag, pk.steps)
    factor = cholesky_lower(neg_hess)
    full_log_z = (pk.logl + LOG_2PI
                  - float(np.sum(np.log(np.diag(factor)))))
    assert full_log_z == pytest.approx(diag_me.log_z, abs=1e-8)
    assert condition_pd(neg_hess) == pytest.approx(4.0, rel=1e-6)


def test_mode_evidence_weak_equicorrelation_takes_full_route():
    # Covariance (1 - rho) I + rho 11' with rho = 0.03 at d = 32: every
    # precision off-diagonal is only 1.6% of the diagonal, but together the
    # couplings make the diagonal route's log det(-H) 0.187 too large, so
    # its log Z would be 0.093 too small.
    # Along (1,...,1)/sqrt(d) the curvature is 0.52 against a diagonal
    # prediction of 1.01, so the probe routes the mode to the full Hessian.
    d, rho = 32, 0.03
    mu = np.linspace(-0.5, 0.5, d)
    cov = (1.0 - rho) * np.eye(d) + rho
    neg_h = np.linalg.inv(cov)

    def fn(x):
        z = x - mu
        return -0.5 * np.einsum("ni,ij,nj->n", z, neg_h, z)

    res = run(Problem(fn, box(d, -10.0, 10.0)), preset_config("fast", seed=1))
    assert [m.hessian_kind for m in res.modes] == ["full"]
    log_det_cov = (d - 1) * np.log(1.0 - rho) + np.log(1.0 + (d - 1) * rho)
    assert res.log_z_total == pytest.approx(
        0.5 * d * LOG_2PI + 0.5 * log_det_cov, abs=1e-9)


def test_mode_evidence_rejects_indefinite_full_hessian():
    # diag (-2,-2) passes the elementwise filter, but the cross term makes
    # -H indefinite: eigenvalues of -H are 5 and -1.
    p = quad_problem([[-2.0, -3.0], [-3.0, -2.0]], 2)
    with pytest.raises(NotPositiveDefiniteError):
        evidence(p, peak([0.0, 0.0], 0.0, [-2.0, -2.0]),
                 rng=np.random.default_rng(0))


def test_mode_evidence_soundness_on_refined_trajectories():
    # End-to-end soundness across seeds: axis-aligned anisotropic Gaussians
    # (including 1e6:1 conditioning) take the diagonal route, correlated
    # ones the full one. Held peaks honor the discovery contract of a
    # converged walker: per-coordinate gradient below 1e-6.
    from laplev.refine import refine_peaks

    cases = [
        ("aniso", np.diag([-1.0, -100.0]), "diagonal"),
        ("cigar", np.diag([-1.0, -1e6]), "diagonal"),
        ("corr", np.array([[-4.0 / 3.0, 2.0 / 3.0],
                           [2.0 / 3.0, -4.0 / 3.0]]), "full"),
    ]
    for seed in range(1, 11):
        for name, h, expected in cases:
            rng = np.random.default_rng(seed)
            p = quad_problem(h, 2)
            kappa = -np.diag(np.asarray(h))
            start = rng.uniform(-1.0, 1.0, 2) * 1e-7 / kappa
            state = make_state(p, start[None, :], p.logl(start), (), 0.01)
            hess, steps = state.hess_diag([0])
            held = Peak(start, float(state.logl[0]), hess[0], steps[0])
            pk, _ = refine_peaks(p, [held])
            me = evidence(p, pk[0], rng=rng)
            assert me.hessian_kind == expected, f"{name} seed {seed}"


def test_mode_evidence_heavy_tail_warning_fires_on_student_t():
    # 2D Student-t with nu=3: at 3 whitened radii the log-density has
    # dropped by 2.57 nats where the Gaussian model predicts 4.5.
    nu, d = 3.0, 2

    def fn(x):
        return -0.5 * (nu + d) * np.log1p(np.sum(x * x, axis=1) / nu)

    p = Problem(fn, box(2))
    hd = np.full(2, -(nu + d) / nu)
    me = evidence(p, peak([0.0, 0.0], 0.0, hd),
                  rng=np.random.default_rng(0))
    assert me.hessian_kind == "diagonal"
    assert HEAVY_TAIL_WARNING in me.warnings
    assert me.evals_used == 8 + 2  # probe and tail screen, one batch


def test_mode_evidence_no_tail_warning_on_gaussian():
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
                  rng=np.random.default_rng(0))
    assert me.hessian_kind == "diagonal"
    assert me.warnings == []
    assert me.evals_used == 8 + 2  # probe and tail screen, one batch


@pytest.mark.parametrize("coupling,want", [
    (0.0, [8 + 2]),             # probe and tail rows in one batch
    (0.5, [8 + 2, 3 * 2]),      # then the full stencil, d (d - 1) rows
])
def test_mode_evidence_one_call_per_probed_mode(coupling, want):
    batches = []
    h = np.array([[-1.0, coupling, 0.0], [coupling, -1.0, 0.0], [0.0, 0.0, -1.0]])

    def fn(x):
        batches.append(x.shape[0])
        return 0.5 * np.einsum("ni,ij,nj->n", x, h, x)

    me = evidence(Problem(fn, box(3)), peak(np.zeros(3), 0.0, np.diag(h)),
                  rng=np.random.default_rng(0))
    assert batches == want
    assert me.hessian_kind == ("full" if coupling else "diagonal")


def test_modes_share_the_probe_call_and_count_their_own_rows():
    # An axis-aligned mode at the origin and a coupled one at x0 = 5: both
    # are probed in one call, then the coupled one measures its full
    # Hessian. Each mode counts its own rows, 10 and 10 + d (d - 1).
    batches = []
    coupled = np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -1.0]])
    centre = np.array([5.0, 0.0, 0.0])

    def fn(x):
        batches.append(x.shape[0])
        z = x - centre
        return np.where(x[:, 0] < 2.5, -0.5 * np.sum(x * x, axis=1),
                        0.5 * np.einsum("ni,ij,nj->n", z, coupled, z))

    p = Problem(fn, box(3, -10.0, 10.0))
    peaks = [peak(np.zeros(3), 0.0, np.full(3, -1.0)),
             peak(centre, 0.0, np.diag(coupled))]
    probes = probe_offdiag(p, peaks, rng=np.random.default_rng(0))
    modes = [mode_evidence(p, pk, pr) for pk, pr in zip(peaks, probes)]
    assert batches == [2 * 10, 3 * 2]
    assert [m.hessian_kind for m in modes] == ["diagonal", "full"]
    assert [m.evals_used for m in modes] == [10, 10 + 3 * 2]
    assert sum(m.evals_used for m in modes) == p.eval_counter


def test_mode_evidence_1d_tail_screen_is_its_own_call():
    batches = []

    def fn(x):
        batches.append(x.shape[0])
        return -0.5 * np.sum(x * x, axis=1)

    evidence(Problem(fn, box(1)), peak([0.0], 0.0, [-1.0]),
             rng=np.random.default_rng(0))
    assert batches == [2]


def test_mode_evidence_asymmetry_warning():
    # quadratic on one side of the diagonal, four times flatter on the other
    def fn(x):
        q = -0.5 * np.sum(x * x, axis=1)
        return np.where(x.sum(axis=1) >= 0, q, q / 4.0)

    p = Problem(fn, box(2))
    me = evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
                  rng=np.random.default_rng(0))
    assert any("asymmetric" in w for w in me.warnings)


def test_mode_evidence_condition_warning():
    p = quad_problem(np.diag([-1.0, -1e7]), 2)
    me = evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1e7]),
                  rng=np.random.default_rng(0))
    assert any("unreliable" in w for w in me.warnings)
    assert me.condition_number == pytest.approx(1e7)


def test_mode_evidence_probe_cost_accounting():
    p = quad_problem(np.diag([-1.0, -1.0]), 2)
    me = evidence(p, peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
                  rng=np.random.default_rng(0))
    # probe and tail screen: 2 + 2*PROBE_EXTRA + 2 evaluations, no full Hessian
    assert me.evals_used == 2 + 2 * PROBE_EXTRA + 2
    assert me.hessian_kind == "diagonal"


@pytest.mark.parametrize("name,d,kind,evals", [
    ("gaussian", 4, "diagonal", 10),          # probe and tail screen
    ("correlated", 4, "full", 4 * 3 + 10),    # plus the d (d - 1) stencil
    ("correlated", 8, "full", 8 * 7 + 10),
])
def test_mode_evals_in_canonical_json(name, d, kind, evals):
    texts = [result_json(run(get_target(name, d).problem,
                             preset_config("fast", seed=1)))
             for _ in range(2)]
    assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert [(m["hessian_kind"], m["evals"]) for m in doc["modes"]] == [(kind, evals)]
    assert doc["eval_counts"]["evidence"] == evals


# ---------------------------------------------------------------- combine


def stub_precheck(marginal=0.0):
    return PrecheckReport(
        sensitivities=np.array([1.0]), flat=(), active=(0,),
        log_z_marginal=float(marginal), center_logl=0.0,
    )


def stub_mode(log_z, warnings=()):
    return ModeEvidence(
        peak=peak([0.0, 0.0], 0.0, [-1.0, -1.0]),
        log_z=float(log_z), hessian_kind="diagonal", condition_number=1.0,
        hessian=None, warnings=list(warnings), evals_used=0,
    )


def test_combine_two_identical_modes_adds_log2():
    res = combine([stub_mode(1.25), stub_mode(1.25)], stub_precheck(), box(2))
    assert res.log_z_total == pytest.approx(1.25 + np.log(2.0), rel=1e-14)


def test_combine_single_mode_passthrough_and_prior_norm():
    res = combine([stub_mode(2.5)], stub_precheck(), box(3))
    assert res.log_z_total == pytest.approx(2.5, rel=1e-14)
    assert res.log_z_vs_prior == pytest.approx(2.5 - 3 * np.log(10.0),
                                               rel=1e-14)


def test_combine_adds_precheck_marginal():
    res = combine([stub_mode(1.0)], stub_precheck(marginal=np.log(5.0)), box(2))
    assert res.log_z_total == pytest.approx(1.0 + np.log(5.0), rel=1e-14)


def test_combine_shift_invariance_exact():
    vals = [1.5, 0.25, -0.75]
    base = combine([stub_mode(v) for v in vals], stub_precheck(), box(2))
    c = 32.0  # power of two: the shifted inputs round identically
    shifted = combine([stub_mode(v + c) for v in vals], stub_precheck(), box(2))
    assert shifted.log_z_total == base.log_z_total + c


def test_combine_empty_raises():
    with pytest.raises(NoModesFoundError):
        combine([], stub_precheck(), box(2))


def test_combine_aggregates_mode_warnings():
    res = combine(
        [stub_mode(0.0, warnings=["w1"]), stub_mode(0.0, warnings=["w2"])],
        stub_precheck(), box(2), warnings=["outer"],
    )
    assert res.warnings == ["outer", "w1", "w2"]
    assert res.to_dict()["warnings"] == ["outer", "w1", "w2"]
