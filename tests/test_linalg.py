import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplev.errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericInputError,
)
from laplev.linalg import (cholesky_lower, condition_pd, dedup_linf, eig_symmetric,
                           log_det_pd, logsumexp)


def random_pd(rng, d, cond=None):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if cond is None:
        lam = rng.uniform(0.5, 5.0, size=d)
    else:
        lam = np.logspace(0, np.log10(cond), d)
    return (q * lam) @ q.T


# ---------------------------------------------------------------- eigensolver


def test_eig_hand_case():
    # [[2,1],[1,2]] has eigenvalues 1 and 3: det 3, trace 4.
    w, v = eig_symmetric([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(w, [1.0, 3.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-12)
    np.testing.assert_allclose((v * w) @ v.T, [[2, 1], [1, 2]], atol=1e-12)


def test_eig_diagonal_is_exact():
    w, _ = eig_symmetric(np.diag([1e-6, 1e6]))
    assert w[0] == 1e-6 and w[1] == 1e6


def test_eig_diagonal_sorts_with_identity_columns():
    w, v = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(w, [1.0, 2.0, 3.0])
    assert np.array_equal(v, np.eye(3)[:, [1, 2, 0]])


def test_eig_identity():
    w, v = eig_symmetric(np.eye(5))
    np.testing.assert_array_equal(w, np.ones(5))
    np.testing.assert_array_equal(v, np.eye(5))


def test_eig_matches_lapack_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 33))
        a = random_pd(rng, d)
        w, v = eig_symmetric(a)
        w_ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(d), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.T, a, atol=1e-9)


def test_eig_logdet_agrees_with_cholesky_on_pd():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 33))
        a = random_pd(rng, d)
        w, _ = eig_symmetric(a)
        assert abs(np.sum(np.log(w)) - log_det_pd(a)) < 1e-10 * max(1.0, abs(log_det_pd(a)))


def test_eig_trace_preserved():
    rng = np.random.default_rng(3)
    a = random_pd(rng, 12, cond=1e6)
    w, _ = eig_symmetric(a)
    np.testing.assert_allclose(np.sum(w), np.trace(a), rtol=1e-12)


def test_eig_deterministic_bitwise():
    rng = np.random.default_rng(5)
    a = random_pd(rng, 9)
    w1, v1 = eig_symmetric(a)
    w2, v2 = eig_symmetric(a)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("diag", [[3.0, 1.0, 2.0], [2.0, 0.0, -1.0, 2.0],
                                  [0.0, 0.0], [5.0], [-1e-300, 4.0, 1e300, -0.0]])
def test_eig_diagonal_route_bitwise_as_when_symmetry_was_tested_first(diag):
    # The stably sorted diagonal and its identity columns, with the bits the
    # route gave when the symmetry test ran before it; a zero on the
    # diagonal is no off-diagonal entry.
    a = np.diag(diag)
    w, v = eig_symmetric(a)
    assert np.allclose(a, a.T, rtol=0.0, atol=0.0)
    order = np.argsort(np.diag(a).copy(), kind="stable")
    assert w.tobytes() == np.diag(a).copy()[order].tobytes()
    assert v.tobytes() == np.eye(a.shape[0])[:, order].tobytes()


def test_eig_rejects_nonsymmetric_with_offdiagonal_entries():
    # The diagonal test comes first; a matrix it lets through still faces
    # the symmetry test.
    rng = np.random.default_rng(2)
    a = random_pd(rng, 6)
    a[4, 1] += 1e-3
    with pytest.raises(NumericInputError, match="not symmetric"):
        eig_symmetric(a)
    with pytest.raises(NumericInputError, match="not symmetric"):
        eig_symmetric(np.diag([1.0, 2.0, 3.0]) + np.eye(3, k=1))


def test_eig_rejects_bad_input():
    with pytest.raises(NumericInputError):
        eig_symmetric([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NumericInputError):
        eig_symmetric([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameterError):
        eig_symmetric(np.ones((2, 3)))


# ------------------------------------------------------------------- cholesky


def test_cholesky_hand_logdet():
    assert abs(log_det_pd([[2.0, 1.0], [1.0, 2.0]]) - np.log(3.0)) < 1e-14


def test_cholesky_matches_numpy_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(1, 33))
        a = random_pd(rng, d)
        l = cholesky_lower(a)
        np.testing.assert_allclose(l, np.linalg.cholesky(a), rtol=1e-9, atol=1e-10)
        sign, ref = np.linalg.slogdet(a)
        assert sign > 0
        assert abs(log_det_pd(a) - ref) < 1e-10 * max(1.0, abs(ref))


def test_cholesky_pivot_index_on_failure():
    # Indefinite: breaks down at pivot 1 after the first column succeeds.
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(a)
    assert exc.value.pivot_index == 1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower([[-1.0]])
    assert exc.value.pivot_index == 0


def _cholesky_pivot_reference(a):
    """The pivot at which the hand-rolled column-by-column Cholesky broke
    down, or None when it factors ``a``."""
    d = a.shape[0]
    l = np.zeros_like(a)
    for j in range(d):
        s = a[j, j] - np.dot(l[j, :j], l[j, :j])
        if s <= 0.0 or not np.isfinite(s):
            return j
        l[j, j] = np.sqrt(s)
        l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]) / l[j, j]
    return None


@pytest.mark.parametrize("margin", [1.0, 1e-6])
@pytest.mark.parametrize("k", range(8))
def test_cholesky_pivot_matches_column_loop(k, margin):
    # Lower a[k, k] past its Schur complement: the leading k x k block
    # stays positive definite and the factorization breaks down at k.
    a = random_pd(np.random.default_rng(41 + k), 8)
    schur = a[k, k] - a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k]) if k else a[0, 0]
    a[k, k] -= schur + margin
    assert _cholesky_pivot_reference(a) == k
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(a)
    assert exc.value.pivot_index == k


def test_cholesky_pivot_at_d1():
    for v in (0.0, -2.0):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_lower([[v]])
        assert exc.value.pivot_index == 0 == _cholesky_pivot_reference(np.array([[v]]))
    assert cholesky_lower([[4.0]]).tolist() == [[2.0]]


def test_cholesky_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[2, 1] = a[1, 2] = bad
        with pytest.raises(NumericInputError):
            cholesky_lower(a)
        with pytest.raises(NumericInputError):
            log_det_pd(a)


# ------------------------------------------------------------------ condition


def test_condition_estimate_within_ten_percent():
    # Log-uniform spectra with both ends pinned, so the true ratio is the
    # constructed one. Forming A rounds each entry by about eps * cond, which
    # moves the smallest eigenvalue (1) by up to d * eps * cond; no solver
    # can read the ratio closer than that.
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(2024)
    for _ in range(200):
        d = int(rng.integers(2, 65))
        cond = 10.0 ** rng.uniform(0.0, 8.0)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.exp(rng.uniform(0.0, np.log(cond), d))
        lam[0], lam[-1] = 1.0, cond
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
        assert abs(condition_pd(a) / cond - 1.0) < d * eps * cond


def test_condition_estimate_repeats_bitwise():
    a = random_pd(np.random.default_rng(5), 24, cond=1e5)
    assert condition_pd(a).hex() == condition_pd(a.copy()).hex()


def test_condition_estimate_hand_case():
    assert abs(condition_pd([[2.0, 1.0], [1.0, 2.0]]) - 3.0) < 1e-12
    assert condition_pd(np.diag([4.0, 1.0, 2.0])) == pytest.approx(4.0, rel=1e-12)


def test_condition_not_positive_definite_is_inf():
    assert condition_pd([[1.0, 2.0], [2.0, 1.0]]) == np.inf
    assert condition_pd(np.diag([1.0, 0.0])) == np.inf


# ------------------------------------------------------------------ logsumexp


def test_logsumexp_hand_cases():
    assert logsumexp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-15)
    assert logsumexp([-np.inf, -np.inf]) == -np.inf
    assert logsumexp([5.0]) == 5.0
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), abs=1e-12)
    assert logsumexp([-np.inf, 3.0]) == pytest.approx(3.0, abs=1e-15)


def test_logsumexp_empty_raises():
    with pytest.raises(InvalidParameterError):
        logsumexp([])


def test_logsumexp_nan_raises():
    with pytest.raises(NumericInputError):
        logsumexp([0.0, np.nan])


def test_logsumexp_against_scipy_oracle():
    from scipy.special import logsumexp as sp_lse

    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        v = rng.uniform(-700, 700, size=n)
        assert logsumexp(v) == pytest.approx(float(sp_lse(v)), rel=1e-13, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    st.floats(-1e6, 1e6),
)
def test_logsumexp_shift_invariance(vals, shift):
    v = np.asarray(vals)
    lhs = logsumexp(v + shift)
    rhs = logsumexp(v) + shift
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_logsumexp_monotone_in_appends():
    v = [1.0, 2.0]
    assert logsumexp(v + [0.5]) > logsumexp(v)


# ---------------------------------------------------------------------- dedup


def test_dedup_hand_chain():
    # Points 0, 0.4, 0.8 with scores 3, 1, 2 at radius 0.5: the middle point
    # is absorbed by the best one, the far point survives.
    pts = np.array([[0.0], [0.4], [0.8]])
    kept = dedup_linf(pts, [3.0, 1.0, 2.0], 0.5)
    assert list(kept) == [0, 2]


def test_dedup_tie_breaks_to_lowest_index():
    pts = np.array([[0.0], [0.1]])
    kept = dedup_linf(pts, [1.0, 1.0], 0.5)
    assert list(kept) == [0]


def test_dedup_idempotent():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(50, 3))
    sc = rng.uniform(0, 1, size=50)
    kept = dedup_linf(pts, sc, 0.3)
    kept2 = dedup_linf(pts[kept], sc[kept], 0.3)
    assert list(kept2) == list(range(len(kept)))


def brute_force_dedup(pts, sc, radius):
    n = len(sc)
    order = sorted(range(n), key=lambda i: (-sc[i], i))
    kept = []
    for i in order:
        if all(np.max(np.abs(pts[i] - pts[j])) > radius for j in kept):
            kept.append(i)
    return sorted(kept)


def test_dedup_matches_brute_force():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(1, 6))
        pts = rng.uniform(-2, 2, size=(n, d))
        sc = rng.uniform(0, 10, size=n)
        kept = dedup_linf(pts, sc, 0.5)
        assert list(kept) == brute_force_dedup(pts, sc, 0.5)


def _dedup_linf_reference(points, scores, radius, widths=None):
    """``dedup_linf`` as it was written with one ``np.vstack`` per survivor."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sc = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    if widths is not None:
        pts = pts / np.asarray(widths, dtype=np.float64)
    order = np.lexsort((np.arange(n), -sc))
    kept = []
    kept_pts = np.empty((0, pts.shape[1]))
    for i in order:
        if kept:
            dist = np.max(np.abs(kept_pts - pts[i]), axis=1)
            j = int(np.argmin(dist))
            if dist[j] <= radius:
                continue
        kept.append(int(i))
        kept_pts = np.vstack([kept_pts, pts[i]])
    return np.asarray(sorted(kept), dtype=np.intp)


def _dedup_linf_loop_reference(points, scores, radius, widths=None):
    """``dedup_linf`` as it was written with one iteration per candidate."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sc = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    if widths is not None:
        pts = pts / np.asarray(widths, dtype=np.float64)
    order = np.lexsort((np.arange(n), -sc))
    # Survivors fill the first m slots of these buffers, in visiting order.
    kept = np.empty(n, dtype=np.intp)
    kept_pts = np.empty_like(pts)
    m = 0
    for i in order:
        if m and np.max(np.abs(kept_pts[:m] - pts[i]), axis=1).min() <= radius:
            continue
        kept[m] = i
        kept_pts[m] = pts[i]
        m += 1
    return np.sort(kept[:m])


def _dedup_cases(rng, nan):
    """(points, scores) of assorted sizes: tied scores, repeated points."""
    for n, d in ((1, 1), (2, 3), (40, 1), (150, 8), (300, 128)):
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        pts[n // 2:n // 2 + n // 10] = pts[0]
        sc = rng.integers(0, 4, size=n).astype(np.float64)
        if nan:
            rows = rng.choice(n, size=max(1, n // 20), replace=False)
            pts[rows, rng.integers(0, d, size=rows.size)] = np.nan
        yield pts, sc


@pytest.mark.parametrize("radius", [0.0, 0.3, 1e3])
@pytest.mark.parametrize("whiten", [False, True])
def test_dedup_bitwise_equal_to_vstack_loop(radius, whiten):
    # Scores drawn from four values, so most candidates tie; a few points
    # repeat exactly, so radius 0 still merges some. Radius 1e3 merges
    # everything into the best point.
    rng = np.random.default_rng(31)
    for pts, sc in _dedup_cases(rng, nan=False):
        widths = rng.uniform(0.1, 2.0, size=pts.shape[1]) if whiten else None
        got = dedup_linf(pts, sc, radius, widths=widths)
        for reference in (_dedup_linf_reference, _dedup_linf_loop_reference):
            want = reference(pts, sc, radius, widths=widths)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if radius == 1e3:
            assert got.tolist() == [int(np.lexsort((np.arange(len(sc)), -sc))[0])]


@pytest.mark.parametrize("radius", [0.0, 0.3, 1e3])
@pytest.mark.parametrize("whiten", [False, True])
def test_dedup_nan_coordinates_bitwise_equal_to_candidate_loop(radius, whiten):
    # A NaN coordinate puts a point at a NaN distance from every other: it
    # is kept, and once kept it keeps every later candidate.
    rng = np.random.default_rng(37)
    for pts, sc in _dedup_cases(rng, nan=True):
        widths = rng.uniform(0.1, 2.0, size=pts.shape[1]) if whiten else None
        got = dedup_linf(pts, sc, radius, widths=widths)
        for reference in (_dedup_linf_reference, _dedup_linf_loop_reference):
            want = reference(pts, sc, radius, widths=widths)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_dedup_bitwise(pts, sc, radius, widths=None):
    got = dedup_linf(pts, sc, radius, widths=widths)
    for reference in (_dedup_linf_reference, _dedup_linf_loop_reference):
        # The references warn on an inf - inf distance; dedup_linf must not.
        with np.errstate(invalid="ignore"):
            want = reference(pts, sc, radius, widths=widths)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dedup_non_finite_past_the_screened_coordinates(bad):
    # The best point is far from the rest on every finite coordinate and
    # carries its non-finite value in coordinate 4 only. A NaN there puts
    # it at a NaN distance from every later candidate, so the close pair
    # behind it is kept; an inf puts it at an inf distance, so they merge.
    pts = np.array([[0.0, 0.0, 0.0, 0.0, bad],
                    [5.0, 5.0, 5.0, 5.0, 5.0],
                    [5.1, 5.0, 5.0, 5.0, 5.0]])
    kept = _assert_dedup_bitwise(pts, [3.0, 2.0, 1.0], 0.5)
    assert kept.tolist() == ([0, 1, 2] if np.isnan(bad) else [0, 1])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dedup_same_signed_inf_pair(sign):
    # Two rows with the same inf in coordinate 3 are at an inf - inf = NaN
    # distance: the second is kept, even beside a finite twin of the first.
    inf = sign * np.inf
    pts = np.array([[0.0, 0.0, 0.0, inf, 0.0],
                    [0.0, 0.0, 0.0, inf, 0.0],
                    [0.0, 0.0, 0.0, 1.0, 0.0],
                    [0.1, 0.0, 0.0, 1.0, 0.0],
                    [9.0, 9.0, 9.0, inf, 9.0]])
    kept = _assert_dedup_bitwise(pts, [5.0, 4.0, 3.0, 2.0, 1.0], 0.5)
    assert kept.tolist() == [0, 1, 2, 4]


@pytest.mark.parametrize("radius", [0.05, 0.3, 2.0])
def test_dedup_cluster_plus_spread_points(radius):
    # The select_seeds shape on a Gaussian: a tight cluster of the best
    # samples around the mode, and spread samples of lower value.
    rng = np.random.default_rng(43)
    for d in (1, 2, 3, 8, 32):
        pts = np.concatenate([rng.normal(0.0, 0.1, size=(40, d)),
                              rng.uniform(-5.0, 5.0, size=(80, d))])
        sc = -np.sum(pts ** 2, axis=1)
        sc[rng.choice(120, size=10, replace=False)] = 0.0
        _assert_dedup_bitwise(pts, sc, radius)
        _assert_dedup_bitwise(pts, sc, radius, widths=rng.uniform(0.5, 2.0, size=d))


def test_dedup_close_on_screened_coordinates_far_on_a_later_one():
    # Every pair matches on coordinates 0-2; coordinate 3 or 6 decides.
    rng = np.random.default_rng(47)
    pts = np.zeros((60, 7))
    pts[:, :3] = rng.uniform(-0.1, 0.1, size=(1, 3))
    pts[:, 3] = rng.integers(0, 4, size=60)
    pts[::2, 6] = rng.uniform(-3.0, 3.0, size=30)
    sc = rng.integers(0, 5, size=60).astype(np.float64)
    for radius in (0.0, 0.5, 1.0, 10.0):
        kept = _assert_dedup_bitwise(pts, sc, radius)
        assert kept.size > 1 or radius == 10.0
    kept = _assert_dedup_bitwise(pts[:2], [2.0, 1.0], 0.5)
    assert kept.tolist() == [0, 1] and abs(pts[0, 6] - pts[1, 6]) > 0.5


@pytest.mark.parametrize("d", [1, 2])
def test_dedup_fewer_coordinates_than_the_screen(d):
    rng = np.random.default_rng(53 + d)
    for n in (1, 2, 5, 90):
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        pts[n // 2:] = np.round(pts[n // 2:], 1)
        sc = rng.integers(0, 3, size=n).astype(np.float64)
        for radius in (0.0, 0.05, 0.5):
            _assert_dedup_bitwise(pts, sc, radius)


def test_dedup_nan_survivor_keeps_every_later_candidate():
    # The best point has a NaN coordinate; the two after it sit within the
    # radius of each other but at a NaN distance from the best one.
    pts = np.array([[np.nan, 0.0], [0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    sc = [4.0, 3.0, 2.0, 1.0]
    kept = dedup_linf(pts, sc, 0.5)
    assert kept.tolist() == [0, 1, 2, 3]
    assert kept.tolist() == _dedup_linf_loop_reference(pts, sc, 0.5).tolist()
    # Without the NaN point the close pair merges.
    assert dedup_linf(pts[1:], sc[1:], 0.5).tolist() == [0, 2]


def test_dedup_whitened_coordinates():
    # Distance 0.4 in a coordinate of width 0.1 is 4 whitened units: kept.
    pts = np.array([[0.0, 0.0], [0.4, 0.0]])
    kept = dedup_linf(pts, [2.0, 1.0], 0.5, widths=[0.1, 1.0])
    assert list(kept) == [0, 1]
    kept = dedup_linf(pts, [2.0, 1.0], 0.5, widths=[10.0, 1.0])
    assert list(kept) == [0]


def test_dedup_validates_input():
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0, 2.0], 0.5)
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0], -1.0)
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0], 0.5, widths=[0.0])
