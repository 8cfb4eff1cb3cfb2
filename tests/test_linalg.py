import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplev.errors import (
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericInputError,
)
from laplev.linalg import cholesky_lower, dedup_linf, eig_symmetric, log_det_pd, logsumexp


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
    kept, surv = dedup_linf(pts, [3.0, 1.0, 2.0], 0.5)
    assert list(kept) == [0, 2]
    assert list(surv) == [0, 0, 2]


def test_dedup_tie_breaks_to_lowest_index():
    pts = np.array([[0.0], [0.1]])
    kept, surv = dedup_linf(pts, [1.0, 1.0], 0.5)
    assert list(kept) == [0]
    assert list(surv) == [0, 0]


def test_dedup_idempotent():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(50, 3))
    sc = rng.uniform(0, 1, size=50)
    kept, _ = dedup_linf(pts, sc, 0.3)
    kept2, surv2 = dedup_linf(pts[kept], sc[kept], 0.3)
    assert list(kept2) == list(range(len(kept)))
    assert np.array_equal(surv2, np.arange(len(kept)))


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
        kept, surv = dedup_linf(pts, sc, 0.5)
        assert list(kept) == brute_force_dedup(pts, sc, 0.5)
        # Every absorbed point sits within radius of its survivor.
        for i in range(n):
            j = surv[i]
            assert j in kept
            if i not in kept:
                assert np.max(np.abs(pts[i] - pts[j])) <= 0.5


def _dedup_linf_reference(points, scores, radius, widths=None):
    """``dedup_linf`` as it was written with one ``np.vstack`` per survivor."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sc = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if widths is not None:
        pts = pts / np.asarray(widths, dtype=np.float64)
    order = np.lexsort((np.arange(n), -sc))
    kept = []
    survivor = np.full(n, -1, dtype=np.intp)
    kept_pts = np.empty((0, pts.shape[1]))
    for i in order:
        if kept:
            dist = np.max(np.abs(kept_pts - pts[i]), axis=1)
            j = int(np.argmin(dist))
            if dist[j] <= radius:
                survivor[i] = kept[j]
                continue
        kept.append(int(i))
        kept_pts = np.vstack([kept_pts, pts[i]])
        survivor[i] = i
    return np.asarray(sorted(kept), dtype=np.intp), survivor


@pytest.mark.parametrize("radius", [0.0, 0.3, 1e3])
@pytest.mark.parametrize("whiten", [False, True])
def test_dedup_bitwise_equal_to_vstack_loop(radius, whiten):
    # Scores drawn from four values, so most candidates tie; a few points
    # repeat exactly, so radius 0 still merges some. Radius 1e3 merges
    # everything into the best point.
    rng = np.random.default_rng(31)
    for n, d in ((1, 1), (2, 3), (40, 1), (150, 8), (300, 128)):
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        pts[n // 2:n // 2 + n // 10] = pts[0]
        sc = rng.integers(0, 4, size=n).astype(np.float64)
        widths = rng.uniform(0.1, 2.0, size=d) if whiten else None
        got = dedup_linf(pts, sc, radius, widths=widths)
        want = _dedup_linf_reference(pts, sc, radius, widths=widths)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if radius == 1e3:
            assert got[0].tolist() == [int(np.lexsort((np.arange(n), -sc))[0])]


def test_dedup_whitened_coordinates():
    # Distance 0.4 in a coordinate of width 0.1 is 4 whitened units: kept.
    pts = np.array([[0.0, 0.0], [0.4, 0.0]])
    kept, _ = dedup_linf(pts, [2.0, 1.0], 0.5, widths=[0.1, 1.0])
    assert list(kept) == [0, 1]
    kept, _ = dedup_linf(pts, [2.0, 1.0], 0.5, widths=[10.0, 1.0])
    assert list(kept) == [0]


def test_dedup_validates_input():
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0, 2.0], 0.5)
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0], -1.0)
    with pytest.raises(InvalidParameterError):
        dedup_linf([[0.0]], [1.0], 0.5, widths=[0.0])
