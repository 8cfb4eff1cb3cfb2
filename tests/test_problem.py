"""The evaluator View: the parent's log-likelihood on an affine slice.

Oracles: verbatim copies of the two embeddings the View replaced (the
precheck's pinned-axes scatter and the reduced evaluator's matrix product),
compared bit for bit, and the parent's own counters.
"""

import numpy as np
import pytest

import laplev
from laplev.discovery import Peak
from laplev.precheck import active_subproblem, precheck
from laplev.problem import BoundsBox, Problem, View
from laplev.reduction import reduce_mode


def quadratic(x):
    return -0.5 * np.sum(x * x, axis=1)


def axes_embed_reference(pinned_values, active, points):
    """The pinned-axes embedding as it stood before View: tile, then scatter."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    full = np.tile(pinned_values, (pts.shape[0], 1))
    full[:, active] = pts
    return full


@pytest.mark.parametrize("d,k", [(2, 1), (5, 3), (8, 7), (16, 4)])
def test_axes_embed_is_bitwise_the_tile_and_scatter(d, k):
    rng = np.random.default_rng(d * 100 + k)
    center = rng.uniform(-3.0, 3.0, d)
    axes = np.sort(rng.choice(d, size=k, replace=False)).astype(np.intp)
    box = BoundsBox.cube(d, -4.0, 4.0)
    view = View(Problem(quadratic, box), center, axes,
                BoundsBox(box.lower[axes], box.upper[axes]))
    for phi in (rng.uniform(-4.0, 4.0, (7, k)), rng.uniform(-4.0, 4.0, k),
                np.zeros((3, k)), -np.zeros((2, k))):
        got = view.embed(phi)
        want = axes_embed_reference(center, axes, phi)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d,k", [(2, 1), (3, 3), (8, 5), (16, 16)])
def test_basis_embed_is_bitwise_the_matrix_product(d, k):
    rng = np.random.default_rng(d * 100 + k)
    center = rng.uniform(-3.0, 3.0, d)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :k]
    view = View(Problem(quadratic, BoundsBox.cube(d, -4.0, 4.0)), center,
                basis, BoundsBox.cube(k, -1.0, 1.0))
    assert view.dim == k
    phi = rng.uniform(-1.0, 1.0, (9, k))
    want = phi @ basis.T + center
    assert view.embed(phi).tobytes() == want.tobytes()


def test_a_view_of_no_directions_evaluates_the_peak():
    d = 4
    center = np.array([0.5, -1.0, 2.0, 0.25])
    p = Problem(quadratic, BoundsBox.cube(d, -4.0, 4.0))
    empty = BoundsBox(np.zeros(0), np.zeros(0))
    peak_logl = p.logl(center[None])[0]
    for basis in (np.zeros((d, 0)), np.zeros(0, dtype=np.intp)):
        view = View(p, center, basis, empty)
        assert view.dim == 0
        assert view.logl(np.zeros((1, 0)))[0] == peak_logl


def test_every_view_batch_counts_on_the_parent():
    d = 3
    p = Problem(quadratic, BoundsBox.cube(d, -4.0, 4.0))
    axes = View(p, np.zeros(d), np.array([0, 2], dtype=np.intp),
                BoundsBox.cube(2, -4.0, 4.0))
    basis = View(p, np.zeros(d), np.eye(d)[:, :2],
                 BoundsBox.cube(2, -4.0, 4.0))
    nested = View(axes, np.zeros(2), np.eye(2)[:, :1],
                  BoundsBox.cube(1, -4.0, 4.0))
    for view, n in ((axes, 5), (basis, 1), (nested, 4)):
        evals, calls = p.eval_counter, p.call_counter
        view.logl(np.zeros((n, view.dim)))
        assert (p.eval_counter - evals, p.call_counter - calls) == (n, 1)
        assert view.eval_counter == p.eval_counter


def test_reduction_of_an_active_view_evaluates_the_parent():
    # Axis 1 is flat, so the precheck hands back a View over axes (0, 2);
    # the reduced evaluator is a View of that View.
    def fn(x):
        return -0.5 * (4.0 * x[:, 0] ** 2 + x[:, 2] ** 2)

    p = Problem(fn, BoundsBox.cube(3, -5.0, 5.0))
    active = active_subproblem(p, precheck(p))
    assert isinstance(active, View) and active.dim == 2
    hessian = np.diag([-4.0, -1.0])
    peak = Peak(position=np.zeros(2), logl=0.0,
                hess_diag=np.diag(hessian), steps=np.full(2, 1e-3))
    report, reduced = reduce_mode(active, peak, hessian)
    assert report.d_eff == 2 and reduced.parent is active
    before = p.call_counter
    assert reduced.logl(np.zeros((2, 2))).tolist() == [0.0, 0.0]
    assert p.call_counter == before + 1


def test_every_exported_name_resolves():
    for name in laplev.__all__:
        assert getattr(laplev, name) is not None, name
    assert "View" in laplev.__all__
    assert not {"SubProblem", "ReducedProblem"} & set(dir(laplev))
