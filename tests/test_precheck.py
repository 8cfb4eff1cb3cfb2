import numpy as np
import pytest

from laplev.errors import (CenterEvaluationError, DegenerateProblemError,
                           LaplevError)
from laplev.precheck import FLAT_NATS, active_subproblem, precheck
from laplev.problem import BoundsBox, Problem
from laplev.targets import dim_cap, get_target, list_targets


def make_problem(fn, lo, hi, d):
    return Problem(fn, BoundsBox.cube(d, lo, hi))


def test_hand_case_one_flat_axis():
    # l = -x1^2/2 on [-5,5]^2: s = (25, 0), axis 2 is flat with marginal
    # log(10), its full prior width.
    p = make_problem(lambda x: -0.5 * x[:, 0] ** 2, -5, 5, 2)
    rep = precheck(p)
    np.testing.assert_allclose(rep.sensitivities, [25.0, 0.0], atol=1e-12)
    assert rep.flat == (1,) and rep.active == (0,)
    assert rep.log_z_marginal == pytest.approx(np.log(10.0), abs=1e-12)
    assert p.eval_counter == 5


def test_hand_case_absolute_flat_cut_3d():
    # Sensitivities (100, 0.05, 1e-9) nats: only axis 3 is at or below
    # FLAT_NATS, so axis 2 stays active however weak it is beside axis 1.
    def fn(x):
        # s_i = 2 a_i (half width)^2 with half width 2.5, so a = s / 12.5.
        return -(8.0 * x[:, 0] ** 2 + 4e-3 * x[:, 1] ** 2 + 8e-11 * x[:, 2] ** 2)

    p = make_problem(fn, -2.5, 2.5, 3)
    rep = precheck(p)
    np.testing.assert_allclose(rep.sensitivities, [100.0, 0.05, 1e-9], rtol=1e-9)
    assert rep.flat == (2,)
    assert rep.active == (0, 1)
    assert rep.log_z_marginal == pytest.approx(np.log(5.0), abs=1e-12)


def test_isotropic_gaussian_keeps_all_axes_active():
    p = make_problem(lambda x: -0.5 * np.sum(x * x, axis=1), -4, 6, 8)
    rep = precheck(p)
    assert rep.flat == ()
    assert rep.active == tuple(range(8))
    assert p.eval_counter == 17


def _walled_gaussian(x):
    # A unit Gaussian at (0.3, 0.5, -0.7), cut to -inf past x0 = 7.
    out = -0.5 * np.sum((x - np.array([0.3, 0.5, -0.7])) ** 2, axis=1)
    return np.where(x[:, 0] > 7.0, -np.inf, out)


def _two_walled_gaussian(x):
    # The same Gaussian, also cut to -inf past x1 = 7.
    return np.where(x[:, 1] > 7.0, -np.inf, _walled_gaussian(x))


def test_infinite_probe_leaves_the_finite_axes_active():
    # The +x0 probe at 8 reads -inf, so s_0 is infinite; with the second
    # wall the +x1 probe reads -inf too: sensitivities (inf, inf, 64). An
    # infinite sensitivity is active, and the cut is absolute, so it does
    # not make the finite axis 2 flat either.
    for fn, n_inf in ((_walled_gaussian, 1), (_two_walled_gaussian, 2)):
        rep = precheck(make_problem(fn, -8, 8, 3))
        assert np.isinf(rep.sensitivities[:n_inf]).all()
        assert np.isfinite(rep.sensitivities[n_inf:]).all()
        assert rep.sensitivities[2] == pytest.approx(64.0, rel=1e-12)
        assert rep.flat == ()
        assert rep.active == (0, 1, 2)


def test_exact_zero_sensitivity_is_flat_even_with_zero_median():
    # d=2 with one dead axis: half the sensitivities are 0, and the cut is
    # absolute, so no reference to the other axes is needed to catch it.
    p = make_problem(lambda x: np.cos(x[:, 0]), -1, 1, 2)
    rep = precheck(p)
    assert 1 in rep.flat


def test_degenerate_and_center_errors():
    p = make_problem(lambda x: np.zeros(x.shape[0]), -1, 1, 3)
    with pytest.raises(DegenerateProblemError):
        precheck(p)
    p = make_problem(lambda x: np.where(np.abs(x[:, 0]) < 0.5, -np.inf, 0.0), -1, 1, 2)
    with pytest.raises(CenterEvaluationError):
        precheck(p)


def test_axis_permutation_equivariance():
    def fn(x):
        return -(4.0 * x[:, 0] ** 2 + 1e-9 * x[:, 1] ** 2 + 0.5 * x[:, 2] ** 2)

    def fn_permuted(x):
        return fn(x[:, [2, 0, 1]])  # axis i of this problem is axis perm[i]

    rep = precheck(make_problem(fn, -3, 3, 3))
    rep_p = precheck(make_problem(fn_permuted, -3, 3, 3))
    # fn_permuted axis k carries fn's axis [2,0,1][k].
    np.testing.assert_allclose(rep_p.sensitivities[[2, 0, 1]], rep.sensitivities, rtol=1e-12)
    assert rep_p.log_z_marginal == pytest.approx(rep.log_z_marginal, abs=1e-12)


def _registry_sensitivities():
    # Every registry target at the grid's dims; a target whose every probe
    # reads the centre's value (ring) has no class to keep.
    out, degenerate = [], set()
    for name in list_targets():
        for dim in (2, 3, 4, 8, 16):
            if dim > dim_cap(name):
                continue
            try:
                target = get_target(name, dim)
            except LaplevError:
                continue
            try:
                out.append((f"{name}/{dim}", precheck(target.problem).sensitivities))
            except DegenerateProblemError:
                degenerate.add(name)
    return out, degenerate


def test_registry_sensitivities_sit_far_from_the_flat_cut():
    # The smallest finite sensitivity on the registry (mixture4's 1.385)
    # is far above FLAT_NATS, so no rounding of the probes moves a class.
    cells, degenerate = _registry_sensitivities()
    assert degenerate == {"ring"}
    for key, s in cells:
        finite = s[np.isfinite(s)]
        assert finite.min() >= 1e3 * FLAT_NATS, key
        flat = s <= FLAT_NATS
        for scale in (1.0 - 1e-12, 1.0 + 1e-12):
            assert np.array_equal(s * scale <= FLAT_NATS, flat), key


def test_active_subproblem_pins_at_center_and_counts_on_parent():
    def fn(x):
        return -0.5 * (x[:, 0] ** 2 + x[:, 2] ** 2)

    p = make_problem(fn, -5, 5, 3)
    rep = precheck(p)
    assert rep.flat == (1,)
    sub = active_subproblem(p, rep)
    assert sub.dim == 2
    before = p.eval_counter
    v = sub.logl(np.array([[1.0, 2.0]]))
    assert p.eval_counter == before + 1
    assert v[0] == pytest.approx(-0.5 * (1.0 + 4.0), abs=1e-14)


def test_full_active_returns_problem_unchanged():
    p = make_problem(lambda x: -0.5 * np.sum(x * x, axis=1), -2, 2, 2)
    rep = precheck(p)
    assert active_subproblem(p, rep) is p
