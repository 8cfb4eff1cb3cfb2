"""Acceptance suite: the eight headline guarantees, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every criterion states its tolerance inline; the assertions use the
same numbers, so a FAIL line always comes with a failing test.
"""

import copy
import json

import numpy as np
import pytest

from laplev.discovery import Peak, estimate_scales, survey
from laplev.evidence import mode_evidence, probe_offdiag
from laplev.lbfgs import fd_gradient, make_state
from laplev.linalg import (cholesky_lower, dedup_linf, eig_symmetric,
                           logsumexp)
from laplev.errors import NoModesFoundError
from laplev.pipeline import preset_config, result_json, run
from laplev.problem import BoundsBox, Problem
from laplev.refine import refine_peaks
from laplev.targets import get_target

LOG_2PI = float(np.log(2.0 * np.pi))


def _report(num, label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def ratio_err(log_z_est, log_z_true):
    with np.errstate(over="ignore"):
        return float(abs(np.expm1(log_z_est - log_z_true)))


def solve(name, dim, preset, seed):
    target = get_target(name, dim, allow_large=True)
    res = run(target.problem, preset_config(preset, seed=seed))
    return target, res


def test_criterion_1_gaussian_exactness():
    # Isotropic Gaussian, preset fast, 5 seeds: relative integral error
    # below 1e-9 at every d in {2, 8, 32, 64, 128}; one seed at each of the
    # paper's high dimensions, d in {256, 512, 1024}.
    worst = (0.0, None)
    cells = [(dim, seed) for dim in (2, 8, 32, 64, 128) for seed in range(1, 6)]
    cells += [(dim, 1) for dim in (256, 512, 1024)]
    for dim, seed in cells:
        target, res = solve("gaussian", dim, "fast", seed)
        err = ratio_err(res.log_z_total, target.true_log_integral)
        if err > worst[0]:
            worst = (err, (dim, seed))
    ok = worst[0] < 1e-9
    _report(1, "gaussian exactness", ok,
            f"worst rel error {worst[0]:.3e} at (d, seed)={worst[1]} "
            f"(tolerance 1e-9, {len(cells)} runs)")


def test_criterion_2_anisotropic_rotated_family():
    # 1e6:1 cigar at d in {4, 16}; correlated at d in {2, 8, 16, 32, 64};
    # rotated-cigar at d in {2, 3, 5, 6, 8, 16, 32}. Relative error < 1e-8 and
    # the rotation detector must route the cigar to the diagonal Hessian and
    # the other two to the full one. 5 seeds.
    cases = [("cigar", (4, 16), "diagonal"),
             ("correlated", (2, 8, 16, 32, 64), "full"),
             ("rotated-cigar", (2, 3, 5, 6, 8, 16, 32), "full")]
    worst = (0.0, None)
    bad_routes = []
    for name, dims, want in cases:
        for dim in dims:
            for seed in range(1, 6):
                target, res = solve(name, dim, "fast", seed)
                err = ratio_err(res.log_z_total, target.true_log_integral)
                if err > worst[0]:
                    worst = (err, (name, dim, seed))
                got = {m.hessian_kind for m in res.modes}
                if got != {want}:
                    bad_routes.append((name, dim, seed, got))
    ok = worst[0] < 1e-8 and not bad_routes
    _report(2, "anisotropic/rotated family", ok,
            f"worst rel error {worst[0]:.3e} at {worst[1]} (tolerance 1e-8), "
            f"route mismatches: {bad_routes or 'none'} (70 runs)")


def test_criterion_3_mixture_trend():
    # Four-Gaussian mixture, conservative preset. Error bands per dim, and
    # at 4D the mode overlap must OVERestimate Z (band [0.5%, 5%]).
    errs = {}
    over_4d = None
    for dim in (2, 4, 8, 16):
        target, res = solve("mixture4", dim, "conservative", 1)
        errs[dim] = ratio_err(res.log_z_total, target.true_log_integral)
        if dim == 4:
            over_4d = res.log_z_total > target.true_log_integral
    ok = (errs[2] <= 5e-4 and errs[8] <= 5e-3 and errs[16] <= 5e-3
          and 5e-3 <= errs[4] <= 5e-2 and over_4d)
    _report(3, "mixture trend", ok,
            "rel errors " + ", ".join(f"{d}D={errs[d]:.3e}" for d in errs)
            + f"; bands 2D<=5e-4, 4D in [5e-3, 5e-2] overestimated "
              f"(got {'over' if over_4d else 'under'}), 8D/16D<=5e-3")


def test_criterion_4_bimodal_asymmetric():
    # Asymmetric two-mode Gaussian: both modes found at d in {2, 8},
    # relative error <= 0.1%. Three seeds per dim.
    worst = (0.0, None)
    miscounts = []
    for dim in (2, 8):
        for seed in (1, 2, 3):
            target, res = solve("bimodal-asym", dim, "conservative", seed)
            if len(res.modes) != 2:
                miscounts.append((dim, seed, len(res.modes)))
            err = ratio_err(res.log_z_total, target.true_log_integral)
            if err > worst[0]:
                worst = (err, (dim, seed))
    ok = not miscounts and worst[0] <= 1e-3
    _report(4, "bimodal asymmetric", ok,
            f"modes found 2/2 in {'all' if not miscounts else miscounts} runs, "
            f"worst rel error {worst[0]:.3e} (tolerance 1e-3)")


def test_criterion_5_failure_mode_directionality():
    # Heavy tails: Student-t nu=3 error in [15%, 60%] at 2D, strictly
    # growing 2D -> 8D -> 16D, always underestimated. Banana b=0.1 stays
    # within 10%. Funnel at d >= 4 must fail loudly or flag itself.
    t_err, t_under = {}, {}
    for dim in (2, 8, 16):
        target, res = solve("student-t-3", dim, "slow", 1)
        t_err[dim] = ratio_err(res.log_z_total, target.true_log_integral)
        t_under[dim] = res.log_z_total < target.true_log_integral
    student_ok = (0.15 <= t_err[2] <= 0.60
                  and t_err[2] < t_err[8] < t_err[16]
                  and all(t_under.values()))

    b_err = {}
    for dim in (2, 8, 16):
        target, res = solve("banana-0.1", dim, "slow", 1)
        b_err[dim] = ratio_err(res.log_z_total, target.true_log_integral)
    banana_ok = all(e <= 0.10 for e in b_err.values())

    funnel_notes = []
    funnel_ok = True
    for dim in (4, 6):
        try:
            target, res = solve("funnel-3", dim, "slow", 1)
        except NoModesFoundError:
            funnel_notes.append(f"d={dim}: no-modes-found")
        else:
            if res.warnings:
                funnel_notes.append(f"d={dim}: flagged ({len(res.warnings)} warnings)")
            else:
                funnel_ok = False
                funnel_notes.append(f"d={dim}: SILENT CONFIDENT ANSWER")

    ok = student_ok and banana_ok and funnel_ok
    _report(5, "failure-mode directionality", ok,
            f"student-t errors {t_err[2]:.3f} -> {t_err[8]:.3f} -> "
            f"{t_err[16]:.3f} (underestimated {all(t_under.values())}); "
            f"banana max {max(b_err.values()):.3e} (<=0.1); "
            f"funnel {', '.join(funnel_notes)}")


def test_criterion_6_precheck_exactness():
    # 8-d Gaussian embedded in 10 dims with 2 exactly-flat coordinates:
    # flat set found exactly, precheck spends exactly 2*10+1 evaluations,
    # total log Z error under 1e-9.
    used = [0, 1, 2, 3, 4, 6, 7, 9]

    def fn(x):
        return -0.5 * np.sum(x[:, used] ** 2, axis=1)

    problem = Problem(fn, BoundsBox.cube(10, -5.0, 5.0))
    truth = 8 * 0.5 * LOG_2PI + 2 * np.log(10.0)
    res = run(problem, preset_config("fast", seed=1))
    flats = tuple(res.precheck.flat)
    log_err = abs(res.log_z_total - truth)
    ok = (flats == (5, 8) and res.eval_counts["precheck"] == 21
          and log_err < 1e-9)
    _report(6, "precheck exactness", ok,
            f"flat set {flats} (want (5, 8)), precheck evals "
            f"{res.eval_counts['precheck']} (want 21), |log Z error| "
            f"{log_err:.3e} (tolerance 1e-9)")


def _prop_laplace_exactness(n_cases=200):
    # Random rotated PD quadratics, d in [1, 32], condition up to ~10 (the
    # extreme-condition regime is criterion 2's job, at pipeline level).
    # refine_peaks and mode_evidence run at their stage settings, tail
    # screen included, from held peaks within 1e-7 of the optimum.
    # Peak values sit at 0, as most bundled targets' do: the curvature
    # stencil loses eps_mach*|logl*|/step^2 of relative precision to
    # rounding, so exactness-grade results presume a roughly normalized
    # peak. Geometries stay clear of the rotation
    # detector's 5% dead band: either exactly axis-aligned, or rotations
    # with off-diagonal mass >= 15% of the diagonal (inside the band the
    # diagonal route is the documented approximation, not an exact one).
    rng = np.random.default_rng(20260814)
    worst = [0.0, 0.0]
    for _ in range(n_cases):
        d = int(rng.integers(1, 33))
        lam = np.exp(np.linspace(np.log(1.0 / 3.0), np.log(3.0), d)
                     + rng.uniform(-0.1, 0.1, d))
        if d == 1 or rng.random() < 0.3:
            prec = np.diag(lam)
        else:
            while True:
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                prec = (q * lam) @ q.T
                prec = 0.5 * (prec + prec.T)
                off = np.max(np.abs(prec - np.diag(np.diag(prec))))
                if off >= 0.15 * np.max(np.diag(prec)):
                    break
        center = rng.uniform(-3.0, 3.0, d)

        def fn(x, a=prec, c=center):
            dx = x - c
            return -0.5 * np.einsum("ni,ij,nj->n", dx, a, dx)

        problem = Problem(fn, BoundsBox.cube(d, -10.0, 10.0))
        truth = 0.5 * d * LOG_2PI - 0.5 * float(
            np.sum(np.log(np.linalg.eigvalsh(prec))))
        start = center + rng.uniform(-1.0, 1.0, d) * 1e-7
        # The held peak as the search hands it over: the diagonal is the
        # second difference its last gradient evaluated, at the ascent's
        # steps for the length scale the survey reads on this quadratic,
        # and again for a length scale of 1e-5, whose steps sit at the
        # sqrt(eps_mach) * (1 + |x|) floor. Both read the same probe draws.
        lam_fine = estimate_scales(survey(problem, np.random.default_rng(0)),
                                   problem.bounds).lam_fine
        probe_rng = copy.deepcopy(rng)
        for k, scale in enumerate((lam_fine, 1e-5)):
            state = make_state(problem, start[None, :], problem.logl(start), (), scale)
            hess, steps = state.hess_diag([0])
            held = Peak(start, float(state.logl[0]), hess[0], steps[0])
            peaks, _ = refine_peaks(problem, [held])
            probe, = probe_offdiag(problem, peaks, rng=rng if k == 0 else probe_rng)
            me = mode_evidence(problem, peaks[0], probe)
            worst[k] = max(worst[k], ratio_err(me.log_z, truth))
    return max(worst) < 1e-9, (f"laplace worst {worst[0]:.2e} at the survey's"
                               f" scale, {worst[1]:.2e} at 1e-5")


def _prop_fd_gradient(n_points=100):
    rng = np.random.default_rng(7)
    sigma = np.array([0.5, 1.0, 2.0, 4.0])

    def fn(x):
        return -0.5 * np.sum((x / sigma) ** 2, axis=1)

    problem = Problem(fn, BoundsBox.cube(4, -8.0, 8.0))
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-4.0, 4.0, 4)
        g = fd_gradient(problem, x[None, :], 0.0)[0][0]
        g_true = -x / sigma**2
        worst = max(worst, float(np.max(np.abs(g - g_true))
                                 / max(1.0, np.max(np.abs(g_true)))))
    return worst < 1e-6, f"fd_gradient worst {worst:.2e}"


def _prop_logdet_routes(n_cases=100):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 33))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.exp(rng.uniform(-2.0, 4.0, d))
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
        via_eig = float(np.sum(np.log(eig_symmetric(a)[0])))
        via_chol = 2.0 * float(np.sum(np.log(np.diag(cholesky_lower(a)))))
        worst = max(worst, abs(via_eig - via_chol) / max(1.0, abs(via_eig)))
    return worst < 1e-10, f"logdet eig-vs-cholesky worst {worst:.2e}"


def _prop_logsumexp(n_vectors=1000):
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(n_vectors):
        n = int(rng.integers(1, 40))
        v = rng.uniform(-700.0, 700.0, n)
        shift = float(rng.uniform(-100.0, 100.0))
        if abs(logsumexp(v + shift) - (logsumexp(v) + shift)) > 1e-10 * max(
                1.0, abs(logsumexp(v))):
            ok = False
        w = v.copy()
        w[rng.integers(0, n)] = -np.inf
        keep = w[np.isfinite(w)]
        want = logsumexp(keep) if keep.size else -np.inf
        if abs(logsumexp(w) - want) > 1e-12 * max(1.0, abs(want)) and want != logsumexp(w):
            ok = False
    return ok, "logsumexp shift/-inf on 1000 vectors"


def _prop_dedup(n_trials=30):
    rng = np.random.default_rng(17)
    for _ in range(n_trials):
        n = int(rng.integers(1, 201))
        pts = rng.uniform(-2.0, 2.0, (n, 3))
        sc = rng.uniform(-5.0, 5.0, n)
        radius = float(rng.uniform(0.05, 1.0))
        kept = dedup_linf(pts, sc, radius)
        # Independent O(N^2) greedy oracle.
        order = np.lexsort((np.arange(n), -sc))
        survivors = []
        for i in order:
            if all(np.max(np.abs(pts[i] - pts[j])) > radius for j in survivors):
                survivors.append(int(i))
        if sorted(survivors) != list(kept):
            return False, "dedup mismatch vs brute force"
        again = dedup_linf(pts[kept], sc[kept], radius)
        if list(again) != list(range(len(kept))):
            return False, "dedup not idempotent"
    return True, f"dedup vs oracle, {n_trials} trials"


def _prop_determinism():
    combos = [("gaussian", 3, "fast"), ("correlated", 2, "slow"),
              ("mixture4", 2, "conservative")]
    for name, dim, preset in combos:
        docs = []
        for _ in range(2):
            target = get_target(name, dim)
            docs.append(result_json(run(target.problem,
                                        preset_config(preset, seed=5))))
        if docs[0] != docs[1]:
            return False, f"nondeterministic JSON for {name}/{preset}"
    return True, "byte-identical JSON, 3 problem/preset pairs x2"


def test_criterion_7_property_suites():
    checks = [_prop_laplace_exactness(), _prop_fd_gradient(),
              _prop_logdet_routes(), _prop_logsumexp(), _prop_dedup(),
              _prop_determinism()]
    ok = all(c[0] for c in checks)
    _report(7, "property suites", ok,
            "; ".join(("ok: " if c[0] else "FAILED: ") + c[1] for c in checks))


def test_criterion_8_evaluation_scaling():
    # Fast-preset isotropic Gaussian: total likelihood evaluations must grow
    # sub-quadratically in dimension (fitted log-log exponent < 1.6), up to
    # the paper's d=1024.
    dims = np.array([8, 16, 32, 64, 128, 256, 512, 1024], dtype=float)
    evals = []
    for dim in dims.astype(int):
        target, res = solve("gaussian", int(dim), "fast", 1)
        evals.append(sum(res.eval_counts.values()))
    slope = float(np.polyfit(np.log(dims), np.log(evals), 1)[0])
    ok = slope < 1.6
    _report(8, "evaluation scaling", ok,
            f"evals {evals} over d={dims.astype(int).tolist()}, fitted "
            f"exponent {slope:.3f} (must be < 1.6)")
