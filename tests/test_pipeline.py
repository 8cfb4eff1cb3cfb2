"""End-to-end pipeline: configuration, determinism, accounting, equivariance."""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from laplev.discovery import (
    N_COARSE,
    PROBE_STEP,
    Peak,
    basin_leaders,
    discover_modes,
    group_seeds,
)
from laplev.errors import (DegenerateProblemError, InvalidParameterError,
                           LaplevError, NoModesFoundError)
from laplev.evidence import mode_evidence, probe_offdiag
from laplev.lbfgs import fd_gradient, fd_steps, make_state, run_batch
from laplev.pipeline import (
    PRESETS,
    PipelineConfig,
    preset_config,
    result_json,
    run,
)
from laplev.precheck import FLAT_NATS
from laplev.problem import BoundsBox, Problem, View
from laplev.reduction import reduce_mode
from laplev.refine import refine_peaks
from laplev.targets import get_target, make_gaussian


def gaussian_problem(dim, mean=None, sigma=None, lo=-5.0, hi=5.0):
    mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=np.float64)
    sigma = np.ones(dim) if sigma is None else np.asarray(sigma, dtype=np.float64)

    def fn(x):
        return -0.5 * np.sum(((x - mean) / sigma) ** 2, axis=1)

    problem = Problem(fn, BoundsBox.cube(dim, lo, hi))
    truth = 0.5 * dim * np.log(2.0 * np.pi) + float(np.log(sigma).sum())
    return problem, truth


# ---------------------------------------------------------------------------
# configuration


def test_presets_match_documented_settings():
    fast = preset_config("fast")
    slow = preset_config("slow")
    cons = preset_config("conservative")
    assert (fast.ascent_steps, slow.ascent_steps, cons.ascent_steps) == (15, 15, 45)
    assert fast.name == "fast" and cons.name == "conservative"
    with pytest.raises(InvalidParameterError):
        preset_config("turbo")


def test_config_rejects_unknown_preset():
    for make in (PipelineConfig, preset_config):
        with pytest.raises(InvalidParameterError, match="unknown preset 'custom'"):
            make("custom")


def test_config_echo_has_the_three_keys():
    echo = preset_config("conservative", seed=7, reduce=True).echo()
    assert json.loads(json.dumps(echo)) == {
        "name": "conservative", "ascent_steps": 45, "reduce": True,
    }


@pytest.mark.parametrize("preset", PRESETS)
def test_config_is_its_preset(preset):
    assert PipelineConfig(name=preset) == preset_config(preset)
    assert (PipelineConfig(name=preset, seed=4, reduce=True)
            == preset_config(preset, seed=4, reduce=True))


# Each stage's arguments, and those of the ascent layer under the search,
# are exactly what its caller passes: a tolerance or budget is a module
# constant, never an argument, and no argument has a default.
STAGE_PARAMS = {
    group_seeds: ["problem", "seeds", "seed_logl", "lam_fine"],
    basin_leaders: ["basin", "parabolic"],
    discover_modes: ["problem", "seeds", "seed_logl", "lead_vals", "scales", "n_steps"],
    refine_peaks: ["problem", "coarse_peaks"],
    run_batch: ["problem", "theta0", "logl0", "axis_vals0", "iterations", "tol",
                "width"],
    make_state: ["problem", "theta0", "logl0", "axis_vals0", "width"],
    fd_gradient: ["problem", "theta", "width"],
    fd_steps: ["theta", "width"],
    mode_evidence: ["problem", "peak", "probe"],
    probe_offdiag: ["problem", "peaks", "rng"],
    reduce_mode: ["problem", "peak", "hessian"],
}


@pytest.mark.parametrize("stage", STAGE_PARAMS, ids=lambda f: f.__name__)
def test_stage_takes_only_what_its_caller_passes(stage):
    params = inspect.signature(stage).parameters
    assert list(params) == STAGE_PARAMS[stage]
    assert all(p.default is p.empty for p in params.values())


# ---------------------------------------------------------------------------
# determinism and accounting


CASES = [
    ("gaussian", 3, "fast"),
    ("correlated", 2, "slow"),
    ("bimodal-asym", 2, "conservative"),
]


@pytest.mark.parametrize("name,dim,preset", CASES)
def test_determinism_byte_identical_json(name, dim, preset):
    blobs = []
    for _ in range(2):
        target = get_target(name, dim)
        res = run(target.problem, preset_config(preset, seed=11))
        blobs.append(result_json(res))
    assert blobs[0] == blobs[1]


def test_a_run_does_not_depend_on_earlier_evaluations():
    # A spike far above the broad mode, too narrow for the survey to see:
    # evaluating it before the run must not raise the search's keep band
    # over the mode the ascent holds.
    c = np.array([3.0, -2.0, 1.5, 2.5])

    def spike_problem():
        def fn(x):
            broad = -0.5 * np.sum(x * x, axis=1)
            spike = 50.0 - 0.5 * np.sum((x - c) ** 2, axis=1) / 1e-8
            return np.logaddexp(broad, spike)
        return Problem(fn, BoundsBox.cube(4, -5.0, 5.0))

    config = preset_config("fast", seed=1)
    probed = spike_problem()
    probed.logl(c[None])
    assert result_json(run(probed, config)) == result_json(run(spike_problem(), config))


def test_different_seeds_may_differ_but_agree_numerically():
    vals = []
    for seed in (1, 2):
        target = get_target("gaussian", 3)
        res = run(target.problem, preset_config("fast", seed=seed))
        vals.append(res.log_z_total)
    assert vals[0] == pytest.approx(vals[1], abs=1e-9)


@pytest.mark.parametrize("name,dim,preset", CASES)
def test_eval_accounting_sums_to_counter(name, dim, preset):
    target = get_target(name, dim)
    res = run(target.problem, preset_config(preset, seed=5))
    assert sum(res.eval_counts.values()) == target.problem.eval_counter


@pytest.mark.parametrize("name,dim,preset,reduce", [
    ("gaussian", 8, "fast", False),
    ("mixture4", 4, "conservative", True),
    ("correlated", 8, "slow", False),
])
def test_call_accounting_counts_every_fn_call(name, dim, preset, reduce):
    # A subproblem's batch reaches fn as one call and counts once.
    def observe():
        target = get_target(name, dim)
        calls = []

        def counted(x):
            calls.append(x.shape[0])
            return target.problem.logl(x)

        problem = Problem(counted, target.problem.bounds)
        res = run(problem, preset_config(preset, seed=1, reduce=reduce))
        assert sum(res.call_counts.values()) == len(calls) == problem.call_counter
        assert sum(res.eval_counts.values()) == sum(calls)
        assert set(res.call_counts) == set(res.eval_counts)
        return result_json(res)

    assert observe() == observe()


def test_run_on_a_view_meters_the_parents_counters():
    # reduce_mode hands out Views; a run on one counts its evaluations and
    # calls on the parent. gaussian/4 sliced to axes 0-1, the other two
    # pinned at the box centre 1, is a unit Gaussian times exp(-1).
    parent = get_target("gaussian", 4).problem
    lower, upper = parent.bounds.lower, parent.bounds.upper
    view = View(parent, parent.bounds.center, np.array([0, 1]),
                BoundsBox(lower[:2], upper[:2]))
    res = run(view, preset_config("fast", seed=1))
    assert sum(res.eval_counts.values()) == parent.eval_counter == 288
    assert sum(res.call_counts.values()) == parent.call_counter == 6
    assert res.log_z_total == pytest.approx(np.log(2.0 * np.pi) - 1.0, abs=1e-9)


def test_gaussian_run_groups_and_ascends_in_one_call():
    # correlated/8 reads as one concave parabola on every ray, so the
    # grouping is skipped: the survey's best sample is the one seed, which
    # starts on the mode with its survey value, and the discover stage
    # makes the one call of its gradient probes. precheck 1, survey 1,
    # discover 1 and evidence 2 (the shared probe call, then the full
    # Hessian).
    res = run(get_target("correlated", 8).problem, preset_config("fast", seed=1))
    assert res.survey["ascents"] == 1
    assert res.call_counts == {"precheck": 1, "survey": 1, "discover": 1,
                               "refine": 0, "evidence": 2}


def test_concave_parabola_survey_climbs_from_its_best_sample():
    # Every correlated/8 ray is read at the probe as a concave parabola:
    # no seed is picked or grouped, and discover costs only the one seed's
    # 2d gradient probes, in one call.
    res = run(get_target("correlated", 8).problem, preset_config("slow", seed=1))
    n_rays = sum(res.survey[k] for k in ("v2v", "v2e", "w2w", "sunburst"))
    assert res.survey["seeds"] == 1 and res.survey["rays_read"] == n_rays
    assert res.survey["segments_read"] == res.survey["segments_completed"] == 0
    assert (res.eval_counts["discover"], res.call_counts["discover"]) == (16, 1)


def test_every_mode_is_probed_in_one_call():
    # mixture4/8's modes are all probed in one shared call, and each mode
    # still counts its own rows: 10 for the probe and tail screen.
    res = run(get_target("mixture4", 8).problem, preset_config("conservative", seed=1))
    assert len(res.modes) >= 2
    assert [m.hessian_kind for m in res.modes] == ["diagonal"] * len(res.modes)
    assert res.call_counts["evidence"] == 1
    assert [m.evals_used for m in res.modes] == [10] * len(res.modes)
    assert res.eval_counts["evidence"] == 10 * len(res.modes)


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("rotated-cigar", 16)])
def test_refine_stage_costs_nothing(name, dim):
    # The held peaks carry the diagonal Hessian the ascent measured, so
    # refine makes no likelihood call; its stage is still reported.
    res = run(get_target(name, dim).problem, preset_config("fast", seed=1))
    assert res.eval_counts["refine"] == res.call_counts["refine"] == 0


@pytest.mark.parametrize("preset", ("fast", "conservative"))
@pytest.mark.parametrize("dim", (2, 3))
def test_two_scale_wide_mode_measured_at_its_own_width(dim, preset):
    # The first wave's blind spot: at seed 1 no ray of the survey's first
    # wave crosses the narrow mode (sigma 1e-3, 1e-6 of Z at d = 2 and 1e-9
    # at d = 3), so every wave ray reads as one concave parabola and the
    # survey ends there. The wide mode is then the one mode, its width is
    # the survey's scale, and the ascent's own steps measure it: refine
    # makes no call. Its share of Z is all but the whole.
    target = get_target("two-scale", dim)
    res = run(target.problem, preset_config(preset, seed=1))
    assert len(res.modes) == 1 and res.warnings == []
    assert res.survey["lone_seed_ray"] is not None
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-4
    assert (res.call_counts["refine"], res.eval_counts["refine"]) == (0, 0)


# The two peaks a seed-1 ascent of two-scale held when the survey probed
# every ray: the narrow one, whose diagonal Hessian it read at its own
# steps, and the wide one, where those steps are a millionth of its width
# and the diagonal read zero. Position, value, diagonal and steps, as hex.
TWO_SCALE_HELD = {
    2: ((["0x1.0000000000000p+1"] * 2, "-0x1.387ffffff0e55p+13",
         ["-0x1.e848047c74b81p+19"] * 2, ["0x1.0c6f7bca00000p-20"] * 2),
        (["-0x1.0000000000000p+1"] * 2, "-0x1.3880000000000p+13",
         ["0x0.0p+0"] * 2, ["0x1.0c6f7bca00000p-20"] * 2)),
    3: ((["0x1.0000000000000p+1"] * 3, "-0x1.387ffffffffebp+13",
         ["-0x1.e8480ad2feaa8p+19"] * 3, ["0x1.0c6f7a0c00000p-20"] * 3),
        (["-0x1.fffffeecec852p+0", "-0x1.fffffc27adef7p+0", "-0x1.0000000000000p+1"],
         "-0x1.3880000000000p+13", ["0x0.0p+0"] * 3,
         ["0x1.0c6f7a0c00000p-20", "0x1.0c6f7a0d00000p-20", "0x1.0c6f7a0c00000p-20"])),
}


@pytest.mark.parametrize("dim", (2, 3))
def test_refine_measures_the_two_scale_wide_peak_at_its_own_width(dim):
    # The narrow peak set the ascent's steps, where the rounding of values
    # near -1e4 swamps the wide peak's second difference (it read zero, a
    # saddle, and the mode was lost). Refine measures that one peak again
    # at its own width, in one call of 2d rows, and keeps both peaks.
    problem = get_target("two-scale", dim).problem

    def hexes(xs):
        return np.array([float.fromhex(x) for x in xs])

    held = [Peak(hexes(pos), float.fromhex(logl), hexes(hess), hexes(steps))
            for pos, logl, hess, steps in TWO_SCALE_HELD[dim]]
    peaks, warnings = refine_peaks(problem, held)
    assert (problem.call_counter, problem.eval_counter) == (1, 2 * dim)
    assert len(peaks) == 2 and warnings == []
    assert all((pk.hess_diag < 0).all() for pk in peaks)


@pytest.mark.parametrize("seed", range(1, 9))
def test_conservative_eggbox_finds_every_mode(seed):
    # Fine ripple over five peaks: a basin none of whose leaders sticks
    # loses its peak, and the error jumps to about 0.2.
    target = get_target("eggbox", 2)
    res = run(target.problem, preset_config("conservative", seed=seed))
    assert len(res.modes) == 5
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-2


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name,dim,n_modes", [
    ("mixture4", 3, 4), ("mixture4", 4, 4), ("mixture4", 8, 4),
    ("mixture4", 16, 4), ("bimodal-asym", 3, 2), ("bimodal-asym", 8, 2),
])
def test_conservative_recalls_every_mode_above_d2(name, dim, n_modes, seed):
    # conservative's longer ascent must still find every mode of the
    # mixtures above d=2.
    target = get_target(name, dim)
    res = run(target.problem, preset_config("conservative", seed=seed))
    assert len(res.modes) == n_modes


@pytest.mark.parametrize("name,dim,preset,n_modes", [
    ("mixture4", 4, "fast", 4), ("mixture4", 8, "fast", 4),
    ("mixture4", 16, "fast", 4), ("bimodal-asym", 2, "fast", 2),
    ("bimodal-asym", 8, "fast", 2), ("eggbox", 2, "conservative", 5),
    ("eggbox", 2, "fast", 5), ("eggbox", 2, "slow", 5),
    ("mixture4", 8, "conservative", 4), ("mixture4", 16, "conservative", 4),
    ("bimodal-asym", 8, "conservative", 2),
])
def test_recall_over_forty_seeds(name, dim, preset, n_modes):
    # Recall guard for the survey's seeds: every mode is found on each of
    # seeds 1-40. The conservative mixture cells are where the most
    # ascents retire on a held peak's bowl; a retired ascent must never be
    # the only one that would have reached its mode. In its one ascent, an
    # eggbox basin's lone leader ends at the peak with finite-difference noise of about 8e-6 in its
    # gradient at logl 243; the stick rule's max(1, |logl|) scale must
    # still stick it.
    missed = [seed for seed in range(1, 41)
              if len(run(get_target(name, dim).problem,
                         preset_config(preset, seed=seed)).modes) != n_modes]
    assert missed == []


def test_rotated_cigar_d16_slow_is_exact_on_the_full_route():
    # A 1e6-conditioned rotated mode: refine measures the curvature at the
    # held peak, so the one mode survives and the full-Hessian route
    # integrates it exactly.
    target = get_target("rotated-cigar", 16)
    res = run(target.problem, preset_config("slow", seed=1))
    assert len(res.modes) == 1
    assert res.modes[0].hessian_kind == "full"
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-8


@pytest.mark.parametrize("preset", ("fast", "conservative"))
@pytest.mark.parametrize("dim", (3, 8, 16, 32))
def test_off_centre_cigar_is_exact(dim, preset):
    # cigar moved off the box centre, to m_i = 1.3 (0.3 + 0.7 i / (d - 1)):
    # its wide axis (sigma 1, 25 nats across the box) is active, so the
    # ascent finds its mode there rather than integrating it at the centre.
    var = np.full(dim, 1e-6)
    var[0] = 1.0
    mean = 1.3 * (0.3 + 0.7 * np.arange(dim) / (dim - 1))
    target = make_gaussian(dim, mean=mean, cov=var,
                           bounds=BoundsBox.cube(dim, -5.0, 5.0), name="cigar")
    res = run(target.problem, preset_config(preset, seed=1))
    assert res.precheck.active == tuple(range(dim))
    assert not res.warnings
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-8


@pytest.mark.parametrize("preset", PRESETS)
def test_rotated_cigar_d3_weak_axis_is_exact(preset):
    # Axis 2 reads a sensitivity 2e3 times below axis 0's, but it couples
    # to the others through the rotation: only the full 3-d Hessian holds
    # the Schur complement of that coupling.
    target = get_target("rotated-cigar", 3)
    res = run(target.problem, preset_config(preset, seed=1))
    assert res.precheck.active == (0, 1, 2)
    assert [m.hessian_kind for m in res.modes] == ["full"]
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-8


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("a", (1e-4, 1e-6, 1e-8, 1e-10))
def test_weak_axis_ladder(a, preset):
    # -(x0^2 + x1^2)/2 - a x2^2 on [-5, 5]^3: axis 2's sensitivity is 50 a
    # nats. At or below FLAT_NATS the axis is flat, and log Z is within
    # 1e-6 of the box integral; above it the axis is active, and log Z is
    # the R^d integral, 2 pi sqrt(pi / a).
    problem = Problem(lambda x: -0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2) - a * x[:, 2] ** 2,
                      BoundsBox.cube(3, -5.0, 5.0))
    res = run(problem, preset_config(preset, seed=1))
    assert res.precheck.sensitivities[2] == pytest.approx(50.0 * a, rel=1e-9)
    flat = 50.0 * a <= FLAT_NATS
    assert res.precheck.flat == ((2,) if flat else ())
    assert res.precheck.active == ((0, 1) if flat else (0, 1, 2))
    if flat:
        box = np.log(2.0 * np.pi) + np.log(np.sqrt(np.pi / a) * math.erf(5.0 * np.sqrt(a)))
        assert abs(res.log_z_total - box) <= 1e-6
    else:
        rd = np.log(2.0 * np.pi) + 0.5 * np.log(np.pi / a)
        assert abs(np.expm1(res.log_z_total - rd)) <= 1e-8


def test_off_centre_rotated_cigar_d12_needs_the_longer_ascent():
    # rotated-cigar/12 moved off the box centre, to m_i = 1.3 (0.3 + 0.7
    # i / 11), keeps its covariance and so its R^d evidence. Its
    # 1e6-conditioned mode takes more than fast's 15 ascent steps to
    # converge; conservative's 45 reach it and integrate it exactly.
    base = get_target("rotated-cigar", 12)
    mean = 1.3 * (0.3 + 0.7 * np.arange(12) / 11)

    def off_centre():
        return Problem(lambda x: base.problem.logl(x - mean), base.problem.bounds)

    with pytest.raises(NoModesFoundError):
        run(off_centre(), preset_config("fast", seed=1))
    res = run(off_centre(), preset_config("conservative", seed=1))
    assert len(res.modes) == 1
    assert abs(np.expm1(res.log_z_total - base.true_log_integral)) <= 1e-8


def test_conservative_mixture4_d3_overlaps_like_d4():
    # At d=3 the four modes form a tetrahedron with d=4's 3.8 sigma edges,
    # so the overlap error lands in criterion 3's d=4 band, overestimated.
    # Modes 2.7 apart (Hadamard columns 0-2) put Z 37% high.
    target = get_target("mixture4", 3)
    res = run(target.problem, preset_config("conservative", seed=1))
    assert len(res.modes) == 4
    err = np.expm1(res.log_z_total - target.true_log_integral)
    assert 5e-3 <= err <= 5e-2


def test_timings_present_but_excluded_from_canonical_json():
    target = get_target("gaussian", 2)
    res = run(target.problem, preset_config("fast", seed=1))
    assert set(res.timings_ms) == set(res.eval_counts)
    assert "timings_ms" not in json.loads(result_json(res))
    assert "timings_ms" in json.loads(result_json(res, with_timings=True))


SURVEY_KEYS = {"v2v", "v2e", "w2w", "sunburst", "rays_total", "dead", "rays_read",
               "lone_seed_ray", "scale", "scale_fallback", "seeds", "segments_read",
               "segments_completed", "ascents", "retired", "one_seed_basins"}


@pytest.mark.parametrize("name,dim", [("gaussian", 8), ("cigar", 32), ("mixture4", 16)])
def test_result_reports_its_survey(name, dim):
    # The survey block: ray counts per kind of the rays surveyed, the rays
    # generated, dead rays, the rays read at the probe, the ray of the lone
    # seed, the length scale, which is the scale the behaviour baseline
    # records for the cell, how many seeds were picked, how their segments
    # were tested, how many of the seeds ascended and how many basins
    # climbed from one seed.
    config = preset_config("fast", seed=1)
    texts = [result_json(run(get_target(name, dim).problem, config)) for _ in range(2)]
    assert texts[0] == texts[1]
    block = json.loads(texts[0])["survey"]
    assert set(block) == SURVEY_KEYS
    n = int(np.ceil(10 + np.log2(dim)))
    # A Gaussian's survey ends at its first wave, a quarter of each kind.
    held = n if name == "mixture4" else int(np.ceil(n / 4))
    assert [block[k] for k in ("v2v", "v2e", "w2w", "sunburst")] == [held] * 4
    assert block["rays_total"] == 4 * n and block["dead"] == 0
    baseline = json.loads(Path(__file__).with_name("baseline.json").read_text())
    scales = baseline[f"{name}/{dim}/fast"]["scales"]
    assert block["scale"] == float.fromhex(scales["lam"])
    assert block["scale_fallback"] is scales["fallback"]
    assert 0 < block["one_seed_basins"] <= block["ascents"] <= block["seeds"]
    assert 0 <= block["retired"] < block["ascents"]
    # A Gaussian's seeds form one basin of concave parabolas, which climbs
    # from its best seed alone.
    assert (block["ascents"] == block["one_seed_basins"] == 1) is (name != "mixture4")
    # Every seed after the best has one segment, which the grouping's probe
    # either decides or completes; cigar's are all decided.
    assert block["segments_read"] + block["segments_completed"] == block["seeds"] - 1
    assert (block["segments_completed"] == 0) is (name != "mixture4")
    # A Gaussian's survey is one call of its first wave's probe points:
    # every ray of the wave is one concave parabola, which skips the
    # grouping, and its best sample is the one seed, with no segment. On
    # cigar/32 none of the wall-to-wall rays along its wide axis, whose
    # probe values round by more than the parabola gate allows, is in the
    # wave. mixture4's first wave is not read so: its other rays are
    # probed, and those not read at the probe are completed, then refilled.
    res = json.loads(texts[0])
    if name == "mixture4":
        assert res["call_counts"]["survey"] == 4
        assert block["rays_read"] < 4 * n and block["seeds"] > 1
        assert block["lone_seed_ray"] is None
    else:
        assert res["call_counts"]["survey"] == 1
        assert res["eval_counts"]["survey"] == 4 * held * len(range(0, N_COARSE, PROBE_STEP))
        assert block["rays_read"] == 4 * held and block["seeds"] == 1
        assert block["lone_seed_ray"] % n < held



@pytest.mark.parametrize("name,dim,preset", [("gaussian", 8, "fast"),
                                             ("mixture4", 8, "conservative")])
def test_survey_counts_the_retired_ascents(name, dim, preset):
    # A lone leader has no held peak to retire on. On mixture4/8 most
    # leaders climb into a basin whose peak another leader already holds,
    # and retire on its bowl; every mode still keeps an ascent of its own.
    config = preset_config(preset, seed=1)
    texts = [result_json(run(get_target(name, dim).problem, config)) for _ in range(2)]
    assert texts[0] == texts[1]
    res = json.loads(texts[0])
    block = res["survey"]
    if name == "gaussian":
        assert block["ascents"] == 1 and block["retired"] == 0
    else:
        assert 0 < block["retired"] <= block["ascents"] - len(res["modes"])


# ---------------------------------------------------------------------------
# flat dimensions and coordinate embedding


def flat_embedded_problem():
    # Standard normal over 8 of 10 coordinates; coordinates 5 and 8 ignored.
    used = [0, 1, 2, 3, 4, 6, 7, 9]

    def fn(x):
        return -0.5 * np.sum(x[:, used] ** 2, axis=1)

    problem = Problem(fn, BoundsBox.cube(10, -5.0, 5.0))
    truth = 8 * 0.5 * np.log(2.0 * np.pi) + 2 * np.log(10.0)
    return problem, truth


def test_flat_dimensions_detected_and_integrated():
    problem, truth = flat_embedded_problem()
    res = run(problem, preset_config("fast", seed=3))
    assert res.precheck.flat == (5, 8)
    assert res.eval_counts["precheck"] == 2 * 10 + 1
    assert abs(np.exp(res.log_z_total - truth) - 1.0) < 1e-9


def test_infinite_axis_probe_leaves_the_other_axes_active():
    # The +x0 precheck probe reads -inf at the support edge past x0 = 7,
    # and with the second wall the +x1 probe too. Every axis stays active
    # and the run integrates the Gaussian exactly, on both search depths.
    # Were infinite sensitivities the flat reference, the two walls would
    # make axis 2 flat over its whole width: Z 4x high, with no warning.
    mu = np.array([0.3, 0.5, -0.7])

    def one_wall(x):
        out = -0.5 * np.sum((x - mu) ** 2, axis=1)
        return np.where(x[:, 0] > 7.0, -np.inf, out)

    def two_walls(x):
        return np.where(x[:, 1] > 7.0, -np.inf, one_wall(x))

    truth = 1.5 * np.log(2.0 * np.pi)
    for fn in (one_wall, two_walls):
        for preset in ("fast", "conservative"):
            res = run(Problem(fn, BoundsBox.cube(3, -8.0, 8.0)),
                      preset_config(preset, seed=1))
            assert res.precheck.flat == ()
            assert abs(np.exp(res.log_z_total - truth) - 1.0) <= 1e-9


def test_mode_locations_are_full_coordinates():
    problem, _ = flat_embedded_problem()
    res = run(problem, preset_config("fast", seed=3))
    position = res.modes[0].peak.position
    assert position.shape == (10,)
    assert position[5] == 0.0 and position[8] == 0.0
    np.testing.assert_allclose(np.delete(position, [5, 8]), 0.0, atol=1e-8)


def test_permutation_equivariance_on_axis_aligned_target():
    mean = np.array([0.3, -0.7, 1.1, 0.0])
    sigma = np.array([0.5, 1.0, 2.0, 0.8])
    perm = [2, 0, 3, 1]
    p1, z1 = gaussian_problem(4, mean, sigma)
    p2, z2 = gaussian_problem(4, mean[perm], sigma[perm])
    assert z1 == pytest.approx(z2)
    r1 = run(p1, preset_config("fast", seed=9))
    r2 = run(p2, preset_config("fast", seed=9))
    assert r1.log_z_total == pytest.approx(r2.log_z_total, abs=1e-10)
    assert len(r1.modes) == len(r2.modes) == 1
    np.testing.assert_allclose(r1.modes[0].peak.position, mean, atol=1e-8)
    np.testing.assert_allclose(r2.modes[0].peak.position, mean[perm], atol=1e-8)


# ---------------------------------------------------------------------------
# errors and stage tags


def test_no_modes_error_carries_stage_and_bank_summary():
    # At d=8 the funnel's neck is too narrow for any sample to stick.
    target = get_target("funnel-3", 8)
    with pytest.raises(NoModesFoundError) as excinfo:
        run(target.problem, preset_config("slow", seed=1))
    assert excinfo.value.stage == "discover"
    assert "survey held" in str(excinfo.value)


@pytest.mark.parametrize("dim", (3, 4))
def test_low_dim_funnel_refuses_or_warns(dim):
    # At d <= 5 the search can reach the funnel's neck; the Gaussian step
    # there misses most of the mass, so an answer must say so.
    target = get_target("funnel-3", dim)
    try:
        res = run(target.problem, preset_config("slow", seed=1))
    except LaplevError as err:
        assert err.stage is not None
        return
    assert "heavy-tail geometry detected" in res.warnings


def test_all_pathological_coordinates_raise_at_precheck():
    problem = Problem(lambda x: np.zeros(x.shape[0]), BoundsBox.cube(2, -1, 1))
    with pytest.raises(DegenerateProblemError) as excinfo:
        run(problem, preset_config("fast", seed=1))
    assert excinfo.value.stage == "precheck"


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_ring_error_says_what_the_probes_read(dim):
    # The box center and every axis probe at +-half width sit at the same
    # distance from ring's radius, so all sensitivities vanish although the
    # likelihood varies along every axis. The error says what was measured,
    # not that the likelihood is constant, after the one 2d+1 batch.
    problem = get_target("ring", dim).problem
    with pytest.raises(DegenerateProblemError) as excinfo:
        run(problem, preset_config("slow", seed=1))
    assert excinfo.value.stage == "precheck"
    assert str(excinfo.value) == (
        "every axis probe at +-half width read the center's value; the "
        "likelihood may still vary between the probes"
    )
    assert problem.eval_counter == 2 * dim + 1


# ---------------------------------------------------------------------------
# reduction attachment


def test_reduce_flag_attaches_reports():
    target = make_gaussian(3, cov=np.diag([1.0, 4.0, 9.0]))
    res = run(target.problem, preset_config("fast", seed=2, reduce=True))
    assert res.reduction is not None and len(res.reduction) == len(res.modes)
    assert res.reduction[0].d_eff == 3
    blob = json.loads(result_json(res))
    assert blob["reduction"][0]["d_eff"] == 3
    assert "reduce" in res.eval_counts  # zero extra likelihood evaluations
    assert res.eval_counts["reduce"] == 0


def test_reduce_flag_off_omits_reports():
    target = get_target("gaussian", 2)
    res = run(target.problem, preset_config("fast", seed=2))
    assert res.reduction is None
    assert "reduction" not in json.loads(result_json(res))
