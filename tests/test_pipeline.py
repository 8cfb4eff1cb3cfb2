"""End-to-end pipeline: configuration, determinism, accounting, equivariance."""

import json

import numpy as np
import pytest

from laplev.errors import (DegenerateProblemError, InvalidParameterError,
                           NoModesFoundError)
from laplev.pipeline import (
    DEFAULT_BUDGETS,
    DEFAULT_TOLERANCES,
    PipelineConfig,
    preset_config,
    result_json,
    run,
)
from laplev.problem import BoundsBox, Problem
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
    assert (fast.n_oscillations, fast.fast_refine) == (1, True)
    assert (slow.n_oscillations, slow.fast_refine) == (1, False)
    assert (cons.n_oscillations, cons.fast_refine) == (3, False)
    assert fast.name == "fast" and cons.name == "conservative"
    with pytest.raises(InvalidParameterError):
        preset_config("turbo")


def test_config_defaults_fill_partial_overrides():
    cfg = PipelineConfig(tolerances={"stick_grad": 1e-5},
                         budgets={"n_coarse": 16})
    assert cfg.tolerances["stick_grad"] == 1e-5
    assert cfg.tolerances["refine_grad"] == DEFAULT_TOLERANCES["refine_grad"]
    assert cfg.budgets["n_coarse"] == 16
    assert cfg.budgets["n_cloud"] == DEFAULT_BUDGETS["n_cloud"]


def test_config_rejects_bad_values():
    with pytest.raises(InvalidParameterError):
        PipelineConfig(n_oscillations=0)
    with pytest.raises(InvalidParameterError):
        PipelineConfig(tolerances={"stick_grad": -1e-6})
    with pytest.raises(InvalidParameterError):
        PipelineConfig(tolerances={"mystery_knob": 1.0})
    with pytest.raises(InvalidParameterError):
        PipelineConfig(budgets={"n_coarse": 2.5})
    with pytest.raises(InvalidParameterError):
        PipelineConfig(budgets={"warp_drive": 3})


def test_config_echo_serializes():
    echo = preset_config("fast", seed=7).echo()
    back = json.loads(json.dumps(echo))
    assert back["name"] == "fast"
    assert back["budgets"]["n_coarse"] == DEFAULT_BUDGETS["n_coarse"]


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


@pytest.mark.parametrize("seed", range(1, 9))
def test_conservative_eggbox_finds_every_mode(seed):
    # The ripple the smoothed ascent exists for: without that step, or with
    # a too-noisy gradient in it, some seeds lose one of the five peaks and
    # the error jumps to about 0.2.
    target = get_target("eggbox", 2)
    res = run(target.problem, preset_config("conservative", seed=seed))
    assert len(res.modes) == 5
    assert abs(np.expm1(res.log_z_total - target.true_log_integral)) <= 1e-2


def test_timings_present_but_excluded_from_canonical_json():
    target = get_target("gaussian", 2)
    res = run(target.problem, preset_config("fast", seed=1))
    assert set(res.timings_ms) == set(res.eval_counts)
    assert "timings_ms" not in json.loads(result_json(res))
    assert "timings_ms" in json.loads(result_json(res, with_timings=True))


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
    target = get_target("funnel-3", 4)
    with pytest.raises(NoModesFoundError) as excinfo:
        run(target.problem, preset_config("slow", seed=1))
    assert excinfo.value.stage == "discover"
    assert "survey held" in str(excinfo.value)


def test_all_pathological_coordinates_raise_at_precheck():
    problem = Problem(lambda x: np.zeros(x.shape[0]), BoundsBox.cube(2, -1, 1))
    with pytest.raises(DegenerateProblemError) as excinfo:
        run(problem, preset_config("fast", seed=1))
    assert excinfo.value.stage == "precheck"


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
