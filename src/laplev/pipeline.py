"""End-to-end evidence pipeline.

Stages run in a fixed order — coordinate screen, ray survey, oscillating
mode search, quasi-Newton polish, per-mode Gaussian integral, optional
dimensional reduction — each consuming the previous stage's output on the
active-coordinate subproblem. Results are bitwise deterministic for a fixed
(problem, config) pair: every random draw comes from streams spawned off the
config seed, and each likelihood batch reaches the evaluator as one call.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .discovery import (
    N_COARSE,
    discover_modes,
    estimate_scales,
    select_seeds,
    survey,
)
from .errors import (
    HessianFailedError,
    InvalidParameterError,
    LaplevError,
    NoModesFoundError,
    NotPositiveDefiniteError,
)
from .evidence import PERP_ROTATED, combine, mode_evidence
from .precheck import EPS_FLAT, EPS_SOFT, active_subproblem, precheck
from .reduction import reduce_mode
from .refine import refine_peaks

DEFAULT_TOLERANCES = {
    "stick_grad": 1e-6,      # ascent stopping gradient (coarse search)
    "refine_grad": 1e-10,    # polish stopping gradient
    "eps_flat": EPS_FLAT,    # flat-coordinate sensitivity cut
    "eps_soft": EPS_SOFT,    # soft-coordinate sensitivity cut
    "eps_rot": PERP_ROTATED,  # rotation-detector threshold
    "dedup_radius": 1e-3,    # duplicate-peak radius, fraction of mean width
}

DEFAULT_BUDGETS = {
    "n_coarse": N_COARSE,    # coarse samples per survey ray
    "n_converge": 15,        # ascent steps per oscillation
    "n_anticonverge": 10,    # repulsion steps between oscillations
    "n_cloud": 5,            # smoothed-ascent steps between oscillations
    "k_smooth": 8,           # smoothing cloud at d <= 2; step cost <= 4x this
    "lbfgs_memory": 10,      # curvature pairs kept per polish sample
}

PRESETS = ("fast", "slow", "conservative")


@dataclass(frozen=True)
class PipelineConfig:
    """Complete, validated run configuration.

    ``tolerances`` and ``budgets`` accept partial overrides; missing keys
    take the defaults above, unknown keys are rejected.
    """

    n_oscillations: int = 3
    fast_refine: bool = False
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    reduce: bool = False
    name: str = "custom"

    def __post_init__(self):
        if int(self.n_oscillations) != self.n_oscillations or self.n_oscillations < 1:
            raise InvalidParameterError("n_oscillations must be an integer >= 1")
        tol = dict(DEFAULT_TOLERANCES)
        unknown = set(self.tolerances) - set(tol)
        if unknown:
            raise InvalidParameterError(f"unknown tolerances: {sorted(unknown)}")
        tol.update(self.tolerances)
        for key, value in tol.items():
            if not (np.isfinite(value) and value > 0):
                raise InvalidParameterError(f"tolerance {key} must be positive")
        bud = dict(DEFAULT_BUDGETS)
        unknown = set(self.budgets) - set(bud)
        if unknown:
            raise InvalidParameterError(f"unknown budgets: {sorted(unknown)}")
        bud.update(self.budgets)
        for key, value in bud.items():
            if int(value) != value or value < 1:
                raise InvalidParameterError(f"budget {key} must be an integer >= 1")
        object.__setattr__(self, "tolerances", tol)
        object.__setattr__(self, "budgets", {k: int(v) for k, v in bud.items()})

    def echo(self) -> dict:
        """JSON-stable copy of everything that influences the result."""
        return {
            "name": self.name,
            "n_oscillations": int(self.n_oscillations),
            "fast_refine": bool(self.fast_refine),
            "reduce": bool(self.reduce),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "budgets": {k: int(v) for k, v in sorted(self.budgets.items())},
        }


def preset_config(name, *, seed=0, reduce=False, **overrides) -> PipelineConfig:
    """The three named configurations: fast, slow, conservative.

    fast uses a single oscillation with the cheap polish; slow keeps one
    oscillation but polishes fully; conservative runs three oscillations
    with the full polish.
    """
    if name == "fast":
        base = dict(n_oscillations=1, fast_refine=True)
    elif name == "slow":
        base = dict(n_oscillations=1, fast_refine=False)
    elif name == "conservative":
        base = dict(n_oscillations=3, fast_refine=False)
    else:
        raise InvalidParameterError(
            f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        )
    base.update(overrides)
    return PipelineConfig(seed=seed, reduce=reduce, name=name, **base)


class _Meter:
    """Per-stage evaluation and wall-time bookkeeping."""

    def __init__(self, problem):
        self.problem = problem
        self.counts = {}
        self.timings = {}
        self._mark = problem.eval_counter
        self._tick = time.perf_counter()

    def close(self, stage) -> None:
        now_evals = self.problem.eval_counter
        now_time = time.perf_counter()
        self.counts[stage] = self.counts.get(stage, 0) + (now_evals - self._mark)
        self.timings[stage] = self.timings.get(stage, 0.0) + 1e3 * (now_time - self._tick)
        self._mark = now_evals
        self._tick = now_time


def _tag(err: LaplevError, stage: str) -> LaplevError:
    err.stage = stage
    return err


def run(problem, config: PipelineConfig):
    """Execute every stage and combine the evidence.

    Returns the combined result with per-stage evaluation counts (summing
    exactly to the problem's total), per-stage wall times, the config echo,
    and mode locations mapped back to the full coordinate space. Stage
    errors propagate with a ``stage`` attribute naming the failing stage.
    """
    tol, bud = config.tolerances, config.budgets
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_survey, rng_discover, rng_refine, rng_evidence = (
        np.random.default_rng(s) for s in streams
    )
    meter = _Meter(problem)

    try:
        report = precheck(problem, eps_flat=tol["eps_flat"], eps_soft=tol["eps_soft"])
        active = active_subproblem(problem, report)
    except LaplevError as err:
        raise _tag(err, "precheck")
    meter.close("precheck")
    if active.dim == 0:
        raise _tag(
            NoModesFoundError(None, report.center_logl,
                              "every coordinate is flat or soft"),
            "precheck",
        )

    try:
        bank = survey(active, rng_survey, n_coarse=bud["n_coarse"])
        scales = estimate_scales(bank, active.bounds)
        seeds = select_seeds(bank, scales.lam_fine, active.dim)
    except LaplevError as err:
        raise _tag(err, "survey")
    meter.close("survey")

    dedup_abs = tol["dedup_radius"] * float(np.mean(active.bounds.widths))
    try:
        coarse = discover_modes(
            active, seeds, scales, rng_discover,
            n_oscillations=config.n_oscillations,
            n_converge=bud["n_converge"],
            n_anticonverge=bud["n_anticonverge"],
            n_cloud=bud["n_cloud"],
            k_smooth=bud["k_smooth"],
            stick_grad=tol["stick_grad"],
            dedup_radius=dedup_abs,
        )
    except NoModesFoundError as err:
        raise _tag(
            NoModesFoundError(err.best_position, err.best_logl,
                              f"search exhausted; survey held {bank.summary()}"),
            "discover",
        )
    except LaplevError as err:
        raise _tag(err, "discover")
    meter.close("discover")

    try:
        peaks, warnings = refine_peaks(
            active, coarse, scales.lam_fine, rng_refine,
            fast=config.fast_refine,
            grad_tol=tol["refine_grad"],
            dedup_radius=dedup_abs,
            lbfgs_memory=bud["lbfgs_memory"],
        )
    except LaplevError as err:
        raise _tag(err, "refine")
    meter.close("refine")
    warnings = list(warnings)

    modes = []
    for pk in peaks:
        try:
            modes.append(mode_evidence(
                active, pk, rng=rng_evidence, eps_rot=tol["eps_rot"],
            ))
        except (NotPositiveDefiniteError, HessianFailedError) as err:
            warnings.append(
                "dropped candidate at "
                f"{np.array2string(pk.position, precision=4)}: {err}"
            )
    if not modes:
        best = max(peaks, key=lambda pk: pk.logl)
        raise _tag(
            NoModesFoundError(best.position, best.logl,
                              "every refined candidate failed curvature "
                              "validation"),
            "evidence",
        )
    meter.close("evidence")

    reduction = None
    if config.reduce:
        reduction = []
        try:
            for ev in modes:
                hess = ev.hessian
                if hess is None:
                    hess = np.diag(np.asarray(ev.peak.hess_diag, dtype=np.float64))
                rep, _ = reduce_mode(active, ev.peak, hess)
                reduction.append(rep)
        except LaplevError as err:
            raise _tag(err, "reduce")
        meter.close("reduce")

    # Report mode locations in the caller's full coordinate space; the
    # curvature fields stay on the active axes where they were measured.
    if active is not problem:
        for ev in modes:
            full = active.embed(ev.peak.position)[0]
            ev.peak = dataclasses.replace(ev.peak, position=full)

    try:
        result = combine(modes, report, problem.bounds,
                         eval_counts=meter.counts, warnings=warnings)
    except LaplevError as err:
        raise _tag(err, "combine")
    result.config_echo = config.echo()
    result.seed = int(config.seed)
    result.reduction = reduction
    result.timings_ms = meter.timings
    return result


def result_json(result, *, with_timings=False, indent=None) -> str:
    """Canonical JSON for a result: stable key order, no timing noise.

    Two runs with the same problem, config, and seed produce byte-identical
    output of this function (timings are only included on request and are
    excluded from the canonical form).
    """
    return json.dumps(result.to_dict(with_timings=with_timings),
                      sort_keys=True, indent=indent)
