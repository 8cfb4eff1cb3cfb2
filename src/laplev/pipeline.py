"""End-to-end evidence pipeline.

Stages run in a fixed order — coordinate screen, ray survey, seed grouping
into basins (skipped when every ray of the survey's first wave reads as
one concave parabola, which ends the survey; the wave's best sample then
climbs alone), one batched ascent of the basin leaders,
curvature check of the peaks, per-mode Gaussian integral, optional
dimensional reduction — each consuming the previous stage's output on the
active-coordinate subproblem. A config is a preset name, a seed and the
reduce flag: the preset sets the ascent's step budget, and every tolerance
and other budget is a constant of the stage that uses it. Results are
bitwise deterministic for a fixed (problem, config) pair: every random
draw comes from streams spawned off the config seed, and each likelihood
batch reaches the evaluator as one call.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .discovery import (
    basin_leaders,
    discover_modes,
    estimate_scales,
    group_seeds,
    lone_seed,
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
from .evidence import combine, mode_evidence, probe_offdiag
from .precheck import active_subproblem, precheck
from .reduction import reduce_mode
from .refine import refine_peaks

# Each preset's ascent step budget, ascent_steps. ``slow`` is an alias of
# ``fast``: the two run identically.
PRESET_SETTINGS = {
    "fast": 15,
    "slow": 15,
    "conservative": 45,
}
PRESETS = tuple(PRESET_SETTINGS)


@dataclass(frozen=True)
class PipelineConfig:
    """A run's configuration: a preset name, a seed and the reduce flag.

    The preset fixes the ascent's step budget; every tolerance and other
    budget is the owning stage's module constant. An unknown preset
    name is rejected.
    """

    name: str
    seed: int = 0
    reduce: bool = False

    def __post_init__(self):
        if self.name not in PRESETS:
            raise InvalidParameterError(
                f"unknown preset {self.name!r}; choose from {', '.join(PRESETS)}"
            )

    @property
    def ascent_steps(self) -> int:
        return PRESET_SETTINGS[self.name]

    def echo(self) -> dict:
        """JSON-stable copy of everything that influences the result."""
        return {
            "name": self.name,
            "ascent_steps": self.ascent_steps,
            "reduce": bool(self.reduce),
        }


def preset_config(name, *, seed=0, reduce=False) -> PipelineConfig:
    """The three named configurations: fast, slow, conservative.

    fast ascends at most 15 steps, slow is an alias of fast, and
    conservative ascends at most 45 steps.
    """
    return PipelineConfig(name, seed=seed, reduce=reduce)


class _Meter:
    """Per-stage evaluation, likelihood-call and wall-time bookkeeping."""

    def __init__(self, problem):
        self.problem = problem
        self.counts = {}
        self.calls = {}
        self.timings = {}
        self._mark = problem.eval_counter
        self._call_mark = problem.call_counter
        self._tick = time.perf_counter()

    @contextmanager
    def stage(self, name, metered=True):
        """Run a stage: tag its package errors with ``name``, then meter it.

        A ``LaplevError`` leaving the block gets ``stage = name``. A stage
        that completes is charged everything since the previous stage
        closed, unless ``metered`` is false.
        """
        try:
            yield
        except LaplevError as err:
            err.stage = name
            raise
        if not metered:
            return
        now_evals = self.problem.eval_counter
        now_calls = self.problem.call_counter
        now_time = time.perf_counter()
        self.counts[name] = self.counts.get(name, 0) + (now_evals - self._mark)
        self.calls[name] = self.calls.get(name, 0) + (now_calls - self._call_mark)
        self.timings[name] = self.timings.get(name, 0.0) + 1e3 * (now_time - self._tick)
        self._mark = now_evals
        self._call_mark = now_calls
        self._tick = now_time


def run(problem, config: PipelineConfig):
    """Execute every stage and combine the evidence.

    Returns the combined result with per-stage evaluation and likelihood-call
    counts (each summing exactly to the problem's total), per-stage wall
    times, the config echo, and mode locations mapped back to the full
    coordinate space. Stage errors propagate with a ``stage`` attribute
    naming the failing stage.
    """
    streams = np.random.SeedSequence(config.seed).spawn(4)
    # Streams 1 and 2 are unused; spawning them keeps the evidence stream,
    # and so the rotation probes' directions, at index 3.
    rng_survey, rng_evidence = (np.random.default_rng(streams[i]) for i in (0, 3))
    meter = _Meter(problem)

    with meter.stage("precheck"):
        report = precheck(problem)
        active = active_subproblem(problem, report)
        if active.dim == 0:
            raise NoModesFoundError(None, report.center_logl,
                                    "every coordinate is flat")

    with meter.stage("survey"):
        bank = survey(active, rng_survey)
        scales = estimate_scales(bank, active.bounds)
        # A survey that ends at its first wave, one concave parabola on
        # every ray, skips the picking and the grouping's segments: its
        # best sample climbs alone.
        seeds, seed_logl = (lone_seed(bank)
                            or select_seeds(bank, scales.lam_fine, active.dim))

    with meter.stage("discover"):
        try:
            basin, read, parabolic, lead_vals = group_seeds(active, seeds, seed_logl,
                                                            scales.lam_fine)
            climb = basin_leaders(basin, parabolic)
            coarse = discover_modes(active, seeds[climb], seed_logl[climb], lead_vals,
                                    scales, n_steps=config.ascent_steps)
        except NoModesFoundError as err:
            raise NoModesFoundError(err.best_position, err.best_logl,
                                    f"search exhausted; survey held {bank.summary()}")

    with meter.stage("refine"):
        peaks, warnings = refine_peaks(active, coarse)
    warnings = list(warnings)

    with meter.stage("evidence"):
        modes = []
        for pk, probe in zip(peaks, probe_offdiag(active, peaks, rng=rng_evidence)):
            try:
                modes.append(mode_evidence(active, pk, probe))
            except (NotPositiveDefiniteError, HessianFailedError) as err:
                warnings.append(
                    "dropped candidate at "
                    f"{np.array2string(pk.position, precision=4)}: {err}"
                )
        if not modes:
            best = max(peaks, key=lambda pk: pk.logl)
            raise NoModesFoundError(best.position, best.logl,
                                    "every refined candidate failed curvature "
                                    "validation")

    reduction = None
    if config.reduce:
        reduction = []
        with meter.stage("reduce"):
            for ev in modes:
                hess = ev.hessian
                if hess is None:
                    hess = np.diag(np.asarray(ev.peak.hess_diag, dtype=np.float64))
                rep, _ = reduce_mode(active, ev.peak, hess)
                reduction.append(rep)

    # Report mode locations in the caller's full coordinate space; the
    # curvature fields stay on the active axes where they were measured.
    if active is not problem:
        for ev in modes:
            full = active.embed(ev.peak.position)[0]
            ev.peak = dataclasses.replace(ev.peak, position=full)

    with meter.stage("combine", metered=False):
        result = combine(modes, report, problem.bounds,
                         eval_counts=meter.counts, call_counts=meter.calls,
                         warnings=warnings)
    result.config_echo = config.echo()
    result.seed = int(config.seed)
    lone_ray = int(bank.index[bank.first_max()[0]]) if bank.concave else None
    result.survey = {**bank.kind_counts(), "rays_total": bank.total,
                     "dead": int(bank.dead.sum()), "rays_read": int(bank.read.sum()),
                     "lone_seed_ray": lone_ray,
                     "scale": scales.lam_fine, "scale_fallback": scales.fallback,
                     "seeds": int(seeds.shape[0]), "segments_read": int(read.sum()),
                     "segments_completed": int(read.size - read.sum()),
                     "ascents": int(climb.size), "retired": coarse.retired,
                     "one_seed_basins": int(np.sum(np.bincount(basin[climb]) == 1))}
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
