#!/usr/bin/env python3
"""laplev benchmark: pipeline cost and accuracy per workload.

Run from the repository root:

    python3 perfbench/run.py --workload unimodal --seed 1 --seconds 20 --trace 0

The workload seed fixes every pipeline seed (see workloads.py). A run cycles
through the workload's round of pipeline jobs until ``--seconds`` have passed
and every job has run at least twice. Each repeat must reproduce the job's
first canonical ``result_json`` digest, evaluation count and likelihood call
count, and every result's ``eval_counts`` must sum to the problem's counter
delta; a run that breaks either counts as failed. Count and accuracy metrics
come from the first pass over the round, timings from every run.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` pairs each untraced job with the same job traced and prints
the per-layer metrics from the traced runs, per pipeline run, plus
fixed-size kernel probes. Every time is calibrated for machine speed (see
calibrate.py); raw times are printed beside the calibrated ones.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_totals, patched
from workloads import WORKLOADS

# calibrate imports numpy, so the functions that use it import it themselves,
# after pin_environment() has fixed the BLAS thread count.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WRONG_REL_ERROR = 0.1   # an answer further off than this counts as wrong
DIGITS_CAP = 12.0
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
MIN_SAMPLES = 4 * TAIL_BEYOND  # so the tail percentile is at least p75

# Fresh-interpreter set-up: import the package and build the workload's
# targets. Timed inside the child, so interpreter start-up is excluded.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import laplev
for name, dim in json.loads(sys.argv[2]):
    laplev.get_target(name, dim)
print(time.perf_counter() - t0)
"""

# Span names timed per layer; each gives <name>.ms and <name>.self_ms.
TIMED_LAYERS = (
    "pipeline.run", "problem.logl", "precheck", "discovery.survey",
    "discovery.estimate_scales", "discovery.select_seeds",
    "discovery.discover_modes", "lbfgs.run_batch", "lbfgs.step_batch",
    "lbfgs.fd_gradient", "refine.refine_peaks", "evidence.mode_evidence",
    "evidence.combine", "linalg.eig_symmetric", "linalg.dedup_linf",
    "reduction.reduce_mode",
)
# metric -> (span name, field): n = invocations, calls = likelihood calls
# made inside the span, evals = likelihood evaluations made inside it.
LAYER_COUNTS = {
    "problem.logl.calls": ("problem.logl", "n"),
    "problem.logl.evals": ("problem.logl", "evals"),
    "precheck.evals": ("precheck", "evals"),
    "discovery.survey.calls": ("discovery.survey", "calls"),
    "discovery.discover_modes.evals": ("discovery.discover_modes", "evals"),
    "lbfgs.run_batch.calls": ("lbfgs.run_batch", "n"),
    "lbfgs.step_batch.calls": ("lbfgs.step_batch", "n"),
    "lbfgs.fd_gradient.evals": ("lbfgs.fd_gradient", "evals"),
    "refine.refine_peaks.evals": ("refine.refine_peaks", "evals"),
    "evidence.mode_evidence.evals": ("evidence.mode_evidence", "evals"),
    "linalg.eig_symmetric.calls": ("linalg.eig_symmetric", "n"),
    "linalg.dedup_linf.calls": ("linalg.dedup_linf", "n"),
}


@dataclass
class Run:
    """One pipeline run as the benchmark saw it."""

    wall_s: float
    scale: float         # calibration factor measured just before the run
    digest: str
    status: str          # ok | wrong | error | failed
    rel_error: float | None
    evals: int
    calls: int
    gate: str | None     # why the output gate failed, else None

    @property
    def cal_s(self) -> float:
        return self.wall_s * self.scale


def pin_environment() -> None:
    """Serial evaluation and single-threaded BLAS, before numpy loads."""
    os.environ.pop("LAPLEV_WORKERS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_laplev():
    sys.path.insert(0, str(SRC))
    import laplev
    if Path(laplev.__file__).resolve().parent != SRC / "laplev":
        raise ImportError(f"imported laplev from {laplev.__file__}, not {SRC}")
    return laplev


def setup_seconds(workload, repeats=SETUP_REPEATS):
    """Median fresh-interpreter time to import laplev and build the targets.

    Returns (calibrated, raw) seconds; the calibration kernel runs in this
    process right before each child starts and right after it ends.
    """
    import calibrate

    raw, cal = [], []
    for _ in range(repeats):
        before = calibrate.scale()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC),
             json.dumps(workload.cells)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(out.stdout.split()[-1]))
        cal.append(raw[-1] * 0.5 * (before + calibrate.scale()))
    return statistics.median(cal), statistics.median(raw)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(laplev, workload, job, tracer, full) -> Run:
    """Run one (target, dim, pipeline seed) and apply the output gate.

    ``tracer`` always counts likelihood calls; with ``full`` it also records
    a span at every layer boundary, under one run id per job.
    """
    import calibrate

    name, dim, pipeline_seed = job
    target = laplev.get_target(name, dim)
    problem = target.problem
    config = laplev.preset_config(workload.preset, seed=pipeline_seed,
                                  reduce=workload.reduce)
    gc.collect()
    scale = calibrate.scale()
    tracer.run_id += 1
    tracer.run_scale[tracer.run_id] = scale
    evals0, calls0 = problem.eval_counter, tracer.calls
    with patched(tracer, laplev, full=full):
        root = tracer.open("pipeline.run") if full else None
        t0 = perf_counter()
        try:
            result = laplev.run(problem, config)
        except laplev.LaplevError as err:
            wall = perf_counter() - t0
            text = f"error|{type(err).__name__}|{getattr(err, 'stage', None)}|{err}"
            return Run(wall, scale, _sha(text), "error", None,
                       problem.eval_counter - evals0, tracer.calls - calls0, None)
        except Exception:  # an untyped error breaks the honest-failure contract
            traceback.print_exc(file=sys.stderr)
            return Run(perf_counter() - t0, scale, "", "failed", None, 0, 0,
                       "untyped exception")
        finally:
            if full:
                tracer.close(root)
        wall = perf_counter() - t0
    evals = problem.eval_counter - evals0
    gate = None
    if sum(result.eval_counts.values()) != evals:
        gate = f"eval_counts sum {sum(result.eval_counts.values())} != {evals}"
    # Capped below exp overflow: any answer that far off is simply wrong.
    log_ratio = min(result.log_z_total - target.true_log_integral, 700.0)
    rel = abs(math.expm1(log_ratio))
    if not math.isfinite(rel):
        gate = gate or "non-finite evidence"
    status = "failed" if gate else ("ok" if rel <= WRONG_REL_ERROR else "wrong")
    return Run(wall, scale, _sha(laplev.result_json(result)), status, rel, evals,
               tracer.calls - calls0, gate)


def check_repeat(run, reference) -> None:
    """Flag a repeat whose output differs from the job's first run."""
    if run.gate is None and (run.digest, run.evals, run.calls) != (
            reference.digest, reference.evals, reference.calls):
        run.gate = "result differs from the job's first run"


def tail_ms(walls):
    """(value, percentile, n): highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 1e3 * ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def kernel_probes(laplev, seed):
    """Median calibrated ms of the hot linear-algebra kernels at fixed sizes."""
    import numpy as np

    import calibrate

    from laplev.linalg import eig_symmetric, log_det_pd

    rng = np.random.default_rng([int(seed), 128])

    def spd(d):
        m = rng.standard_normal((d, d))
        return m @ m.T / d + np.eye(d)

    def median_ms(fn, arg, repeats):
        times = []
        for _ in range(repeats):
            scale = calibrate.scale()
            t0 = perf_counter()
            fn(arg)
            times.append(1e3 * (perf_counter() - t0) * scale)
        return statistics.median(times)

    a32, a128 = spd(32), spd(128)
    return {
        "linalg.eig_symmetric.d32.ms": median_ms(eig_symmetric, a32, 5),
        "linalg.eig_symmetric.d128.ms": median_ms(eig_symmetric, a128, 3),
        "linalg.log_det_pd.d128.ms": median_ms(log_det_pd, a128, 51),
    }


def outcome_shares(reference):
    n = len(reference)
    return {s: sum(r.status == s for r in reference) / n
            for s in ("ok", "wrong", "error")}


def end_to_end_metrics(reference, untraced, setup):
    walls = [r.cal_s for r in untraced]
    raw = [r.wall_s for r in untraced]
    tail, pct, n = tail_ms(walls)
    errors = [r.rel_error for r in reference if r.rel_error is not None]
    worst = max(errors, default=None)
    if worst is None:
        digits = 0.0
    elif worst > 0.0:
        digits = min(DIGITS_CAP, -math.log10(worst))
    else:
        digits = DIGITS_CAP
    metrics = {
        "setup_s": (setup[0], "s"),
        "runs_per_s": (len(walls) / sum(walls), "1/s"),
        "run_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "run_ms_tail": (tail, "ms"),
        "evals_per_run": (statistics.fmean(r.evals for r in reference), "count"),
        "calls_per_run": (statistics.fmean(r.calls for r in reference), "count"),
        "digits_min": (digits, "digits"),
        "ok_share": (outcome_shares(reference)["ok"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    notes = {
        "setup_s": f"raw {setup[1]:.4g} s",
        "runs_per_s": f"raw {len(raw) / sum(raw):.4g} 1/s",
        "run_ms_p50": f"raw {1e3 * statistics.median(raw):.4g} ms",
        "run_ms_tail": f"p{pct:.1f}, n={n}, raw {tail_ms(raw)[0]:.4g} ms",
    }
    return metrics, notes


def per_layer_metrics(tracer, n_runs, untraced_s, traced_s, probes, reference):
    totals = layer_totals(tracer.spans, tracer.run_scale)
    obs = tracer.observed
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.ms"] = (totals[name]["ms"] / n_runs, "ms")
        metrics[f"{name}.self_ms"] = (totals[name]["self_ms"] / n_runs, "ms")
    for metric, (name, field) in LAYER_COUNTS.items():
        metrics[metric] = (totals[name][field] / n_runs, "count")
    metrics["pipeline.overhead_ms"] = (
        (totals["pipeline.run"]["ms"] - totals["problem.logl"]["ms"]) / n_runs, "ms")

    def ratio(num, den):
        return obs[num] / obs[den] if obs[den] else 0.0

    metrics["discovery.peaks_per_seed"] = (
        ratio("discover.peaks_out", "discover.seeds_in"), "ratio")
    metrics["refine.kept_ratio"] = (ratio("refine.peaks_out", "refine.peaks_in"),
                                    "ratio")
    metrics["evidence.full_route_share"] = (
        ratio("evidence.full", "evidence.modes"), "fraction")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    shares = outcome_shares(reference)
    metrics["outcome.wrong_share"] = (shares["wrong"], "fraction")
    metrics["outcome.error_share"] = (shares["error"], "fraction")
    for name, value in probes.items():
        metrics[name] = (value, "ms")
    return metrics


def measure(workload, seed, seconds, trace, *, setup_repeats=SETUP_REPEATS,
            spans_path=None):
    """Run one workload and return (report lines, result object).

    Jobs cycle through the round until ``seconds`` have passed and every job
    has run at least twice. With ``trace`` each untraced job is paired with
    the same job traced, in alternating order, so both see the same machine
    state.
    """
    setup = None if trace else setup_seconds(workload, setup_repeats)
    laplev = import_laplev()
    jobs = workload.jobs(seed)

    counter, tracer = Tracer(), Tracer()
    run_job(laplev, workload, jobs[0], Tracer(), False)  # lazy set-up, untimed
    untraced, traced = [], []
    start = perf_counter()
    while (len(untraced) < max(2 * len(jobs), MIN_SAMPLES)
           or perf_counter() - start < seconds):
        k = len(untraced) % len(jobs)
        traced_first = len(untraced) % 2  # alternate which side runs first
        if trace and traced_first:
            traced.append(run_job(laplev, workload, jobs[k], tracer, True))
        untraced.append(run_job(laplev, workload, jobs[k], counter, False))
        if trace and not traced_first:
            traced.append(run_job(laplev, workload, jobs[k], tracer, True))
    reference = untraced[:len(jobs)]
    for runs in (untraced, traced):
        for i, run in enumerate(runs):
            check_repeat(run, reference[i % len(jobs)])
    failed = sum(run.gate is not None for run in untraced + traced)

    digest = _sha("\n".join(r.digest for r in reference))[:16]
    shares = outcome_shares(reference)
    lines = [
        f"environment: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={_version('numpy')} "
        f"scipy={_version('scipy')} blas_threads=1 LAPLEV_WORKERS=unset",
        f"workload {workload.name}: preset={workload.preset} "
        f"reduce={workload.reduce} seed={seed} jobs={len(jobs)} "
        f"runs={len(untraced)}{f'+{len(traced)} traced' if trace else ''}",
        f"digest {workload.name} seed={seed}: {digest}",
        f"outcomes: ok_share={shares['ok']:.4f} wrong_share={shares['wrong']:.4f} "
        f"error_share={shares['error']:.4f} fraction",
    ]
    for run, job in zip(reference, jobs):
        if run.status != "ok":
            rel = "" if run.rel_error is None else f" rel_error={run.rel_error:.3g}"
            lines.append(f"  {run.status}: {job[0]} d={job[1]} seed={job[2]}{rel}")
    lines.extend(f"gate failed: {r.gate}" for r in untraced + traced if r.gate)

    if trace:
        untraced_s = sum(r.cal_s for r in untraced)
        traced_s = sum(r.cal_s for r in traced)
        metrics = per_layer_metrics(tracer, len(traced), untraced_s, traced_s,
                                    kernel_probes(laplev, seed), reference)
        notes = {}
        if spans_path is not None:
            tracer.dump(spans_path)
            lines.append(f"spans written to {spans_path}")
    else:
        metrics, notes = end_to_end_metrics(reference, untraced, setup)
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")

    result = {
        "correct": failed == 0,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return lines, result


def _version(module):
    return sys.modules[module].__version__ if module in sys.modules else "?"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "laplev" / "__init__.py").is_file():
        print(f"benchmark cannot run: no laplev sources under {SRC}",
              file=sys.stderr)
        return 2
    pin_environment()
    workload = WORKLOADS[args.workload]
    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
    try:
        lines, result = measure(workload, args.seed, args.seconds,
                                bool(args.trace), spans_path=spans_path)
    except (OSError, ImportError, subprocess.SubprocessError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
