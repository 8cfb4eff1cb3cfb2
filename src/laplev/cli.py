"""Command-line interface: single runs and the benchmark harness.

``laplev run`` executes the pipeline on one registry problem and prints a
human summary (optionally writing the full JSON result). ``laplev bench``
sweeps a suite over dimensions and seeds, emitting one CSV row per run plus
an aggregate accuracy summary. Exit codes: 0 success, 2 usage/parameter
error, and the per-error-class codes documented in errors.py (4 no modes
found, 5 no valid maxima, 6 degenerate problem, 7 not positive definite,
3 anything else).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from .discovery import KIND_NAMES
from .errors import InvalidParameterError, LaplevError
from .pipeline import PRESETS, preset_config, result_json, run
from .targets import SUITES, dim_cap, get_target, list_targets

CSV_VERSION = 1
CSV_FIELDS = [
    "function", "dim", "config", "run", "seed", "log_z_true", "log_z_est",
    "rel_error", "wall_ms", "evals", "modes", "error",
]


def rel_error(log_z_est, log_z_true) -> float:
    """Relative error on the integral scale, |Z_est/Z_true - 1|."""
    with np.errstate(over="ignore"):
        return float(abs(np.expm1(log_z_est - log_z_true)))


def _print_summary(target, res, wall_s, out):
    print(f"problem      {target.name}  d={target.dim}", file=out)
    print(f"log Z        {res.log_z_total:.12g}", file=out)
    print(f"log Z(prior) {res.log_z_vs_prior:.12g}", file=out)
    print(f"analytic     {target.true_log_integral:.12g}   "
          f"rel error {rel_error(res.log_z_total, target.true_log_integral):.3e}",
          file=out)
    print(f"modes        {len(res.modes)}", file=out)
    for k, m in enumerate(res.modes):
        loc = np.array2string(np.asarray(m.peak.position)[:4], precision=4)
        more = "..." if len(m.peak.position) > 4 else ""
        print(f"  [{k}] logl={m.peak.logl:.6g} log_z={m.log_z:.6g} "
              f"hessian={m.hessian_kind} cond={m.condition_number:.3g} "
              f"evals={m.evals_used} at {loc}{more}", file=out)
    if res.reduction is not None:
        for k, rep in enumerate(res.reduction):
            print(f"  [{k}] reduction: d_eff={rep.d_eff} "
                  f"nuisance={len(rep.nuisance)} degenerate={len(rep.degenerate)}",
                  file=out)
    for w in res.warnings:
        print(f"warning: {w}", file=out)
    sv = res.survey
    counts = {k: sv[k] for k in KIND_NAMES.values()}
    fallback = " (fallback)" if sv["scale_fallback"] else ""
    lone = ("" if sv["lone_seed_ray"] is None
            else f" (lone seed from ray {sv['lone_seed_ray']})")
    print(f"survey       {sum(counts.values())} of {sv['rays_total']} rays "
          f"({', '.join(f'{k}={v}' for k, v in counts.items())}), "
          f"{sv['dead']} dead, {sv['rays_read']} read, scale {sv['scale']:.6g}{fallback}, "
          f"{sv['seeds']} seeds{lone}, {sv['segments_read']} segments read, "
          f"{sv['segments_completed']} completed, {sv['ascents']} ascents, "
          f"{sv['retired']} retired, {sv['one_seed_basins']} one-seed basins",
          file=out)
    for label, counts in (("evaluations", res.eval_counts),
                          ("calls", res.call_counts)):
        print(f"{label:<12} {sum(counts.values())}  "
              f"({', '.join(f'{k}={v}' for k, v in counts.items())})", file=out)
    print(f"wall time    {wall_s * 1e3:.0f} ms  seed {res.seed}", file=out)


def cmd_run(args) -> int:
    target = get_target(args.problem, args.dim, allow_large=args.allow_large)
    config = preset_config(args.preset, seed=args.seed, reduce=args.reduce)
    t0 = time.perf_counter()
    result = run(target.problem, config)
    wall = time.perf_counter() - t0
    _print_summary(target, result, wall, sys.stdout)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result_json(result, with_timings=True, indent=2))
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stdout)
    return 0


def _parse_dims(text) -> list:
    try:
        dims = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidParameterError(f"cannot parse dims list {text!r}")
    if not dims:
        raise InvalidParameterError("dims list is empty")
    if any(d < 1 for d in dims):
        raise InvalidParameterError("dims must be positive")
    return dims


def cmd_bench(args) -> int:
    functions = SUITES[args.suite]
    dims = _parse_dims(args.dims)
    if args.runs < 1:
        raise InvalidParameterError("runs must be >= 1")

    if args.csv:
        sink = open(args.csv, "w", encoding="utf-8", newline="")
        summary_out = sys.stdout
    else:
        sink = sys.stdout
        summary_out = sys.stderr
    rows = []
    try:
        sink.write(f"# bench_csv_version={CSV_VERSION}\n")
        writer = csv.DictWriter(sink, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for name in functions:
            for dim in dims:
                if not args.allow_large and dim > dim_cap(name):
                    print(f"skip {name} d={dim}: beyond desk-scale cap "
                          f"{dim_cap(name)} (use --allow-large)", file=sys.stderr)
                    continue
                try:
                    probe = get_target(name, dim, allow_large=args.allow_large)
                except InvalidParameterError as err:
                    print(f"skip {name} d={dim}: {err}", file=sys.stderr)
                    continue
                del probe
                for seed in range(1, args.runs + 1):
                    target = get_target(name, dim, allow_large=args.allow_large)
                    config = preset_config(args.preset, seed=seed)
                    t0 = time.perf_counter()
                    row = {
                        "function": name, "dim": dim, "config": args.preset,
                        "run": seed - 1, "seed": seed,
                        "log_z_true": repr(target.true_log_integral),
                        "log_z_est": "", "rel_error": "", "modes": "",
                        "error": "",
                    }
                    try:
                        res = run(target.problem, config)
                        row["log_z_est"] = repr(float(res.log_z_total))
                        row["rel_error"] = repr(
                            rel_error(res.log_z_total, target.true_log_integral))
                        row["modes"] = len(res.modes)
                    except LaplevError as err:
                        row["error"] = type(err).__name__
                    row["wall_ms"] = int(round(1e3 * (time.perf_counter() - t0)))
                    row["evals"] = int(target.problem.eval_counter)
                    writer.writerow(row)
                    rows.append(row)
    finally:
        if args.csv:
            sink.close()

    if not rows:
        raise InvalidParameterError(
            "no (function, dim) combination was runnable")
    print("\nsuite summary (relative integral error):", file=summary_out)
    for name in functions:
        for dim in dims:
            sub = [r for r in rows if r["function"] == name and r["dim"] == dim]
            if not sub:
                continue
            ok = [float(r["rel_error"]) for r in sub if r["error"] == ""]
            failed = [r for r in sub if r["error"] != ""]
            if ok:
                print(f"  {name:16s} d={dim:<4d} runs={len(sub)} "
                      f"max={max(ok):.3e} avg={sum(ok) / len(ok):.3e} "
                      f"failed={len(failed)}", file=summary_out)
            else:
                kinds = ",".join(sorted({r["error"] for r in failed}))
                print(f"  {name:16s} d={dim:<4d} runs={len(sub)} "
                      f"all failed ({kinds})", file=summary_out)
    n_ok = sum(1 for r in rows if r["error"] == "")
    print(f"  total: {n_ok}/{len(rows)} runs succeeded", file=summary_out)
    return 0 if n_ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplev",
        description="Deterministic evidence integrals via batched mode "
                    "discovery and per-mode Gaussian integration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline on one problem")
    p_run.add_argument("--problem", required=True,
                       help=f"one of: {', '.join(list_targets())}")
    p_run.add_argument("--dim", required=True, type=int)
    p_run.add_argument("--preset", default="fast", choices=PRESETS)
    p_run.add_argument("--seed", default=1, type=int)
    p_run.add_argument("--out", default=None, metavar="FILE.json",
                       help="write the full JSON result here")
    p_run.add_argument("--reduce", action="store_true",
                       help="attach per-mode dimensional-reduction reports")
    p_run.add_argument("--allow-large", action="store_true",
                       help="lift the desk-scale dimension caps")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="sweep a suite, emit CSV rows")
    p_bench.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_bench.add_argument("--dims", required=True,
                         help="comma-separated, e.g. 2,4,8")
    p_bench.add_argument("--runs", default=5, type=int,
                         help="seeds 1..R per (function, dim)")
    p_bench.add_argument("--preset", default="fast", choices=PRESETS)
    p_bench.add_argument("--csv", default=None, metavar="OUT.csv",
                         help="CSV path (default: stdout)")
    p_bench.add_argument("--allow-large", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LaplevError as err:
        stage = getattr(err, "stage", None)
        where = f" [stage: {stage}]" if stage else ""
        print(f"error{where}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
