"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import re
import subprocess
import sys

import pytest

from laplev import cli
from laplev.pipeline import preset_config, run
from laplev.targets import get_target


def read_bench_csv(path):
    with open(path, encoding="utf-8") as fh:
        version = fh.readline()
        assert version.strip() == "# bench_csv_version=1"
        return list(csv.DictReader(fh))


def test_run_success_prints_summary(capsys):
    rc = cli.main(["run", "--problem", "gaussian", "--dim", "3",
                   "--preset", "fast", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "problem      gaussian  d=3" in out
    assert "log Z" in out
    assert "rel error" in out
    assert "evaluations" in out
    assert "\ncalls        " in out
    # the one mode takes the diagonal route: probe and tail screen
    assert re.search(r"\n  \[0\] logl=.* hessian=diagonal .* evals=10 at ", out)
    survey = [line for line in out.splitlines() if line.startswith("survey ")]
    # gaussian is a concave parabola along every ray: the probe reads the
    # 12 rays of the first wave, 3 of each kind's 12, and the survey ends
    # there. The grouping is skipped and the best sample, on ray 26, is the
    # one seed, which ascends alone.
    assert survey == ["survey       12 of 48 rays (v2v=3, v2e=3, w2w=3, sunburst=3), "
                      "0 dead, 12 read, scale 1, 1 seeds (lone seed from ray 26), "
                      "0 segments read, 0 completed, 1 ascents, 0 retired, "
                      "1 one-seed basins"]


def test_unknown_problem_exits_2(capsys):
    rc = cli.main(["run", "--problem", "nosuch", "--dim", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown problem" in err
    assert "gaussian" in err  # lists the known names


def test_eggbox_wrong_dimension_exits_2(capsys):
    rc = cli.main(["run", "--problem", "eggbox", "--dim", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "eggbox" in err


def test_failure_exit_code_maps_error_class(capsys):
    rc = cli.main(["run", "--problem", "ring", "--dim", "4"])
    err = capsys.readouterr().err
    assert rc == 6  # degenerate geometry detected at precheck
    assert "stage: precheck" in err


def test_heavy_tail_warning_surfaces(capsys):
    rc = cli.main(["run", "--problem", "student-t-3", "--dim", "2",
                   "--preset", "slow", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heavy-tail geometry detected" in out


def test_run_writes_json_result(tmp_path, capsys):
    path = tmp_path / "result.json"
    rc = cli.main(["run", "--problem", "correlated", "--dim", "2",
                   "--preset", "slow", "--seed", "3", "--out", str(path),
                   "--reduce"])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(path.read_text())
    for key in ("log_z", "log_z_vs_prior", "modes", "precheck",
                "eval_counts", "call_counts", "warnings", "config_echo", "seed",
                "reduction", "timings_ms"):
        assert key in doc
    # The file must agree exactly with an in-process run (determinism).
    res = run(get_target("correlated", 2).problem,
              preset_config("slow", seed=3, reduce=True))
    assert doc["log_z"] == float(res.log_z_total)
    assert doc["seed"] == 3


def test_bench_csv_roundtrip(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--suite", "mixture", "--dims", "2,4",
                   "--runs", "2", "--preset", "fast", "--csv", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    rows = read_bench_csv(path)
    assert len(rows) == 4  # 1 function x 2 dims x 2 runs
    assert [r["seed"] for r in rows] == ["1", "2", "1", "2"]
    for row in rows:
        assert row["error"] == ""
        assert row["config"] == "fast"
        assert int(row["wall_ms"]) >= 0

    # Replay one row in-process: every recorded number must round-trip.
    row = rows[2]
    assert (row["function"], row["dim"]) == ("mixture4", "4")
    target = get_target("mixture4", 4)
    res = run(target.problem, preset_config("fast", seed=int(row["seed"])))
    assert float(row["log_z_true"]) == target.true_log_integral
    assert float(row["log_z_est"]) == float(res.log_z_total)
    assert float(row["rel_error"]) == cli.rel_error(
        res.log_z_total, target.true_log_integral)
    assert int(row["modes"]) == len(res.modes)
    assert int(row["evals"]) == int(target.problem.eval_counter)

    # Aggregate block is recomputed from the rows with the same formatting.
    errs = [float(r["rel_error"]) for r in rows if r["dim"] == "4"]
    line = next(l for l in out.splitlines() if "d=4" in l)
    assert f"max={max(errs):.3e}" in line
    assert f"avg={sum(errs) / len(errs):.3e}" in line
    assert "failed=0" in line


def test_bench_records_failures_as_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SUITES", {"solo": ("ring", "gaussian")})
    path = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--suite", "solo", "--dims", "4",
                   "--runs", "1", "--csv", str(path)])
    capsys.readouterr()
    assert rc == 0  # gaussian succeeds, so partial failure is not fatal
    rows = read_bench_csv(path)
    by_fn = {r["function"]: r for r in rows}
    bad = by_fn["ring"]
    assert bad["error"] == "DegenerateProblemError"
    assert bad["log_z_est"] == "" and bad["rel_error"] == "" and bad["modes"] == ""
    assert int(bad["evals"]) > 0  # evaluations spent before the failure
    assert by_fn["gaussian"]["error"] == ""


def test_bench_all_failed_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SUITES", {"solo": ("ring",)})
    rc = cli.main(["bench", "--suite", "solo", "--dims", "4", "--runs", "2",
                   "--csv", str(tmp_path / "b.csv")])
    out = capsys.readouterr().out
    assert rc == 3
    assert "all failed (DegenerateProblemError)" in out
    assert "0/2 runs succeeded" in out


def test_bench_empty_or_bad_dims_exit_2(tmp_path, capsys):
    rc = cli.main(["bench", "--suite", "gaussian", "--dims", ",",
                   "--csv", str(tmp_path / "a.csv")])
    assert rc == 2
    rc = cli.main(["bench", "--suite", "gaussian", "--dims", "2,x",
                   "--csv", str(tmp_path / "b.csv")])
    assert rc == 2
    capsys.readouterr()


def test_bench_skips_over_cap_dims(tmp_path, capsys):
    # eggbox is 2-d only; at d=4 it must be skipped with a notice, and a
    # suite where nothing is runnable is a usage error.
    rc = cli.main(["bench", "--suite", "gaussian", "--dims", "2000",
                   "--csv", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "skip gaussian d=2000" in err


def test_bench_stdout_mode(capsys):
    rc = cli.main(["bench", "--suite", "gaussian", "--dims", "2",
                   "--runs", "1"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out.startswith("# bench_csv_version=1")
    rows = list(csv.DictReader(io.StringIO(cap.out.split("\n", 1)[1])))
    assert rows[0]["function"] == "gaussian"
    assert "suite summary" in cap.err  # summary moves to stderr


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "laplev.cli", "run", "--problem", "gaussian",
         "--dim", "2", "--preset", "fast", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "log Z" in proc.stdout
