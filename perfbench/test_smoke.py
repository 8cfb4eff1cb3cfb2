"""Smoke test of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It measures a one-cell, one-seed cut of a workload with and without tracing
and checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced and untraced runs reproduce the same digest, and that the
runner refuses to report when the package sources are absent.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _short(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, cells=workload.cells[:1],
                               seeds_per_cell=1)


def _measure(workload, trace):
    lines, result = run.measure(workload, 3, 0.5, trace, setup_repeats=1)
    digest = next(line for line in lines if line.startswith("digest "))
    return digest, result


def _units(specs):
    return {m["name"]: m["unit"] for m in specs}


def test_every_metric_is_emitted_and_digests_match(monkeypatch):
    monkeypatch.delenv("LAPLEV_WORKERS", raising=False)
    workload = _short("rotated")
    digest0, untraced = _measure(workload, trace=False)
    digest1, traced = _measure(workload, trace=True)

    for result, specs in ((untraced, SPEC["end_to_end"]),
                          (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == _units(specs)
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    assert digest0 == digest1


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unimodal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
