"""The benchmark's workloads and the seeds they run.

A workload is a list of registry cells (target name, dimension), one preset,
one reduce flag and a number of pipeline seeds per cell, all derived from
the workload seed, so the same ``--seed`` always yields the same list of
pipeline runs (a "round").

Seeds per cell are set by how much a cell's cost varies between pipeline
seeds. With three seeds per cell, evals_per_run moved by under 0.5% from
one workload seed to the next on unimodal and rotated, so eight suffice
there. On multimodal it moved by 25%, because the evaluation count of
mixture4 at d=16 is bimodal across pipeline seeds (about 170k or 310k);
eight seeds still left 9%, so multimodal runs twelve (sixteen would make
its two rounds outlast the time limit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    reduce: bool
    cells: tuple  # ((target name, dim), ...)
    seeds_per_cell: int
    why: str

    def jobs(self, seed: int):
        """The round for one workload seed: [(target, dim, pipeline seed)],
        seed-major, so consecutive jobs cover every cell in turn."""
        rng = random.Random(f"{self.name}/{int(seed)}")
        return [(name, dim, rng.getrandbits(32))
                for _ in range(self.seeds_per_cell) for name, dim in self.cells]


WORKLOADS = {w.name: w for w in (
    Workload(
        "unimodal", "fast", False,
        (("gaussian", 8), ("gaussian", 32), ("gaussian", 128),
         ("cigar", 8), ("cigar", 32)), 8,
        "one mode and a cheap likelihood: orchestration (survey, "
        "estimate_scales, seed selection) is nearly all of the wall time",
    ),
    Workload(
        "multimodal", "conservative", True,
        (("mixture4", 8), ("mixture4", 16), ("bimodal-asym", 8)), 12,
        "several modes: the oscillating search, reseeding, dedup and "
        "per-mode reduction run, and likelihood evaluations weigh most",
    ),
    Workload(
        "rotated", "slow", False,
        (("correlated", 8), ("correlated", 16), ("correlated", 32),
         ("rotated-cigar", 8), ("rotated-cigar", 16)), 8,
        "rotated curvature: the probe / full-Hessian / eigensolver route and "
        "the full L-BFGS polish, plus today's misroutes and refine failures",
    ),
)}
