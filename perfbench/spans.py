"""Span tracing from outside the package.

The pipeline reaches each layer through a module attribute (``laplev.pipeline
.survey``, ``laplev.refine.step_batch``, ...). ``patched`` replaces those
attributes with wrappers that record one span per call and restores the
originals on exit, so no file of the package changes. An untraced run keeps
only the wrapper on ``Problem.logl`` that counts likelihood calls, which
costs well under a microsecond per batch.

A span is [run id, name, parent index, start, end, evals at start, evals at
end, likelihood calls at start, likelihood calls at end]. Spans of one
pipeline run share its run id. A span's self time is its duration minus the
durations of its direct children; the pipeline is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

RUN, NAME, PARENT, T0, T1, E0, E1, C0, C1 = range(9)


class Tracer:
    """In-memory span recorder plus counters observed at layer boundaries."""

    def __init__(self):
        self.spans = []
        self.run_id = -1
        self.evals = 0
        self.calls = 0
        self.observed = defaultdict(int)
        self.run_scale = {}  # run id -> calibration factor for its times
        self._stack = []

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.run_id, name, parent, perf_counter(), 0.0,
                           self.evals, 0, self.calls, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx) -> None:
        span = self.spans[idx]
        span[T1] = perf_counter()
        span[E1] = self.evals
        span[C1] = self.calls
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.observed, args, out)
            return out
        return traced

    def wrap_logl(self, fn):
        """Problem.logl: the one boundary where evaluations are counted."""
        def traced(problem, points):
            idx = self.open("problem.logl")
            try:
                out = fn(problem, points)
                self.evals += len(out)
                self.calls += 1
            finally:
                self.close(idx)
            return out
        return traced

    def dump(self, path) -> None:
        keys = ("run", "name", "parent", "t0", "t1", "evals0", "evals1",
                "calls0", "calls1")
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(keys, span), scale=self.run_scale[span[RUN]])
                fh.write(json.dumps(record) + "\n")


def _seeds_to_peaks(obs, args, out):
    obs["discover.seeds_in"] += len(args[1])
    obs["discover.peaks_out"] += len(out)


def _refine_kept(obs, args, out):
    obs["refine.peaks_in"] += len(args[1])
    obs["refine.peaks_out"] += len(out[0])


def _evidence_route(obs, args, out):
    obs["evidence.modes"] += 1
    obs["evidence.full"] += out.hessian_kind == "full"


def trace_points(laplev):
    """(owner, attribute, span name, observer) for every traced boundary."""
    pipeline, discovery, lbfgs = laplev.pipeline, laplev.discovery, laplev.lbfgs
    refine, evidence, reduction = laplev.refine, laplev.evidence, laplev.reduction
    return [
        (pipeline, "precheck", "precheck", None),
        (pipeline, "survey", "discovery.survey", None),
        (pipeline, "estimate_scales", "discovery.estimate_scales", None),
        (pipeline, "select_seeds", "discovery.select_seeds", None),
        (pipeline, "discover_modes", "discovery.discover_modes", _seeds_to_peaks),
        (pipeline, "refine_peaks", "refine.refine_peaks", _refine_kept),
        (pipeline, "mode_evidence", "evidence.mode_evidence", _evidence_route),
        (pipeline, "combine", "evidence.combine", None),
        (pipeline, "reduce_mode", "reduction.reduce_mode", None),
        (discovery, "run_batch", "lbfgs.run_batch", None),
        (lbfgs, "step_batch", "lbfgs.step_batch", None),
        (refine, "step_batch", "lbfgs.step_batch", None),
        (lbfgs, "fd_gradient", "lbfgs.fd_gradient", None),
        (discovery, "fd_gradient", "lbfgs.fd_gradient", None),
        (discovery, "dedup_linf", "linalg.dedup_linf", None),
        (refine, "dedup_linf", "linalg.dedup_linf", None),
        (evidence, "eig_symmetric", "linalg.eig_symmetric", None),
        (reduction, "eig_symmetric", "linalg.eig_symmetric", None),
    ]


@contextmanager
def patched(tracer, laplev, full=True):
    """Route the package's layer calls through ``tracer`` for the block.

    With ``full=False`` only ``Problem.logl`` is wrapped, which counts
    likelihood calls and evaluations without timing any other layer.
    """
    saved = [(laplev.problem.Problem, "logl", laplev.problem.Problem.logl)]
    laplev.problem.Problem.logl = tracer.wrap_logl(saved[0][2])
    try:
        for owner, attr, name, observe in (trace_points(laplev) if full else ()):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, saved[-1][2], observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_totals(spans, run_scale):
    """Per span name: calls, inclusive ms, self ms, evals, likelihood calls.

    Times are multiplied by ``run_scale[run id]``, the calibration factor of
    the pipeline run the span belongs to.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[T1] - span[T0]
    totals = defaultdict(lambda: dict(n=0, ms=0.0, self_ms=0.0, evals=0,
                                      calls=0))
    for i, span in enumerate(spans):
        dur = span[T1] - span[T0]
        ms = 1e3 * run_scale[span[RUN]]
        row = totals[span[NAME]]
        row["n"] += 1
        row["ms"] += ms * dur
        row["self_ms"] += ms * (dur - child_s[i])
        row["evals"] += span[E1] - span[E0]
        row["calls"] += span[C1] - span[C0]
    return totals
