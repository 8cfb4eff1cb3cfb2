"""The benchmark's tracer wraps module attributes the pipeline calls through.

``perfbench/spans.py`` lists them in ``trace_points``. Deleting or renaming
one of those names breaks the traced benchmark pass, so the package's own
suite checks that every listed attribute still resolves, and that a traced
run reproduces an untraced one while its observers count the peaks that
the search and refine pass on.
"""

import importlib.util
from pathlib import Path

import laplev

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    points = load_spans().trace_points(laplev)
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_run_matches_and_counts_peaks():
    spans = load_spans()
    config = laplev.preset_config("conservative", seed=1)

    def once():
        return laplev.result_json(laplev.run(laplev.get_target("mixture4", 2).problem, config))

    untraced = once()
    with spans.patched(spans.Tracer(), laplev) as tracer:
        traced = once()
    assert traced == untraced
    obs = tracer.observed
    assert obs["discover.seeds_in"] >= obs["discover.peaks_out"] >= 1
    assert obs["refine.peaks_in"] >= obs["refine.peaks_out"] >= 1
