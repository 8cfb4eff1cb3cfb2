"""Deterministic Bayesian evidence via mode discovery and Laplace integration.

Typical use::

    from laplev import Problem, BoundsBox, preset_config, run

    problem = Problem(log_likelihood_fn, BoundsBox.cube(8, -5.0, 5.0))
    result = run(problem, preset_config("fast", seed=1))
    print(result.log_z_total, len(result.modes))
    for mode in result.modes:
        print(mode.peak.position, mode.log_z, mode.hessian_kind)

``log_likelihood_fn`` takes an (N, d) array and returns N log-likelihood
values; everything downstream is batched, deterministic for a fixed
(seed, config), and accounted for in ``result.eval_counts`` (evaluations)
and ``result.call_counts`` (batched calls).
"""

from .errors import (CenterEvaluationError, DegenerateProblemError,
                     HessianFailedError, InvalidParameterError, LaplevError,
                     NoModesFoundError, NotPositiveDefiniteError,
                     NoValidMaximaError, SaddleDirectionError,
                     UnsupportedDimensionError)
from .evidence import EvidenceResult, ModeEvidence, combine
from .pipeline import (PRESETS, PipelineConfig, preset_config, result_json,
                       run)
from .precheck import PrecheckReport, precheck
from .problem import BoundsBox, Problem, View
from .reduction import ReductionReport, reduce_mode
from .targets import SUITES, AnalyticTarget, get_target, list_targets

__version__ = "0.1.0"

__all__ = [
    "AnalyticTarget", "BoundsBox", "CenterEvaluationError",
    "DegenerateProblemError", "EvidenceResult", "HessianFailedError",
    "InvalidParameterError", "LaplevError", "ModeEvidence",
    "NoModesFoundError", "NotPositiveDefiniteError", "NoValidMaximaError",
    "PRESETS", "PipelineConfig", "PrecheckReport", "Problem",
    "ReductionReport", "SaddleDirectionError", "SUITES",
    "UnsupportedDimensionError", "View", "combine", "get_target",
    "list_targets", "precheck", "preset_config", "reduce_mode",
    "result_json", "run", "__version__",
]
