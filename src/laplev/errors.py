"""Exception taxonomy for the evidence pipeline.

Every failure mode that callers are expected to branch on gets its own class.
The CLI maps these to distinct exit codes.
"""


class LaplevError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InvalidParameterError(LaplevError, ValueError):
    """A function was constructed or called with out-of-range parameters."""

    exit_code = 2


class UnsupportedDimensionError(InvalidParameterError):
    """The requested dimension is not supported by this target."""

    exit_code = 2


class NumericInputError(LaplevError, ValueError):
    """Non-finite or otherwise unusable numeric input."""


class NotPositiveDefiniteError(LaplevError):
    """Cholesky breakdown. Carries the pivot index where it happened."""

    exit_code = 7

    def __init__(self, pivot_index, message=None):
        self.pivot_index = int(pivot_index)
        super().__init__(message or f"matrix not positive definite at pivot {pivot_index}")


class DegenerateProblemError(LaplevError):
    """Every precheck axis probe read the box center's value.

    All 2d probe sensitivities vanished. That is what a constant likelihood
    gives, but also one that takes the center's value at each probe point
    and varies in between, such as a ring through every probe.
    """

    exit_code = 6


class CenterEvaluationError(LaplevError):
    """The likelihood is not finite at the prior box center."""

    exit_code = 6


class NoModesFoundError(LaplevError):
    """Mode search finished with zero stuck samples.

    Carries the best sample seen so the caller can diagnose whether the
    search was close to something.
    """

    exit_code = 4

    def __init__(self, best_position, best_logl, detail=""):
        self.best_position = best_position
        self.best_logl = float(best_logl)
        msg = f"no modes found; best logl seen {self.best_logl:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NoValidMaximaError(LaplevError):
    """Every refined candidate was filtered out.

    ``reasons`` maps each filter name to the number of candidates it removed;
    ``n_candidates`` is the number of held peaks the filters saw;
    ``warnings`` holds the lines the stage raised before the filters
    rejected everything, such as a diagonal within rounding noise, and the
    message names them.
    """

    exit_code = 5

    def __init__(self, reasons, n_candidates, warnings=()):
        self.reasons = dict(reasons)
        self.n_candidates = int(n_candidates)
        self.warnings = tuple(warnings)
        msg = f"all {self.n_candidates} candidates rejected: {self.reasons}"
        if self.warnings:
            msg += "; " + "; ".join(self.warnings)
        super().__init__(msg)


class HessianFailedError(LaplevError):
    """A Hessian stencil produced non-finite entries."""


class SaddleDirectionError(LaplevError):
    """Eigendecomposition of -H found a negative eigenvalue."""

