"""Per-mode Gaussian-approximation evidence and multi-mode combination.

Each validated peak contributes ``log Z_k = l(peak) + (d/2) log 2pi
- 1/2 log det(-H_k)``, the integral of the second-order expansion of the
log-likelihood around the peak. The expensive part is deciding whether the
diagonal curvature the search already measured is the whole story.
One rotation test decides it for every mode with d >= 2: second-difference
probes along the diagonal direction (1,...,1)/sqrt(d) and a few random unit
directions, each compared with the curvature the diagonal alone predicts.
The random directions catch off-diagonal structure of mixed sign, which
cancels along the diagonal direction. A d = 1 mode needs no test. Every
mode's probe rows and its two tail-screen rows go out in one call shared
by all modes.

Only modes judged to have cross terms pay for the full d x d Hessian
stencil: each cross term from the mode's value and six more, the axis
points x +- eps_i e_i and x +- eps_j e_j, which the search's last gradient
already evaluated at the mode's steps (their second differences are the
diagonal), and the pair's own two points x +- (eps_i e_i + eps_j e_j);
d (d - 1) evaluations in one batch per full-route mode. That route factors
-H by Cholesky: the factor is the positive definiteness check, names the
pivot where a non-concave mode breaks down, and gives log det(-H). Its
condition number is the exact ratio of the extreme eigenvalues of -H. Total
evidence is the log-sum-exp over modes plus the log prior widths of the
flat coordinates the precheck screen set aside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HessianFailedError,
    NoModesFoundError,
    NotPositiveDefiniteError,
    UnsupportedDimensionError,
)
from .discovery import random_directions
from .linalg import LOG_2PI, condition_pd, log_det_pd, logsumexp
# Unused here: the benchmark tracer (perfbench/spans.py) wraps this name.
from .linalg import eig_symmetric  # noqa: F401

# An off-diagonal probe fires when the measured curvature along a direction
# deviates from its diagonal-only prediction by this relative margin.
PROBE_REL_THRESHOLD = 0.05
# Number of extra random-direction probes. The diagonal-direction probe
# alone sees the MEAN off-diagonal and is blind to correlations of mixed
# sign; random directions break that cancellation.
PROBE_EXTRA = 3
# A probe displaces the stiffest coordinate by this fraction of its width.
PROBE_STEP_FRACTION = 1e-2

# Tail diagnostic: evaluate at +-TAIL_SIGMA whitened radii along the
# whitened diagonal direction; a drop below TAIL_RATIO_WARN of the
# quadratic prediction means the density carries more mass out there than
# the Gaussian model, and a left/right drop mismatch above
# TAIL_ASYMMETRY_WARN means the mode is visibly skewed.
TAIL_SIGMA = 3.0
TAIL_RATIO_WARN = 0.7
TAIL_ASYMMETRY_WARN = 0.5
# Condition number past which a single Gaussian patch cannot be trusted to
# describe the mode (benign 1e6 anisotropy stays under it).
CONDITION_WARN = 3e6

HEAVY_TAIL_WARNING = "heavy-tail geometry detected"


@dataclass
class ModeEvidence:
    """A single mode's contribution to the evidence."""

    peak: object
    log_z: float
    hessian_kind: str  # 'diagonal' or 'full': the rotation test's route
    condition_number: float
    hessian: np.ndarray | None  # full matrix when hessian_kind == 'full'
    warnings: list = field(default_factory=list)
    evals_used: int = 0

    def to_dict(self):
        return {
            "location": [float(x) for x in self.peak.position],
            "logl": float(self.peak.logl),
            "log_z": float(self.log_z),
            "hessian_kind": self.hessian_kind,
            "condition_number": float(self.condition_number),
            "evals": int(self.evals_used),
        }


@dataclass
class EvidenceResult:
    """Combined evidence over all modes plus pathological-coordinate mass.

    log_z_total is the log of the likelihood's integral as the modes
    measure it: each mode's Gaussian is integrated over all of R^d, not cut
    at the box walls, so a mode whose mass reaches past a wall reads high
    (a unit Gaussian peaked on the corner of [-5, 5]^2 reads log 2 pi,
    four times its box integral, with no warning). Flat axes add their
    precheck marginal, the log of their prior widths. log_z_vs_prior
    subtracts the log-volume of the FULL original box so it is the
    evidence under the uniform prior.
    """

    log_z_total: float
    log_z_vs_prior: float
    modes: list
    precheck: object
    eval_counts: dict
    call_counts: dict
    warnings: list
    # Filled by the pipeline; absent on direct module use. timings_ms is
    # hardware noise and therefore excluded from the canonical dictionary.
    config_echo: dict | None = None
    seed: int | None = None
    survey: dict | None = None
    reduction: list | None = None
    timings_ms: dict | None = None

    def to_dict(self, with_timings=False):
        out = {
            "log_z": float(self.log_z_total),
            "log_z_vs_prior": float(self.log_z_vs_prior),
            "modes": [m.to_dict() for m in self.modes],
            "precheck": self.precheck.to_dict(),
            "eval_counts": {k: int(v) for k, v in self.eval_counts.items()},
            "call_counts": {k: int(v) for k, v in self.call_counts.items()},
            "warnings": list(self.warnings),
        }
        if self.config_echo is not None:
            out["config_echo"] = dict(self.config_echo)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.survey is not None:
            out["survey"] = dict(self.survey)
        if self.reduction is not None:
            out["reduction"] = [r.to_dict() for r in self.reduction]
        if with_timings and self.timings_ms is not None:
            out["timings_ms"] = {
                k: float(v) for k, v in self.timings_ms.items()
            }
        return out


@dataclass(frozen=True)
class Probe:
    """One mode's share of the shared probe call.

    ``rotated`` is the rotation test's verdict, ``tail`` the mode's two
    ``_tail_points`` rows and ``tail_values`` their values; ``evals``
    counts the rows the mode sent, probe and tail.
    """

    rotated: bool
    tail: np.ndarray
    tail_values: np.ndarray
    evals: int


def probe_offdiag(problem, peaks, *, rng):
    """Probe every peak for off-diagonal curvature, in one batched call.

    Each peak with d >= 2 is probed along v = (1,...,1)/sqrt(d), where the
    second difference gives v'Hv = mean(H_ii) + (d-1) * mean(H_ij, i != j),
    which sees the mean off-diagonal term, and along ``PROBE_EXTRA`` random
    unit directions drawn from ``rng``, which guard against off-diagonals
    that cancel in the mean. Every peak's directions come from one
    ``random_directions`` block, peak by peak in the order given, which is
    the stream a per-peak draw of one direction at a time takes. Each
    probe steps so that no coordinate moves more than
    ``PROBE_STEP_FRACTION`` of its diagonal width. A d = 1 peak needs no
    probe and is not rotated. Every peak's two ``_tail_points`` rows ride along, after its
    probe rows: 2 + 2 * ``PROBE_EXTRA`` + 2 rows per peak at d >= 2, and 2
    at d = 1. The rows, steps and verdicts of all peaks are built in one
    array pass, as (peak, direction, coordinate) arrays.

    A peak is rotated when some probe's u'Hu deviates from its diagonal-only
    prediction sum u_i^2 H_ii by at least ``PROBE_REL_THRESHOLD`` times
    that prediction, or when some probe value is non-finite (conservative:
    an unmeasurable mode is not assumed separable). Returns one ``Probe``
    per peak.
    """
    position = np.array([pk.position for pk in peaks], dtype=np.float64)
    hess_diag = np.array([pk.hess_diag for pk in peaks], dtype=np.float64)
    center_logl = np.array([pk.logl for pk in peaks], dtype=np.float64)
    n, d = position.shape
    widths = 1.0 / np.sqrt(-hess_diag)
    k = 1 + PROBE_EXTRA if d >= 2 else 0
    directions = np.empty((n, k, d))
    if k:
        directions[:, 0] = 1.0 / np.sqrt(d)
        directions[:, 1:] = random_directions(rng, n * PROBE_EXTRA, d).reshape(n, -1, d)
    eps = PROBE_STEP_FRACTION / np.max(np.abs(directions) / widths[:, None], axis=2)
    steps = eps[:, :, None] * directions
    tail = _tail_points(position, widths, problem.bounds)
    rows = np.concatenate([
        np.stack([position[:, None] + steps, position[:, None] - steps], axis=2)
        .reshape(n, 2 * k, d),
        tail,
    ], axis=1)
    values = problem.logl(rows.reshape(-1, d)).reshape(n, 2 * k + 2)
    pv = values[:, :2 * k].reshape(n, k, 2)
    pred = np.sum(directions * directions * hess_diag[:, None], axis=2)
    with np.errstate(invalid="ignore"):
        quad = (pv[..., 0] + pv[..., 1] - 2.0 * center_logl[:, None]) / (eps * eps)
        off = np.abs(quad - pred) >= PROBE_REL_THRESHOLD * np.abs(pred)
    rotated = (~np.isfinite(pv).all(axis=2) | off).any(axis=1)
    return [Probe(bool(r), t, v, 2 * k + 2)
            for r, t, v in zip(rotated, tail, values[:, 2 * k:])]


def full_hessian(problem, position, center_logl, hess_diag, steps):
    """Full symmetric Hessian of the log-likelihood at a peak.

    Off-diagonal entries come from the seven-point mixed-derivative stencil
    H_ij = [f(+i,+j) + f(-i,-j) - f(+i) - f(-i) - f(+j) - f(-j) + 2 f(x)]
    / (2 eps_i eps_j), second order like the 4-point cross stencil. The
    axis points are the ones the search's last gradient evaluated at the
    per-coordinate ``steps``, and the diagonal ``hess_diag`` is their second
    difference, so f(+i) + f(-i) - 2 f(x) is read back as H_ii eps_i^2 and
    only the two rows x +- (eps_i e_i + eps_j e_j) of each pair, d (d - 1)
    evaluations, are issued, as a single batch. Every pair value enters as
    its difference from ``center_logl``, which must be f(x) at
    ``position``, and each cross term is written to both triangles.
    """
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    eps = np.asarray(steps, dtype=np.float64)
    d = position.size
    if d < 2:
        raise UnsupportedDimensionError("full Hessian stencil needs d >= 2")

    # A + row and its mirrored - row per pair (i, j), in row-major pair
    # order, at x +- (eps_i e_i + eps_j e_j).
    ii, jj = np.triu_indices(d, 1)
    pair = np.arange(ii.size)[:, None]
    rows = np.tile(position, (ii.size, 2, 1))
    sign = np.array([1.0, -1.0])
    rows[pair, [0, 1], ii[:, None]] += sign * eps[ii][:, None]
    rows[pair, [0, 1], jj[:, None]] += sign * eps[jj][:, None]
    values = problem.logl(rows.reshape(-1, d))
    if not np.isfinite(values).all():
        raise HessianFailedError(
            "non-finite values in the off-diagonal Hessian stencil"
        )

    # f(+) - f(x) + f(-) - f(x) for every pair point, and for every axis
    # point as its second difference times eps^2
    diffs = (values - center_logl).reshape(-1, 2)
    sums = diffs[:, 0] + diffs[:, 1]
    axis = hess_diag * eps * eps
    hess = np.diag(hess_diag)
    cross = (sums - axis[ii] - axis[jj]) / (2.0 * eps[ii] * eps[jj])
    hess[ii, jj] = hess[jj, ii] = cross
    return hess


def _tail_points(position, widths, bounds):
    """The tail screen's 2 rows: +-3 whitened radii along the diagonal.

    Clipped into the bounds. They depend on the mode's position and
    diagonal widths only, not on its Hessian route. ``position`` and
    ``widths`` are (n, d), one row per mode, and so are the (n, 2, d)
    rows returned.
    """
    delta = (TAIL_SIGMA / np.sqrt(position.shape[-1])) * widths
    return bounds.clip(np.stack([position + delta, position - delta], axis=-2))


def _gaussianity_warnings(position, logl_center, neg_hess_apply, points, values):
    """Tail and asymmetry screen on the ``_tail_points`` rows and values.

    neg_hess_apply(delta) must return delta' (-H) delta for a displacement
    delta. The points are clipped into the bounds and the quadratic
    prediction uses the actual clipped displacement, so a peak near a wall
    is compared like for like. Non-finite values mean the support simply
    ends there (a wall, not a tail) and produce no warning.
    """
    if not np.isfinite(values).all():
        return []

    warnings = []
    ratios, drops = [], []
    for point, value in zip(points, values):
        shift = point - position
        q = 0.5 * float(neg_hess_apply(shift))
        if q <= 0.0:  # clipped to the peak itself; nothing to compare
            continue
        drop = logl_center - float(value)
        drops.append(drop)
        ratios.append(drop / q)
    if ratios and min(ratios) < TAIL_RATIO_WARN:
        warnings.append(HEAVY_TAIL_WARNING)
    if len(drops) == 2 and max(drops) > 0.0:
        if abs(drops[0] - drops[1]) / max(drops) > TAIL_ASYMMETRY_WARN:
            warnings.append("asymmetric mode profile detected")
    return warnings


def mode_evidence(problem, peak, probe):
    """Evidence contribution of one refined peak, given its ``probe``.

    ``probe`` is the peak's entry of ``probe_offdiag``. Its verdict
    decides the route: the already-measured diagonal curvature, or a full
    Hessian, which this function measures in one call of d (d - 1) rows.
    Then it applies the Gaussian-integral formula and screens the tails on
    the probe's tail rows. The mode's ``evals_used`` counts its rows: its
    probe and tail rows, plus the full Hessian's. Raises
    NotPositiveDefiniteError when the Cholesky factorization of the full
    -H breaks down (the candidate is a ridge or saddle that slipped
    through the diagonal filter, and its Gaussian integral does not
    exist).
    """
    position = np.asarray(peak.position, dtype=np.float64)
    hess_diag = np.asarray(peak.hess_diag, dtype=np.float64)
    d = position.size
    evals = probe.evals

    if probe.rotated:
        hess = full_hessian(problem, position, peak.logl, hess_diag, peak.steps)
        evals += d * (d - 1)
        neg_hess = -hess
        try:
            log_det = log_det_pd(neg_hess)
        except NotPositiveDefiniteError as err:
            raise NotPositiveDefiniteError(
                err.pivot_index,
                "mode has a non-concave direction in the full Hessian",
            ) from None
        condition = condition_pd(neg_hess)
        kind = "full"

        def neg_hess_apply(delta):
            return float(delta @ neg_hess @ delta)
    else:
        neg_diag = -hess_diag
        log_det = float(np.sum(np.log(neg_diag)))
        condition = float(neg_diag.max() / neg_diag.min())
        kind = "diagonal"
        hess = None

        def neg_hess_apply(delta):
            return float(np.sum(neg_diag * delta * delta))

    log_z = float(peak.logl) + 0.5 * d * LOG_2PI - 0.5 * log_det

    warnings = _gaussianity_warnings(
        position, float(peak.logl), neg_hess_apply, probe.tail, probe.tail_values,
    )
    if condition > CONDITION_WARN:
        warnings.append(
            f"mode condition number {condition:.3g} exceeds {CONDITION_WARN:.0e};"
            " evidence for this mode is unreliable"
        )

    return ModeEvidence(
        peak=peak,
        log_z=log_z,
        hessian_kind=kind,
        condition_number=condition,
        hessian=hess,
        warnings=warnings,
        evals_used=evals,
    )


def combine(mode_evidences, precheck, bounds, *, eval_counts=None,
            call_counts=None, warnings=()):
    """Total evidence: log-sum-exp over modes plus pathological-axis mass.

    ``bounds`` must be the FULL original parameter box (not the active
    subproblem): log_z_vs_prior subtracts its entire log-volume.
    """
    modes = list(mode_evidences)
    if not modes:
        raise NoModesFoundError(None, float("-inf"),
                                "no mode evidences to combine")
    log_z_total = logsumexp([m.log_z for m in modes]) + precheck.log_z_marginal
    log_z_vs_prior = log_z_total - bounds.log_volume
    all_warnings = list(warnings)
    for m in modes:
        all_warnings.extend(m.warnings)
    return EvidenceResult(
        log_z_total=float(log_z_total),
        log_z_vs_prior=float(log_z_vs_prior),
        modes=modes,
        precheck=precheck,
        eval_counts=dict(eval_counts or {}),
        call_counts=dict(call_counts or {}),
        warnings=all_warnings,
    )
