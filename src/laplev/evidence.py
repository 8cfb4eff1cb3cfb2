"""Per-mode Gaussian-approximation evidence and multi-mode combination.

Each validated peak contributes ``log Z_k = l(peak) + (d/2) log 2pi
- 1/2 log det(-H_k)``, the integral of the second-order expansion of the
log-likelihood around the peak. The expensive part is deciding whether the
diagonal curvature already measured during refinement is the whole story:

1. Trajectory analysis (free): the optimizer's accepted steps, whitened by
   the per-coordinate curvature, should align with the whitened gradient
   when the mode has no cross-coordinate structure. The mean perpendicular
   fraction of the recorded steps classifies the mode.
2. Probe (cheap, only when step analysis is inconclusive): a second
   difference along the diagonal direction measures the mean off-diagonal
   curvature directly, plus a few random directions to catch off-diagonal
   structure of mixed sign.

Only modes judged to have cross terms pay for the full d x d Hessian
stencil. Total evidence is the log-sum-exp over modes plus the marginal
contribution of any pathological (flat/soft) coordinates found by the
precheck screen.
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
from .linalg import LOG_2PI, eig_symmetric, logsumexp
from .refine import GRAD_FILTER_SCALE, hess_steps

# Mean whitened perpendicular fraction above which a mode is declared
# rotated outright, and below which it is declared axis-aligned outright.
# The band in between (and trajectories with fewer than two usable steps)
# falls through to the evaluation probe.
PERP_ROTATED = 0.05
PERP_AXIS_ALIGNED = 0.02
# Steps shorter than this are numerical dust, not optimizer motion.
STEP_NORM_FLOOR = 1e-14

# An off-diagonal probe fires when the measured curvature along a direction
# deviates from its diagonal-only prediction by this relative margin.
PROBE_REL_THRESHOLD = 0.05
# Default number of extra random-direction probes. The diagonal-direction
# probe alone sees the MEAN off-diagonal and is blind to correlations of
# mixed sign; random directions break that cancellation.
PROBE_EXTRA_DEFAULT = 3
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


@dataclass(frozen=True)
class RotationVerdict:
    """How a mode's off-diagonal structure was judged.

    decision: 'axis_aligned', 'rotated', or 'inconclusive' (the last only
    when the probe was unavailable, e.g. d = 1 trajectories are always
    conclusive). perp_mean/perp_max summarize the whitened perpendicular
    step fractions; probe_b is the measured mean off-diagonal curvature
    when the probe ran, else None.
    """

    decision: str
    perp_mean: float
    perp_max: float
    probe_b: float | None


@dataclass
class ModeEvidence:
    """A single mode's contribution to the evidence."""

    peak: object
    log_z: float
    hessian_kind: str  # 'diagonal' or 'full'
    log_det_negh: float
    condition_number: float
    verdict: RotationVerdict
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
        }


@dataclass
class EvidenceResult:
    """Combined evidence over all modes plus pathological-coordinate mass.

    log_z_total integrates the likelihood over the parameter box;
    log_z_vs_prior subtracts the log-volume of the FULL original box so it
    is the evidence under the uniform prior.
    """

    log_z_total: float
    log_z_vs_prior: float
    modes: list
    precheck: object
    eval_counts: dict
    warnings: list
    # Filled by the pipeline; absent on direct module use. timings_ms is
    # hardware noise and therefore excluded from the canonical dictionary.
    config_echo: dict | None = None
    seed: int | None = None
    reduction: list | None = None
    timings_ms: dict | None = None

    def to_dict(self, with_timings=False):
        out = {
            "log_z": float(self.log_z_total),
            "log_z_vs_prior": float(self.log_z_vs_prior),
            "modes": [m.to_dict() for m in self.modes],
            "precheck": self.precheck.to_dict(),
            "eval_counts": {k: int(v) for k, v in self.eval_counts.items()},
            "warnings": list(self.warnings),
        }
        if self.config_echo is not None:
            out["config_echo"] = dict(self.config_echo)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.reduction is not None:
            out["reduction"] = [r.to_dict() for r in self.reduction]
        if with_timings and self.timings_ms is not None:
            out["timings_ms"] = {
                k: float(v) for k, v in self.timings_ms.items()
            }
        return out


def perpendicular_fraction(steps, hess_diag, grad_floor=0.0):
    """Whitened perpendicular fraction of recorded optimizer steps.

    steps is a sequence of (start, gradient_at_start, end) triples; the
    gradient is of the log-likelihood. Coordinates are whitened by
    sqrt(-H_ii): positions scale by w while gradients scale by 1/w, so a
    curvature-scaled step toward an axis-aligned optimum maps exactly onto
    the whitened gradient direction and any residual perpendicular
    component is evidence of cross-coordinate curvature.

    Steps whose starting gradient has max-norm below ``grad_floor`` are
    skipped: they were taken from an already-stationary point, where the
    line search crushes the step to floating-point dust whose direction
    carries no curvature information.

    Returns (mean, max, n_usable); mean and max are NaN when fewer than 2
    steps are usable (steps shorter than STEP_NORM_FLOOR, stationary-point
    steps, or steps with non-finite/zero whitened gradients are skipped).
    """
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    w = np.sqrt(-hess_diag)
    fractions = []
    for start, grad, end in steps:
        grad = np.asarray(grad, dtype=np.float64)
        if float(np.abs(grad).max()) < grad_floor:
            continue
        delta = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        if float(np.linalg.norm(delta)) < STEP_NORM_FLOOR:
            continue
        step_w = delta * w
        grad_w = grad / w
        gn = float(np.linalg.norm(grad_w))
        sn = float(np.linalg.norm(step_w))
        if not (np.isfinite(gn) and np.isfinite(sn)) or gn == 0.0 or sn == 0.0:
            continue
        ghat = grad_w / gn
        perp = step_w - float(step_w @ ghat) * ghat
        fractions.append(float(np.linalg.norm(perp)) / sn)
    if len(fractions) < 2:
        return float("nan"), float("nan"), len(fractions)
    arr = np.asarray(fractions)
    return float(arr.mean()), float(arr.max()), len(fractions)


def _probe_step(direction, widths):
    """Step length that moves no coordinate more than a small width fraction."""
    return PROBE_STEP_FRACTION / float(np.max(np.abs(direction) / widths))


def probe_offdiag(problem, position, center_logl, hess_diag, *, rng=None,
                  extra=PROBE_EXTRA_DEFAULT, threshold=PROBE_REL_THRESHOLD):
    """Measure mean off-diagonal curvature with second-difference probes.

    The main probe runs along v = (1,...,1)/sqrt(d), where the second
    difference gives v'Hv = mean(H_ii) + (d-1) * mean(H_ij, i != j); the
    returned b is that mean off-diagonal term. ``extra`` additional probes
    along random unit directions (drawn from rng; skipped when rng is None)
    guard against off-diagonals that cancel in the mean. All probe rows are
    issued as one evaluation batch.

    Returns (b, rotated): rotated is True when |b| exceeds ``threshold``
    times |mean(H_ii)|, when any extra probe's measured curvature deviates
    from its diagonal-only prediction by that relative margin, or when any
    probe value is non-finite (conservative: an unmeasurable mode is not
    assumed separable).
    """
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    d = position.size
    if d < 2:
        raise UnsupportedDimensionError("off-diagonal probe needs d >= 2")
    widths = 1.0 / np.sqrt(-hess_diag)

    directions = [np.full(d, 1.0 / np.sqrt(d))]
    if extra > 0 and rng is not None:
        for _ in range(int(extra)):
            u = rng.standard_normal(d)
            norm = float(np.linalg.norm(u))
            while norm <= 1e-12:
                u = rng.standard_normal(d)
                norm = float(np.linalg.norm(u))
            directions.append(u / norm)

    eps = np.array([_probe_step(u, widths) for u in directions])
    rows = np.vstack([
        np.stack([position + e * u, position - e * u])
        for u, e in zip(directions, eps)
    ])
    values = problem.logl(rows)

    b = float("nan")
    rotated = False
    for k, (u, e) in enumerate(zip(directions, eps)):
        plus, minus = float(values[2 * k]), float(values[2 * k + 1])
        if not (np.isfinite(plus) and np.isfinite(minus)):
            rotated = True
            continue
        quad = (plus + minus - 2.0 * center_logl) / (e * e)  # u'Hu
        pred = float(np.sum(u * u * hess_diag))  # diagonal-only prediction
        if k == 0:
            # along (1,..,1)/sqrt(d) the prediction equals mean(H_ii), and
            # the excess is (d-1) times the mean off-diagonal entry
            b = (quad - pred) / (d - 1)
            if abs(b) >= threshold * abs(pred):
                rotated = True
        elif abs(quad - pred) >= threshold * abs(pred):
            rotated = True
    return b, rotated


def full_hessian(problem, position, center_logl, hess_diag):
    """Full symmetric Hessian of the log-likelihood at a peak.

    Off-diagonal entries come from the 4-point cross stencil
    [f(+i,+j) - f(+i,-j) - f(-i,+j) + f(-i,-j)] / (4 eps_i eps_j)
    with the same per-coordinate steps as the diagonal stage; the diagonal
    is reused from ``hess_diag`` (already measured during refinement). All
    2 d (d-1) off-diagonal evaluations are issued as a single batch and the
    result is explicitly symmetrized.
    """
    position = np.asarray(position, dtype=np.float64)
    hess_diag = np.asarray(hess_diag, dtype=np.float64)
    d = position.size
    if d < 2:
        raise UnsupportedDimensionError("full Hessian stencil needs d >= 2")
    widths = 1.0 / np.sqrt(-hess_diag)
    eps = hess_steps(position, widths)

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows = np.empty((4 * len(pairs), d))
    for k, (i, j) in enumerate(pairs):
        base = position.copy()
        for r, (si, sj) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            row = base.copy()
            row[i] += si * eps[i]
            row[j] += sj * eps[j]
            rows[4 * k + r] = row
    values = problem.logl(rows)
    if not np.isfinite(values).all():
        raise HessianFailedError(
            "non-finite values in the off-diagonal Hessian stencil"
        )

    hess = np.diag(hess_diag)
    for k, (i, j) in enumerate(pairs):
        vpp, vpm, vmp, vmm = values[4 * k: 4 * k + 4]
        hess[i, j] = hess[j, i] = (vpp - vpm - vmp + vmm) / (4.0 * eps[i] * eps[j])
    return 0.5 * (hess + hess.T)


def _gaussianity_warnings(problem, position, logl_center, neg_hess_apply,
                          widths, bounds):
    """Tail and asymmetry screen: 2 evaluations at +-3 whitened radii.

    neg_hess_apply(delta) must return delta' (-H) delta for a displacement
    delta. Probes are clipped into the bounds and the quadratic prediction
    uses the actual clipped displacement, so a peak near a wall is compared
    like for like. Non-finite probe values mean the support simply ends
    there (a wall, not a tail) and produce no warning.
    """
    d = position.size
    delta = (TAIL_SIGMA / np.sqrt(d)) * widths
    plus = bounds.clip((position + delta)[None, :])[0]
    minus = bounds.clip((position - delta)[None, :])[0]
    values = problem.logl(np.stack([plus, minus]))
    if not np.isfinite(values).all():
        return []

    warnings = []
    ratios, drops = [], []
    for point, value in zip((plus, minus), values):
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


def mode_evidence(problem, peak, *, rng=None, extra_probes=PROBE_EXTRA_DEFAULT,
                  tail_diagnostic=True, eps_rot=PERP_ROTATED):
    """Evidence contribution of one refined peak.

    Decides between the already-measured diagonal curvature and a full
    Hessian via trajectory analysis with a probe fallback, then applies
    the Gaussian-integral formula. ``eps_rot`` is the rotated threshold
    for both the trajectory fraction and the probe's relative coupling.
    Raises NotPositiveDefiniteError when the full path finds a non-concave
    direction (the candidate is a ridge or saddle that slipped through the
    diagonal filter, and its Gaussian integral does not exist).
    """
    position = np.asarray(peak.position, dtype=np.float64)
    hess_diag = np.asarray(peak.hess_diag, dtype=np.float64)
    d = position.size
    evals_before = problem.eval_counter

    stationary = GRAD_FILTER_SCALE * max(1.0, abs(float(peak.logl)))
    perp_mean, perp_max, n_usable = perpendicular_fraction(
        peak.steps or [], hess_diag, grad_floor=stationary,
    )
    probe_b = None
    if d < 2:
        # one coordinate: the diagonal IS the full Hessian
        decision = "axis_aligned"
    elif n_usable >= 2 and perp_mean > eps_rot:
        decision = "rotated"
    elif n_usable >= 2 and perp_mean < min(PERP_AXIS_ALIGNED, eps_rot):
        decision = "axis_aligned"
    else:
        probe_b, probe_rotated = probe_offdiag(
            problem, position, peak.logl, hess_diag,
            rng=rng, extra=extra_probes, threshold=eps_rot,
        )
        decision = "rotated" if probe_rotated else "axis_aligned"
    verdict = RotationVerdict(decision, perp_mean, perp_max, probe_b)

    if decision == "rotated":
        hess = full_hessian(problem, position, peak.logl, hess_diag)
        eigenvalues, _ = eig_symmetric(-hess)
        if eigenvalues[0] <= 0.0:
            raise NotPositiveDefiniteError(
                int(np.argmin(eigenvalues)),
                "mode has a non-concave direction in the full Hessian",
            )
        log_det = float(np.sum(np.log(eigenvalues)))
        condition = float(eigenvalues[-1] / eigenvalues[0])
        kind = "full"
        neg_hess = -hess

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

    warnings = []
    if tail_diagnostic:
        true_widths = 1.0 / np.sqrt(-hess_diag)
        warnings.extend(_gaussianity_warnings(
            problem, position, float(peak.logl), neg_hess_apply,
            true_widths, problem.bounds,
        ))
    if condition > CONDITION_WARN:
        warnings.append(
            f"mode condition number {condition:.3g} exceeds {CONDITION_WARN:.0e};"
            " evidence for this mode is unreliable"
        )

    return ModeEvidence(
        peak=peak,
        log_z=log_z,
        hessian_kind=kind,
        log_det_negh=log_det,
        condition_number=condition,
        verdict=verdict,
        hessian=hess,
        warnings=warnings,
        evals_used=int(problem.eval_counter - evals_before),
    )


def combine(mode_evidences, precheck, bounds, *, eval_counts=None,
            warnings=()):
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
        warnings=all_warnings,
    )
