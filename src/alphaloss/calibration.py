"""Numerical classification-calibration checks.

A margin loss is classification-calibrated at a posterior eta != 1/2 when the
infimum of the conditional risk over wrongly-signed classification values
strictly exceeds the unconstrained infimum.  These routines verify that
property numerically for the alpha-loss family: a dense grid over
[-f_range, f_range] is refined by golden-section search around the best cell,
on both the full grid and the constrained half {f : f * (2 eta - 1) <= 0}
(which includes f = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import (
    Alpha,
    check_posterior,
    margin_loss_tail,
    margin_losses,
    margin_alpha_loss_d1,
    conditional_risk,
    optimal_classifier,
)

# A gap above this declares the loss calibrated at eta: double-precision grid
# minima carry ~1e-12 noise, so this keeps three orders of safety margin.
CALIBRATION_TOL = 1e-9

# Largest search grid: 10^7 points is 80 MB per float array, and a calibration
# workspace holds four such arrays (the grid, the risks, the other side's losses
# and the alpha-free loss tail shared by grid and -grid), 320 MB, for as long as
# the run that shares it.  The default grid has 100,001 points.
MAX_GRID_POINTS = 10**7

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CalibrationReport:
    """Both conditional-risk infima of the calibration inequality at one eta.

    ``gap = constrained_min - unconstrained_min`` is nonnegative because the
    constrained set is a subset; ``calibrated_at_eta`` holds iff the gap
    exceeds ``CALIBRATION_TOL``.  ``argmin_at_boundary`` flags minima that are
    only approached at the edge of the search interval (the infinite-alpha
    loss attains its infimum only in the limit f -> +-inf).
    """

    alpha: Alpha
    eta: float
    unconstrained_min: float
    constrained_min: float
    unconstrained_argmin: float
    gap: float
    calibrated_at_eta: bool
    argmin_at_boundary: bool

    def __post_init__(self):
        if self.constrained_min < self.unconstrained_min:
            raise ValueError("constrained minimum below unconstrained minimum")
        if self.calibrated_at_eta != (self.gap > CALIBRATION_TOL):
            raise ValueError("calibration flag inconsistent with gap")


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi]; returns (argmin, min)."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = fn(x2)
    x = 0.5 * (a + b)
    return x, fn(x)


@dataclass(frozen=True, eq=False)
class CalibrationWorkspace:
    """The read-only search grid over [-f_range, f_range] and the buffers of a check.

    Every :func:`check_calibration_at` given the workspace overwrites
    ``risks`` and ``other``, and only reads ``grid``.  ``tail`` holds the
    :func:`margin_loss_tail` of ``grid``, which is also that of ``-grid``, for
    the kind of alpha (finite or infinite) recorded in ``tail_infinite``; a
    check rebuilds it in place only when its alpha is of the other kind, and
    ``tail_infinite`` is the one field it sets.
    """

    f_range: float
    grid: np.ndarray
    risks: np.ndarray
    other: np.ndarray
    tail: np.ndarray
    # None until a check first builds the tail
    tail_infinite: bool | None = field(default=None, init=False)

    def tail_for(self, alpha: Alpha) -> np.ndarray:
        """The tail of ``grid`` for ``alpha``, rebuilt in place if it is of the other kind."""
        if self.tail_infinite != alpha.is_infinite:
            margin_loss_tail(alpha, self.grid, out=self.tail)
            object.__setattr__(self, "tail_infinite", alpha.is_infinite)
        return self.tail


def calibration_workspace(f_range: float = 50.0, grid_step: float = 1e-3) -> CalibrationWorkspace:
    """Build the sorted grid at about ``grid_step`` spacing and the buffers checks share."""
    # written so that NaN fails it too
    if not (f_range > 0.0 and grid_step > 0.0):
        raise ValueError(
            f"f_range and grid_step must be positive, got {f_range!r} and {grid_step!r}"
        )
    # an infinite step would round up to a 3-point grid, an infinite range past the cap
    for name, value in (("f_range", f_range), ("grid_step", grid_step)):
        if math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    # Odd point count keeps 0 on the grid: the constrained half includes f = 0.
    ratio = f_range / grid_step
    points = 2 * max(1, round(ratio)) + 1 if math.isfinite(ratio) else math.inf
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"f_range / grid_step = {ratio:.6g} needs a grid above {MAX_GRID_POINTS} points"
        )
    # np.linspace would overflow to a grid of inf and nan
    if not math.isfinite(2.0 * f_range):
        raise ValueError(f"f_range={f_range:.6g} is too large: 2 * f_range overflows")
    grid = np.linspace(-f_range, f_range, points)
    grid.flags.writeable = False
    return CalibrationWorkspace(f_range, grid, *(np.empty(points) for _ in range(3)))


def _wrong_side(grid: np.ndarray, eta: float) -> slice:
    """The indices of the sorted grid on the wrong side, f * (2 eta - 1) <= 0.

    The test is on signs: the prefix f <= 0 for eta > 1/2 and the suffix
    f >= 0 for eta < 1/2, both holding f = 0 (and -0).
    """
    if eta > 0.5:
        return slice(0, int(np.searchsorted(grid, 0.0, side="right")))
    return slice(int(np.searchsorted(grid, 0.0, side="left")), grid.size)


def check_calibration_at(
    alpha: Alpha, eta: float, *, work: CalibrationWorkspace | None = None
) -> CalibrationReport:
    """Evaluate the calibration inequality at one posterior eta != 1/2.

    ``work`` is the :func:`calibration_workspace` shared by the checks of one
    run, and its grid is the search grid; without it the check builds the
    default one.
    """
    eta = check_posterior(eta)
    if eta == 0.5:
        raise ValueError("eta = 1/2 is excluded: both infima coincide there")
    if work is None:
        work = calibration_workspace()
    f_range = work.f_range
    f_star = optimal_classifier(alpha, eta)
    if math.isfinite(f_star) and f_range <= abs(f_star):
        raise ValueError(
            f"f_range={f_range} does not cover the optimal classifier {f_star:.6g}"
        )

    grid = work.grid
    tail = work.tail_for(alpha)
    # eta * L(f) + (1 - eta) * L(-f), combined in place; L(-f) is taken on -grid
    # written into the buffer that receives it, which margin_losses allows, and
    # both calls share the tail, a function of |f|.
    risks = margin_losses(alpha, grid, out=work.risks, tail=tail)
    risks *= eta
    neg_grid = np.negative(grid, out=work.other)
    other = margin_losses(alpha, neg_grid, out=work.other, tail=tail)
    other *= 1.0 - eta
    risks += other

    # golden section around the best grid cell of a side, kept inside [lo, hi]
    def refine(side: slice, lo: float, hi: float) -> tuple[float, float]:
        k = side.start + int(np.argmin(risks[side]))
        cell_lo = max(grid[max(k - 1, 0)], lo)
        cell_hi = min(grid[min(k + 1, grid.size - 1)], hi)
        x, refined = _golden_section(lambda f: conditional_risk(alpha, eta, f), cell_lo, cell_hi)
        return x, min(refined, float(risks[k]))

    argmin, unconstrained = refine(slice(0, grid.size), -f_range, f_range)
    # An infimum only approached in the limit (the infinite-alpha loss) shows up
    # as a boundary risk that already equals the minimum to double precision.
    boundary_risk = min(float(risks[0]), float(risks[-1]))
    at_boundary = boundary_risk <= unconstrained + 1e-12 * max(1.0, abs(unconstrained))
    if at_boundary:
        argmin = -f_range if risks[0] <= risks[-1] else f_range

    # Refine without leaving the constrained half [-f_range, 0] (or mirrored).
    bounds = (-f_range, 0.0) if eta > 0.5 else (0.0, f_range)
    _, constrained = refine(_wrong_side(grid, eta), *bounds)

    unconstrained = min(unconstrained, constrained)
    gap = constrained - unconstrained
    return CalibrationReport(
        alpha=alpha,
        eta=eta,
        unconstrained_min=unconstrained,
        constrained_min=constrained,
        unconstrained_argmin=argmin,
        gap=gap,
        calibrated_at_eta=gap > CALIBRATION_TOL,
        argmin_at_boundary=at_boundary,
    )


def inner_derivative(alpha: Alpha, eta: float, f: float) -> float:
    """Derivative of the objective whose maximizer is the optimal classifier.

    For finite alpha > 1 the minimum conditional risk is scale * (1 - sup_f
    [eta * sigmoid(f)^c + (1-eta) * sigmoid(-f)^c]); this is d/df of the
    bracket, c * ((1-eta) * L'(-f) - eta * L'(f)) for the margin-loss
    derivative L', whose unique zero is f0 = alpha * log(eta / (1 - eta)).
    """
    if alpha.is_log or alpha.is_infinite:
        raise ValueError("inner derivative is defined for finite alpha > 1 only")
    eta = check_posterior(eta)
    f = float(f)
    if not math.isfinite(f):
        raise ValueError("f must be finite")
    return alpha.exponent * (
        (1.0 - eta) * margin_alpha_loss_d1(alpha, -f) - eta * margin_alpha_loss_d1(alpha, f)
    )


def calibration_sweep(
    alpha: Alpha, eta_grid, *, work: CalibrationWorkspace | None = None
) -> list[CalibrationReport]:
    """Run :func:`check_calibration_at` over a grid of posteriors, in order, on one workspace."""
    if work is None:
        work = calibration_workspace()
    reports = []
    for eta in eta_grid:
        try:
            reports.append(check_calibration_at(alpha, eta, work=work))
        except ValueError as err:
            raise ValueError(f"eta={eta}: {err}") from err
    return reports
