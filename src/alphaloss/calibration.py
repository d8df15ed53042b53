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
from dataclasses import dataclass

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
# workspace holds four such arrays (the grid, the risks, the losses on the grid
# and the loss tails of both alpha kinds on its nonnegative half), 320 MB, for
# as long as the run that shares it.  The default grid has 100,001 points.
MAX_GRID_POINTS = 10**7

# Coarsest grid step: the golden section refines only the best grid cell's
# neighbours.  Over alphas 1..inf and 50 posteriors the minima were within
# 2e-14 of the closed form at steps up to 20, 38 of 400 were wrong at 50, and
# far coarser steps can stall the search.  With the point cap this bound also
# keeps f_range below 5 * 10^6, so no grid value overflows.
MAX_GRID_STEP = 1.0

# Golden-section search shrinks its bracket by this ratio until it is _GOLDEN_TOL wide.
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10


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
    argmin_at_boundary: bool

    def __post_init__(self):
        if self.constrained_min < self.unconstrained_min:
            raise ValueError("constrained minimum below unconstrained minimum")

    @property
    def gap(self) -> float:
        return self.constrained_min - self.unconstrained_min

    @property
    def calibrated_at_eta(self) -> bool:
        return self.gap > CALIBRATION_TOL


def _golden_section(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi]; returns (argmin, min)."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > _GOLDEN_TOL:
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

    ``grid`` is mirror-symmetric, ``grid == -grid[::-1]`` bit for bit, so the
    loss at -grid[i] is the loss at grid[-1 - i].  Every
    :func:`check_calibration_at` given the workspace overwrites ``risks`` and
    ``losses``, and only reads ``grid`` and ``tails``.  ``tails`` is read-only
    too: row 0 holds the :func:`margin_loss_tail` of the nonnegative half
    ``grid[mid:]`` for finite alpha, row 1 for infinite alpha.  The tail is a
    function of |f|, so the tail of ``grid[:mid + 1]`` is its row read backwards.
    """

    grid: np.ndarray
    risks: np.ndarray
    losses: np.ndarray
    tails: np.ndarray


def calibration_workspace(f_range: float = 50.0, grid_step: float = 1e-3) -> CalibrationWorkspace:
    """Build the sorted grid at about ``grid_step`` spacing and the buffers checks share.

    The grid has an odd point count, 2 * mid + 1.  Its upper half is
    ``np.linspace(0, f_range, mid + 1)`` and its lower half that half negated,
    so its middle point is exactly +0.0, its ends exactly -f_range and f_range,
    and every point is its mirror's negation.  Both halves step by the same
    f_range / mid as ``np.linspace(-f_range, f_range, 2 * mid + 1)``, so each
    point is within a few ulps of f_range of that grid's (2 at most on the
    grids the tests measure).
    """
    # each written so that NaN fails it too
    if not 0.0 < f_range < math.inf:
        raise ValueError(f"f_range must be finite and positive, got {f_range!r}")
    if not 0.0 < grid_step <= MAX_GRID_STEP:
        raise ValueError(f"grid_step must lie in (0, {MAX_GRID_STEP}], got {grid_step!r}")
    # An odd point count has a middle point, 0 by construction below: the
    # constrained half includes f = 0.
    ratio = f_range / grid_step
    points = 2 * max(1, round(ratio)) + 1 if math.isfinite(ratio) else math.inf
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"f_range / grid_step = {ratio:.6g} needs a grid above {MAX_GRID_POINTS} points"
        )
    # built in place, with the half-grid temporary gone before the buffers exist
    mid = points // 2
    grid = np.empty(points)
    grid[mid:] = np.linspace(0.0, f_range, mid + 1)
    np.negative(grid[:mid:-1], out=grid[:mid])
    grid.flags.writeable = False
    tails = np.empty((2, mid + 1))
    for row, alpha in zip(tails, (Alpha(1.0), Alpha(math.inf))):
        margin_loss_tail(alpha, grid[mid:], out=row)
    tails.flags.writeable = False
    return CalibrationWorkspace(grid, np.empty(points), np.empty(points), tails)


def _wrong_side(grid: np.ndarray, eta: float) -> slice:
    """The indices of the workspace grid on the wrong side, f * (2 eta - 1) <= 0.

    The middle point of a :func:`calibration_workspace` grid is 0: the prefix
    up to it holds f <= 0 (for eta > 1/2) and the suffix from it f >= 0.
    """
    mid = grid.size // 2
    return slice(0, mid + 1) if eta > 0.5 else slice(mid, grid.size)


def check_calibration_at(
    alpha: Alpha, eta: float, *, work: CalibrationWorkspace | None = None
) -> CalibrationReport:
    """Evaluate the calibration inequality at one posterior eta != 1/2.

    ``work`` is the :func:`calibration_workspace` shared by the checks of one
    run, and its grid is the search grid; without it the check builds the
    default one.
    """
    eta = check_posterior(eta)
    cell = f"alpha={alpha}, eta={eta}"
    if eta == 0.5:
        raise ValueError(f"{cell}: eta = 1/2 is excluded, both infima coincide there")
    if work is None:
        work = calibration_workspace()
    grid = work.grid
    f_range = float(grid[-1])  # exactly the workspace's, as np.linspace writes its stop
    f_star = optimal_classifier(alpha, eta)
    if math.isfinite(f_star) and f_range <= abs(f_star):
        raise ValueError(f"{cell}: f_range={f_range} does not cover the optimal classifier {f_star:.6g}")

    # L once per point, one call per side of f = 0 (both write the middle
    # point, with the same bits); on the mirrored grid L(-f) is L read backwards.
    losses, mid = work.losses, grid.size // 2
    tail = work.tails[int(alpha.is_infinite)]
    margin_losses(alpha, grid[:mid + 1], out=losses[:mid + 1], tail=tail[::-1])
    margin_losses(alpha, grid[mid:], out=losses[mid:], tail=tail)
    # eta * L(f) + (1 - eta) * L(-f), formed in place
    risks = np.multiply(losses[::-1], 1.0 - eta, out=work.risks)
    losses *= eta
    risks += losses

    # golden section around the best grid cell of a side, kept inside the side
    def refine(side: slice) -> tuple[float, float]:
        k = side.start + int(np.argmin(risks[side]))
        cell_lo = grid[max(k - 1, side.start)]
        cell_hi = grid[min(k + 1, side.stop - 1)]
        x, refined = _golden_section(lambda f: conditional_risk(alpha, eta, f), cell_lo, cell_hi)
        return x, min(refined, float(risks[k]))

    argmin, unconstrained = refine(slice(0, grid.size))
    # An infimum only approached in the limit (the infinite-alpha loss) shows up
    # as a risk at a grid end, exactly -f_range or f_range, that already equals
    # the minimum to double precision.
    edge = 0 if risks[0] <= risks[-1] else -1
    at_boundary = float(risks[edge]) <= unconstrained + 1e-12 * max(1.0, abs(unconstrained))
    if at_boundary:
        argmin = float(grid[edge])

    # Refine without leaving the constrained half [-f_range, 0] (or mirrored).
    _, constrained = refine(_wrong_side(grid, eta))

    return CalibrationReport(
        alpha=alpha,
        eta=eta,
        unconstrained_min=min(unconstrained, constrained),
        constrained_min=constrained,
        unconstrained_argmin=argmin,
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
    return [check_calibration_at(alpha, eta, work=work) for eta in eta_grid]
