import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from alphaloss import (
    Alpha,
    CalibrationReport,
    calibration_sweep,
    check_calibration_at,
    conditional_risk,
    logit,
    margin_alpha_loss,
    min_conditional_risk,
    optimal_classifier,
)
from alphaloss import margin_losses
from alphaloss.losses import margin_loss_tail
from alphaloss.calibration import (
    MAX_GRID_POINTS,
    MAX_GRID_STEP,
    _golden_section,
    _wrong_side,
    calibration_workspace,
)
from conftest import A1, A2, AINF, ETA_GRID, forbid, traced_peak


class TestCheckCalibrationAt:
    def test_finite_alpha_report(self):
        rep = check_calibration_at(A2, 0.8)
        assert rep.calibrated_at_eta
        assert not rep.argmin_at_boundary
        assert rep.unconstrained_argmin == pytest.approx(2.0 * math.log(4.0), abs=1e-3)
        # constrained half [-50, 0] has its minimum at f = 0 for eta > 1/2
        expected_gap = margin_alpha_loss(A2, 0.0) - min_conditional_risk(A2, 0.8)
        assert rep.constrained_min == pytest.approx(margin_alpha_loss(A2, 0.0), abs=1e-9)
        assert rep.unconstrained_min == pytest.approx(min_conditional_risk(A2, 0.8), abs=1e-9)
        assert rep.gap == pytest.approx(expected_gap, abs=1e-6)

    def test_infinite_alpha_report(self):
        rep = check_calibration_at(AINF, 0.7)
        assert rep.calibrated_at_eta
        assert rep.argmin_at_boundary
        assert rep.unconstrained_argmin == 50.0
        assert rep.unconstrained_min == pytest.approx(0.3, abs=1e-12)
        # f = 0 belongs to the constrained set, where the sigmoid-loss risk is 1/2
        assert rep.constrained_min == pytest.approx(0.5, abs=1e-12)
        assert rep.gap == pytest.approx(0.2, abs=1e-9)

    def test_log_loss_report(self):
        rep = check_calibration_at(A1, 0.6)
        assert rep.calibrated_at_eta
        assert rep.unconstrained_argmin == pytest.approx(logit(0.6), abs=1e-3)
        assert rep.unconstrained_argmin == pytest.approx(0.405465, abs=1e-3)

    def test_rejects_half(self):
        with pytest.raises(ValueError, match="alpha=2, eta=0.5: "):
            check_calibration_at(A2, 0.5)

    def test_rejects_range_not_covering_optimum(self):
        # optimal classifier at (4, 0.9) is about 8.8
        with pytest.raises(ValueError, match="alpha=4, eta=0.9: f_range=5.0 does not cover"):
            check_calibration_at(Alpha(4), 0.9, work=calibration_workspace(f_range=5.0))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            check_calibration_at(A2, 0.7, work=calibration_workspace(f_range=-1.0))
        with pytest.raises(ValueError):
            check_calibration_at(A2, 0.7, work=calibration_workspace(grid_step=0.0))

    def test_subset_bound_holds_exactly(self):
        for alpha in (A1, Alpha(1.1), A2, AINF):
            for eta in ETA_GRID:
                rep = check_calibration_at(alpha, eta)
                assert rep.constrained_min >= rep.unconstrained_min
                assert rep.gap == rep.constrained_min - rep.unconstrained_min

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            CalibrationReport(
                alpha=A2, eta=0.7, unconstrained_min=1.0, constrained_min=0.5,
                unconstrained_argmin=0.0, argmin_at_boundary=False,
            )


class TestGridCap:
    def test_default_grid_is_allowed(self):
        assert 2 * round(50.0 / 1e-3) + 1 <= MAX_GRID_POINTS
        check_calibration_at(Alpha(2), 0.3)

    @pytest.mark.parametrize(
        "f_range, grid_step",
        [
            (50.0, 1e-12),
            (50.0, 50.0 / (MAX_GRID_POINTS // 2)),  # one point past the cap
            (50.0, 1e-320),  # f_range / grid_step overflows to inf
            (1e308, 1e-3),
        ],
    )
    def test_oversized_grid_rejected_before_allocation(self, monkeypatch, f_range, grid_step):
        forbid(monkeypatch, np, "linspace", "the grid was allocated")
        with pytest.raises(ValueError, match="grid above"):
            check_calibration_at(Alpha(2), 0.3, work=calibration_workspace(f_range, grid_step))

    @pytest.mark.parametrize("f_range", [1e308, math.nextafter(sys.float_info.max / 2, math.inf)])
    def test_overflowing_range_rejected_before_allocation(self, monkeypatch, f_range):
        forbid(monkeypatch, np, "linspace", "the grid was allocated")
        with pytest.raises(ValueError, match="grid_step"):
            calibration_workspace(f_range, 1e305)

    @pytest.mark.parametrize("f_range, grid_step", [(math.nan, 1e-3), (50.0, math.nan)])
    def test_nan_input_named_not_blamed_on_the_cap(self, monkeypatch, f_range, grid_step):
        forbid(monkeypatch, np, "linspace", "the grid was allocated")
        name = "f_range" if math.isnan(f_range) else "grid_step"
        with pytest.raises(ValueError, match=f"^{name} must .*, got nan$") as err:
            calibration_workspace(f_range, grid_step)
        assert "grid above" not in str(err.value)

    @pytest.mark.parametrize("grid_step", [0.1, MAX_GRID_STEP])
    def test_coarsest_steps_find_the_closed_form_minima(self, grid_step):
        work = calibration_workspace(grid_step=grid_step)
        for alpha in (A1, Alpha(1.5), A2, Alpha(10), AINF):
            for eta in (0.01, 0.3, 0.7, 0.99):
                rep = check_calibration_at(alpha, eta, work=work)
                assert rep.unconstrained_min == pytest.approx(
                    min_conditional_risk(alpha, eta), abs=1e-9
                ), (alpha.value, eta)
                assert rep.gap > 0, (alpha.value, eta)


# Posteriors 0.01..0.99 without 1/2, and 1/2 plus or minus one ulp.
SLICE_ETAS = [k / 100 for k in range(1, 100) if k != 50] + [
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
]


# Six grids (f_range, grid_step) that a symmetric np.linspace(-f_range, f_range,
# n) builds differently: its middle point lands a few ulps off 0 on some.
WRONG_SIDE_GRIDS = [
    (50.0, 1e-3),  # the default grid, with f = 0 on it
    (50.0, 1 / 3),
    (7.0, 1e-3 / 7),  # the symmetric linspace rounds the middle point to +8.9e-16
    (2.9, 1 / 3),  # and here to -4.4e-16
    (1e-6, 1e-9 / 3),
    (1e-300, 1e-301 / 3),
]


class TestWrongSideSlice:
    """The constrained half as a slice of the sorted grid, against the sign mask."""

    @pytest.mark.parametrize("f_range, grid_step", WRONG_SIDE_GRIDS)
    def test_matches_mask_form(self, f_range, grid_step):
        grid = calibration_workspace(f_range, grid_step).grid
        for alpha in (A1, A2, AINF):
            loss, loss_neg = margin_losses(alpha, grid), margin_losses(alpha, -grid)
            for eta in SLICE_ETAS:
                risks = eta * loss + (1.0 - eta) * loss_neg
                mask = grid * (2.0 * eta - 1.0) <= 0.0
                side = _wrong_side(grid, eta)
                assert np.array_equal(np.arange(grid.size)[side], np.flatnonzero(mask)), eta
                masked_j = int(np.flatnonzero(mask)[np.argmin(risks[mask])])
                assert side.start + int(np.argmin(risks[side])) == masked_j, eta


    # a symmetric np.linspace(-f_range, f_range, n) rounds the middle point of
    # all but the first grid off 0, by +7.1e-15, +8.9e-16, -4.4e-16, -3.6e-15
    # and +1.4e-17; the mirrored build puts it at 0 exactly
    @pytest.mark.parametrize(
        "f_range, grid_step",
        [(50.0, 1e-3), (50.0, 2e-5), (7.0, 1e-3 / 7), (2.9, 1 / 3), (30.0, 3e-4), (0.1, 3e-4)],
    )
    def test_middle_point_is_zero_on_both_sides(self, f_range, grid_step):
        grid = calibration_workspace(f_range, grid_step).grid
        mid = grid.size // 2
        assert grid[mid] == 0.0
        # the ends are exact too: the coverage check reads f_range off grid[-1]
        assert grid[0] == -f_range and grid[-1] == f_range
        for eta in (0.3, 0.7):
            assert mid in range(grid.size)[_wrong_side(grid, eta)], eta


class TestMirroredGrid:
    """The workspace grid is its own negation read backwards, near the symmetric linspace."""

    GRIDS = WRONG_SIDE_GRIDS + [(50.0, 2e-5), (30.0, 3e-4), (0.1, 3e-4), (3.0, 0.1)]

    @pytest.mark.parametrize("f_range, grid_step", GRIDS)
    def test_mirror_symmetric_with_exact_zero_and_ends(self, f_range, grid_step):
        grid = calibration_workspace(f_range, grid_step).grid
        mid = grid.size // 2
        mirror = -grid[::-1]
        assert np.array_equal(grid, mirror)
        # bit for bit off the middle, which is +0.0 where the mirror has -0.0
        assert grid[:mid].tobytes() == mirror[:mid].tobytes()
        assert grid[mid + 1 :].tobytes() == mirror[mid + 1 :].tobytes()
        assert grid[mid] == 0.0 and math.copysign(1.0, grid[mid]) == 1.0
        assert grid[0] == -f_range and grid[-1] == f_range

    @pytest.mark.parametrize("f_range, grid_step", GRIDS)
    def test_within_two_ulps_of_the_symmetric_linspace(self, f_range, grid_step):
        # measured at exactly 2 ulps of f_range, the most on these ten grids
        grid = calibration_workspace(f_range, grid_step).grid
        linspace = np.linspace(-f_range, f_range, grid.size)
        assert np.max(np.abs(grid - linspace)) <= 2.0 * np.spacing(f_range)


def two_evaluation_check(alpha, eta, work):
    """The check with L on the grid and on -grid, in two buffers: the reference.

    It mirrors :func:`check_calibration_at` as it was before that read L(-grid)
    off L(grid) backwards, and returns its report and its risks.
    """
    grid = work.grid
    f_range = float(grid[-1])
    f_star = optimal_classifier(alpha, eta)
    if math.isfinite(f_star) and f_range <= abs(f_star):
        raise ValueError(f"f_range={f_range} does not cover the optimal classifier {f_star:.6g}")
    tail = margin_loss_tail(alpha, grid)
    risks = margin_losses(alpha, grid, tail=tail)
    risks *= eta
    other = margin_losses(alpha, np.negative(grid), tail=tail)
    other *= 1.0 - eta
    risks += other

    def refine(side):
        k = side.start + int(np.argmin(risks[side]))
        cell_lo = grid[max(k - 1, side.start)]
        cell_hi = grid[min(k + 1, side.stop - 1)]
        x, refined = _golden_section(lambda f: conditional_risk(alpha, eta, f), cell_lo, cell_hi)
        return x, min(refined, float(risks[k]))

    argmin, unconstrained = refine(slice(0, grid.size))
    edge = 0 if risks[0] <= risks[-1] else -1
    at_boundary = float(risks[edge]) <= unconstrained + 1e-12 * max(1.0, abs(unconstrained))
    if at_boundary:
        argmin = float(grid[edge])
    _, constrained = refine(_wrong_side(grid, eta))
    report = CalibrationReport(
        alpha=alpha,
        eta=eta,
        unconstrained_min=min(unconstrained, constrained),
        constrained_min=constrained,
        unconstrained_argmin=argmin,
        argmin_at_boundary=at_boundary,
    )
    return report, risks


class TestOneEvaluationPerPoint:
    """L read backwards for L(-f) gives the two-evaluation reference's bits."""

    ALPHAS = [A1, Alpha(1.2), Alpha(1.5), A2, Alpha(5), Alpha(10), AINF]
    ETAS = [0.01, 0.1, 0.3, 0.49, 0.51, 0.7, 0.9, 0.99]

    @pytest.mark.parametrize("f_range, grid_step", WRONG_SIDE_GRIDS)
    def test_reports_and_risks_equal_the_reference(self, f_range, grid_step):
        work = calibration_workspace(f_range, grid_step)
        for alpha in self.ALPHAS:
            for eta in self.ETAS:
                try:
                    expected, risks = two_evaluation_check(alpha, eta, work)
                except ValueError as err:
                    # the range does not cover the optimal classifier: both refuse
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        check_calibration_at(alpha, eta, work=work)
                    continue
                assert check_calibration_at(alpha, eta, work=work) == expected, (alpha, eta)
                assert work.risks.tobytes() == risks.tobytes(), (alpha, eta)


class TestCheckMemory:
    GRID_POINTS = 5_000_001  # f_range 50 at step 2e-5

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_peak_is_at_most_four_grids(self, alpha):
        # the grid, the risks and the two buffers of one margin_losses call
        _, peak = traced_peak(
            lambda: check_calibration_at(alpha, 0.7, work=calibration_workspace(50.0, 2e-5)))
        assert calibration_workspace(50.0, 2e-5).grid.size == self.GRID_POINTS
        assert peak <= 4.25 * self.GRID_POINTS * 8

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_check_with_a_workspace_allocates_no_grid(self, alpha):
        work = calibration_workspace(50.0, 2e-5)
        assert work.grid.size == self.GRID_POINTS
        _, peak = traced_peak(lambda: check_calibration_at(alpha, 0.7, work=work))
        assert peak <= 0.05 * self.GRID_POINTS * 8


class TestSharedWorkspace:
    """Checks sharing one workspace give exactly the reports of fresh checks."""

    def test_reports_and_grid_match_fresh_checks(self):
        # in any order: both tails are built with the workspace and only read by its checks
        work = calibration_workspace(50.0, 1e-3)
        fresh_grid = calibration_workspace(50.0, 1e-3).grid.tobytes()
        half = work.grid[work.grid.size // 2:]
        tails = np.stack([margin_loss_tail(alpha, half) for alpha in (A1, AINF)])
        assert not work.tails.flags.writeable
        assert work.tails.tobytes() == tails.tobytes()
        pairs = [
            (alpha, eta)
            for alpha in (A1, AINF, A2, AINF, Alpha(1.5), A1)
            for eta in (0.01, 0.3, 0.7, 0.99)
        ]
        for index in np.random.default_rng(26).permutation(len(pairs)):
            alpha, eta = pairs[index]
            shared = check_calibration_at(alpha, eta, work=work)
            fresh_work = calibration_workspace(50.0, 1e-3)
            fresh = check_calibration_at(alpha, eta, work=fresh_work)
            for field in dataclasses.fields(CalibrationReport):
                name = field.name
                assert getattr(shared, name) == getattr(fresh, name), (alpha, eta, name)
            assert work.risks.tobytes() == fresh_work.risks.tobytes(), (alpha, eta)
            assert work.tails.tobytes() == tails.tobytes(), (alpha, eta)
            assert not work.grid.flags.writeable
            assert work.grid.tobytes() == fresh_grid, (alpha, eta)

    def test_checks_only_read_the_grid(self):
        # one workspace shared by every alpha, its grid read-only throughout
        work = calibration_workspace()
        assert not work.grid.flags.writeable
        for alpha in (A1, Alpha(1.5), A2, AINF):
            for eta in (0.3, 0.7):
                shared = check_calibration_at(alpha, eta, work=work)
                assert shared == check_calibration_at(alpha, eta), (alpha, eta)


class TestCalibrationSweep:
    def test_gap_symmetry_for_log_loss(self):
        lo, hi = calibration_sweep(A1, [0.25, 0.75])
        assert abs(lo.gap - hi.gap) < 1e-9

    def test_infinite_alpha_gap_value(self):
        (rep,) = calibration_sweep(AINF, [0.4])
        # risk at f = 0 is 1/2 and the unconstrained infimum is min(eta, 1-eta)
        assert rep.gap == pytest.approx(0.5 - 0.4, abs=1e-6)

    def test_runs_on_the_given_workspace(self):
        with pytest.raises(ValueError, match="eta=0.9: f_range=5.0 does not cover"):
            calibration_sweep(Alpha(4), [0.3, 0.9], work=calibration_workspace(5.0))

    def test_error_names_offending_eta(self):
        with pytest.raises(ValueError, match="eta=0.5"):
            calibration_sweep(A2, [0.3, 0.5, 0.7])
