import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from alphaloss import (
    CALIBRATION_TOL,
    Alpha,
    CalibrationReport,
    calibration_sweep,
    check_calibration_at,
    conditional_risk,
    inner_derivative,
    logit,
    margin_alpha_loss,
    min_conditional_risk,
    optimal_classifier,
)
from alphaloss import margin_losses
from alphaloss.losses import margin_loss_tail
from alphaloss.calibration import (
    MAX_GRID_POINTS,
    _wrong_side,
    calibration_workspace,
)

A1 = Alpha.log_loss()
A2 = Alpha(2)
AINF = Alpha.infinite()

ETA_GRID = [e / 10 for e in range(1, 10) if e != 5]


def bisect_root(fn, lo, hi, iters=200):
    """Sign-change bisection oracle; requires fn(lo) > 0 > fn(hi)."""
    flo, fhi = fn(lo), fn(hi)
    assert flo > 0 > fhi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        with pytest.raises(ValueError):
            check_calibration_at(A2, 0.5)

    def test_rejects_range_not_covering_optimum(self):
        # optimal classifier at (4, 0.9) is about 8.8
        with pytest.raises(ValueError):
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
                unconstrained_argmin=0.0, gap=-0.5, calibrated_at_eta=False,
                argmin_at_boundary=False,
            )
        with pytest.raises(ValueError):
            CalibrationReport(
                alpha=A2, eta=0.7, unconstrained_min=0.5, constrained_min=1.0,
                unconstrained_argmin=0.0, gap=0.5, calibrated_at_eta=False,
                argmin_at_boundary=False,
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
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValueError, match="grid above"):
            check_calibration_at(Alpha(2), 0.3, work=calibration_workspace(f_range, grid_step))

    @pytest.mark.parametrize("f_range", [1e308, math.nextafter(sys.float_info.max / 2, math.inf)])
    def test_overflowing_range_rejected_before_allocation(self, monkeypatch, f_range):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValueError, match="f_range"):
            calibration_workspace(f_range, 1e305)

    @pytest.mark.parametrize("f_range, grid_step", [(math.nan, 1e-3), (50.0, math.nan)])
    def test_nan_input_named_not_blamed_on_the_cap(self, monkeypatch, f_range, grid_step):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValueError, match="must be positive, got") as err:
            calibration_workspace(f_range, grid_step)
        assert "grid above" not in str(err.value)

    def test_widest_range_gives_a_finite_grid(self):
        grid = calibration_workspace(sys.float_info.max / 2, 1e305).grid
        assert np.isfinite(grid).all()
        assert grid[0] == -grid[-1] == -sys.float_info.max / 2


# Posteriors 0.01..0.99 without 1/2, and 1/2 plus or minus one ulp.
SLICE_ETAS = [k / 100 for k in range(1, 100) if k != 50] + [
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
]


class TestWrongSideSlice:
    """The constrained half as a slice of the sorted grid, against the sign mask."""

    @pytest.mark.parametrize(
        "f_range, grid_step",
        [
            (50.0, 1e-3),  # the default grid, with f = 0 on it
            (50.0, 1 / 3),
            (7.0, 1e-3 / 7),  # the middle point is +8.9e-16, not 0
            (2.9, 1 / 3),  # the middle point is -4.4e-16
            (1e-6, 1e-9 / 3),
            (1e-300, 1e-301 / 3),
        ],
    )
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


class TestCheckMemory:
    GRID_POINTS = 5_000_001  # f_range 50 at step 2e-5

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_peak_is_at_most_four_grids(self, alpha):
        # the grid, the risks and the two buffers of one margin_losses call
        tracemalloc.start()
        try:
            check_calibration_at(alpha, 0.7, work=calibration_workspace(50.0, 2e-5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calibration_workspace(50.0, 2e-5).grid.size == self.GRID_POINTS
        assert peak <= 4.25 * self.GRID_POINTS * 8

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_check_with_a_workspace_allocates_no_grid(self, alpha):
        work = calibration_workspace(50.0, 2e-5)
        assert work.grid.size == self.GRID_POINTS
        tracemalloc.start()
        try:
            check_calibration_at(alpha, 0.7, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * self.GRID_POINTS * 8


class TestSharedWorkspace:
    """Checks sharing one workspace give exactly the reports of fresh checks."""

    def test_reports_and_grid_match_fresh_checks(self):
        # the loss tail is rebuilt at every switch between finite and infinite alpha
        work = calibration_workspace(50.0, 1e-3)
        fresh_grid = calibration_workspace(50.0, 1e-3).grid.tobytes()
        for alpha in (A1, AINF, A2, AINF, Alpha(1.5), A1):
            for eta in (0.01, 0.3, 0.7, 0.99):
                shared = check_calibration_at(alpha, eta, work=work)
                fresh = check_calibration_at(alpha, eta, work=calibration_workspace(50.0, 1e-3))
                for field in dataclasses.fields(CalibrationReport):
                    name = field.name
                    assert getattr(shared, name) == getattr(fresh, name), (alpha, eta, name)
                assert work.tail_infinite == alpha.is_infinite
                assert np.array_equal(work.tail, margin_loss_tail(alpha, work.grid)), (alpha, eta)
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


class TestInnerDerivative:
    def test_symmetric_zero(self):
        assert inner_derivative(A2, 0.5, 0.0) == 0.0

    def test_zero_at_closed_form_root(self):
        assert abs(inner_derivative(A2, 0.8, 2.0 * math.log(4.0))) < 1e-10

    def test_matches_scaled_risk_slope(self):
        # the objective is 1 - (1 - 1/alpha) * conditional risk, so its
        # derivative is -(1 - 1/alpha) times the risk derivative
        h = 1e-6
        for alpha in (Alpha(1.5), A2, Alpha(5)):
            for eta, f in ((0.8, 0.0), (0.3, 1.0), (0.65, -2.0)):
                risk_slope = (
                    conditional_risk(alpha, eta, f + h) - conditional_risk(alpha, eta, f - h)
                ) / (2 * h)
                expected = -alpha.exponent * risk_slope
                assert inner_derivative(alpha, eta, f) == pytest.approx(expected, abs=1e-6)
        assert inner_derivative(A2, 0.8, 0.0) > 0.0

    def test_root_agreement_with_bisection(self):
        for a in (1.1, 1.5, 2.0, 5.0):
            alpha = Alpha(a)
            for eta in ETA_GRID:
                fn = lambda f: inner_derivative(alpha, eta, f)
                if eta > 0.5:
                    root = bisect_root(fn, -100.0, 100.0)
                else:
                    root = -bisect_root(lambda f: -fn(-f), -100.0, 100.0)
                assert abs(root - a * logit(eta)) < 1e-8

    def test_sign_structure_around_root(self):
        for alpha in (Alpha(1.5), A2):
            for eta in (0.6, 0.9):
                f0 = alpha.value * logit(eta)
                assert inner_derivative(alpha, eta, f0 - 1.0) > 0.0
                assert inner_derivative(alpha, eta, f0 + 1.0) < 0.0

    @pytest.mark.parametrize("alpha", [Alpha(1.5), A2, Alpha(10)], ids=str)
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_finite_where_exp_of_f_overflows(self, alpha, eta):
        # exp(f) overflows a double from f = 710 on; the derivative does not
        for f in (710.0, 1e3, 1e308):
            for signed in (f, -f):
                assert math.isfinite(inner_derivative(alpha, eta, signed)), signed
        f0 = alpha.value * logit(eta)
        assert -710.0 < f0 < 710.0
        assert inner_derivative(alpha, eta, -710.0) > 0.0
        assert inner_derivative(alpha, eta, 710.0) < 0.0

    def test_rejects_endpoints_and_nonfinite(self):
        with pytest.raises(ValueError):
            inner_derivative(A1, 0.7, 0.0)
        with pytest.raises(ValueError):
            inner_derivative(AINF, 0.7, 0.0)
        with pytest.raises(ValueError):
            inner_derivative(A2, 0.7, math.inf)


class TestCalibrationSweep:
    def test_all_calibrated(self):
        reports = calibration_sweep(Alpha(1.5), ETA_GRID)
        assert len(reports) == 8
        assert all(r.calibrated_at_eta for r in reports)
        assert all(r.gap > CALIBRATION_TOL for r in reports)

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
