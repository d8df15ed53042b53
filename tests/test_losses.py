import dataclasses
import decimal
import math
import pickle
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaloss import (
    Alpha,
    alpha_loss,
    check_belief,
    check_label,
    check_margin,
    check_posterior,
    conditional_risk,
    log_sigmoid,
    logit,
    margin_alpha_loss,
    margin_alpha_loss_d1,
    margin_alpha_loss_d2,
    margin_alpha_loss_d3,
    margin_losses,
    min_conditional_risk,
    optimal_classifier,
    second_deriv_sign_change,
    sigmoid,
    tilted_posterior,
)
from conftest import A1, A2, AINF, naive_margin_loss

ALPHA_SAMPLE = [A1, Alpha(1.01), Alpha(1.1), Alpha(1.5), A2, Alpha(5), Alpha(10), Alpha(1e6), AINF]


class TestAlphaParam:
    def test_endpoints(self):
        assert A1.is_log and A1.value == 1.0
        assert AINF.is_infinite
        assert not A2.is_log and not A2.is_infinite

    def test_rejects_below_one_and_nan(self):
        for bad in (0.5, 0.0, -2.0, 1.0 - 1e-6, math.nan):
            with pytest.raises(ValueError):
                Alpha(bad)

    def test_near_one_snaps_to_log_loss(self):
        assert Alpha(1.0 + 1e-12).is_log
        assert Alpha(1.0 - 1e-10).is_log
        assert not Alpha(1.0 + 1e-6).is_log

    # CLI tokens: the value each is read as, or the error it raises
    TOKENS = [
        ("inf", math.inf),
        (" INF ", math.inf),
        ("Infinity", math.inf),
        ("+inf", math.inf),
        ("2", 2.0),
        (" 2.0 ", 2.0),
        ("1.0000000001", 1.0),
        ("1e6", 1e6),
        ("1_000", 1000.0),
        ("nan", "alpha must not be NaN"),
        ("-inf", "alpha must lie in [1, inf], got -inf"),
        ("0.5", "alpha must lie in [1, inf], got 0.5"),
        ("0.3", "alpha must lie in [1, inf], got 0.3"),
        ("abc", "could not convert string to float: 'abc'"),
        ("ABC", "could not convert string to float: 'ABC'"),
        ("", "could not convert string to float: ''"),
    ]

    def test_parse(self):
        for token, expected in self.TOKENS:
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    Alpha(token)
            else:
                assert Alpha(token).value == expected, token

    # the derived fields as bits: value, is_log, is_infinite, exponent, scale
    DERIVED = [
        (1.0, True, False, "0x0.0p+0", "inf"),
        (1.0 + 1e-10, True, False, "0x0.0p+0", "inf"),
        (1.2, False, False, "0x1.5555555555554p-3", "0x1.8000000000001p+2"),
        (1.5, False, False, "0x1.5555555555555p-2", "0x1.8000000000000p+1"),
        (2.0, False, False, "0x1.0000000000000p-1", "0x1.0000000000000p+1"),
        (5.0, False, False, "0x1.999999999999ap-1", "0x1.4000000000000p+0"),
        (1e6, False, False, "0x1.ffffde7210be9p-1", "0x1.000010c6f8ba3p+0"),
        (math.inf, False, True, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ]

    @pytest.mark.parametrize("value, is_log, is_infinite, exponent, scale", DERIVED)
    def test_derived_fields(self, value, is_log, is_infinite, exponent, scale):
        a = Alpha(value)
        assert (a.is_log, a.is_infinite) == (is_log, is_infinite)
        assert (a.exponent.hex(), a.scale.hex()) == (exponent, scale)

    def test_derived_fields_stay_out_of_identity(self):
        assert Alpha(2) == Alpha("2.0")
        assert hash(Alpha(2)) == hash(Alpha("2.0"))
        assert repr(Alpha(2)) == "Alpha(value=2.0)"
        assert Alpha(1.0 + 1e-12) == A1 and Alpha(1.5) != A2

    def test_str_names_each_alpha_exactly(self):
        # six significant digits printed 1 for both of the first two
        texts = [str(Alpha(v)) for v in (1.0000001, 1.0000002, 1234567.0, 2, 1e300, "inf")]
        assert texts == ["1.0000001", "1.0000002", "1234567", "2", "1e+300", "inf"]

    @pytest.mark.parametrize("value", [1.0, 1.5, math.inf])
    def test_replace_and_pickle_keep_derived_fields(self, value):
        a = Alpha(value)
        derived = lambda b: (b.value, b.is_log, b.is_infinite, b.exponent, b.scale)
        assert derived(pickle.loads(pickle.dumps(a))) == derived(a)
        assert derived(dataclasses.replace(A2, value=value)) == derived(a)
        assert derived(dataclasses.replace(a)) == derived(a)

    @pytest.mark.parametrize("value", [
        1.0, 1.0 + 1e-7, 1.001, 1.1, 1.2, 1.5,
        math.nextafter(2.0, 1.0), 2.0, math.nextafter(2.0, 3.0), 3.0, 1e6, 2.0**52, 2.0**53,
    ])
    def test_exponent_is_correctly_rounded(self, value):
        a = Alpha(value)
        v = Fraction(a.value)
        assert a.exponent == float((v - 1) / v), value

    @given(st.floats(min_value=1.0, max_value=2.0**53))
    def test_exponent_is_correctly_rounded_over_a_range(self, value):
        self.test_exponent_is_correctly_rounded(value)

    @given(st.floats(min_value=1.0 + 1e-6, max_value=1e12))
    def test_scale_exponent_consistency(self, value):
        a = Alpha(value)
        assert a.scale > 1.0
        assert 0.0 < a.exponent < 1.0
        # scale = 1/exponent up to the cancellation noise of alpha - 1
        assert math.isclose(a.scale * a.exponent, 1.0, rel_tol=1e-9)


class TestDomainChecks:
    def test_belief_bounds(self):
        assert check_belief(0.0) == 0.0
        assert check_belief(1.0) == 1.0
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                check_belief(bad)

    def test_posterior_strictly_interior(self):
        assert check_posterior(0.5) == 0.5
        for bad in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(ValueError):
                check_posterior(bad)

    def test_label(self):
        assert check_label(1) == 1
        assert check_label(-1) == -1
        for bad in (0, 2, -2, 0.5):
            with pytest.raises(ValueError):
                check_label(bad)

    def test_margin_allows_infinities(self):
        assert check_margin(math.inf) == math.inf
        assert check_margin(-math.inf) == -math.inf
        with pytest.raises(ValueError):
            check_margin(math.nan)


class TestAlphaLoss:
    def test_examples(self):
        assert alpha_loss(AINF, 1, 0.9) == pytest.approx(0.1, abs=1e-12)
        assert alpha_loss(A2, 1, 0.25) == pytest.approx(1.0, abs=1e-12)
        assert alpha_loss(A1, -1, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_log_loss_zero_belief_is_infinite(self):
        assert alpha_loss(A1, 1, 0.0) == math.inf

    def test_finite_alpha_zero_belief_hits_supremum(self):
        assert alpha_loss(A2, 1, 0.0) == A2.scale == 2.0

    def test_continuity_near_log_loss(self):
        eps = 1e-4
        near = Alpha(1.0 + eps)
        for p in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6):
            for y in (-1, 1):
                diff = abs(alpha_loss(near, y, p) - alpha_loss(A1, y, p))
                assert diff <= 10 * eps * math.log(p) ** 2

    def test_continuity_near_infinity(self):
        huge = Alpha(1e6)
        for p in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6):
            assert abs(alpha_loss(huge, 1, p) - alpha_loss(AINF, 1, p)) < 1e-5


class TestSigmoidBridge:
    def test_sigmoid_examples(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(math.inf) == 1.0
        assert sigmoid(-math.inf) == 0.0
        assert sigmoid(-1.0) == pytest.approx(1.0 / (1.0 + math.e), abs=1e-15)

    def test_logit_examples(self):
        assert logit(0.5) == 0.0
        assert logit(1.0) == math.inf
        assert logit(0.0) == -math.inf
        assert logit(math.e / (1.0 + math.e)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-40, max_value=40))
    def test_complement_identity(self, z):
        assert abs(sigmoid(z) + sigmoid(-z) - 1.0) <= 1e-15

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_round_trip(self, p):
        assert sigmoid(logit(p)) == pytest.approx(p, abs=1e-12)

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        for z in (-30.0, -2.0, 0.0, 1.5, 25.0):
            assert log_sigmoid(z) == pytest.approx(math.log(sigmoid(z)), rel=1e-13)
        assert log_sigmoid(-750.0) == -750.0  # naive form overflows here
        assert log_sigmoid(800.0) == 0.0


class TestMarginLoss:
    def test_examples(self):
        assert margin_alpha_loss(AINF, 0.0) == 0.5
        assert margin_alpha_loss(A1, 0.0) == pytest.approx(math.log(2), abs=1e-15)
        assert margin_alpha_loss(A2, logit(0.25)) == pytest.approx(1.0, abs=1e-12)

    def test_limits(self):
        for alpha, sup in ((A1, math.inf), (A2, 2.0), (AINF, 1.0)):
            assert margin_alpha_loss(alpha, math.inf) == 0.0
            assert margin_alpha_loss(alpha, -math.inf) == sup

    @given(
        st.sampled_from(ALPHA_SAMPLE),
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=-30, max_value=30),
    )
    def test_monotone_nonincreasing(self, alpha, z1, z2):
        lo, hi = sorted((z1, z2))
        assert margin_alpha_loss(alpha, lo) >= margin_alpha_loss(alpha, hi) - 1e-12

    def test_vectorized_matches_scalar(self):
        # numpy's SIMD exp/log1p and libm may differ in the last ulp
        zs = np.array([-750.0, -30.0, -1.0, 0.0, 2.5, 40.0, 800.0])
        for alpha in ALPHA_SAMPLE:
            vec = margin_losses(alpha, zs)
            for z, v in zip(zs, vec):
                assert v == pytest.approx(margin_alpha_loss(alpha, z), rel=1e-14, abs=1e-300)

    def test_against_naive_formula(self):
        zs = np.linspace(-40, 40, 401)
        for alpha in (A1, Alpha(1.3), A2, Alpha(7), AINF):
            naive = naive_margin_loss(alpha.value, zs)
            stable = margin_losses(alpha, zs)
            assert np.max(np.abs(naive - stable)) < 1e-12


class TestDerivatives:
    def test_d1_examples(self):
        assert margin_alpha_loss_d1(AINF, 0.0) == -0.25
        assert margin_alpha_loss_d1(A1, 0.0) == -0.5

    def test_d1_matches_finite_differences(self):
        h = 1e-6
        for alpha in (A1, Alpha(1.2), A2, Alpha(6), AINF):
            for z in (-5.0, -1.0, 0.0, 1.0, 4.0):
                fd = (margin_alpha_loss(alpha, z + h) - margin_alpha_loss(alpha, z - h)) / (2 * h)
                assert margin_alpha_loss_d1(alpha, z) == pytest.approx(fd, abs=1e-6)

    def test_d1_strictly_negative(self):
        for alpha in ALPHA_SAMPLE:
            for z in np.linspace(-30, 30, 61):
                assert margin_alpha_loss_d1(alpha, float(z)) < 0.0

    def test_d2_examples(self):
        assert margin_alpha_loss_d2(A1, 0.0) == 0.25
        assert margin_alpha_loss_d2(AINF, 0.0) == 0.0

    def test_d2_matches_finite_differences(self):
        h = 1e-4
        for alpha in (A1, Alpha(1.2), A2, Alpha(6), AINF):
            for z in (-2.0, -0.5, 0.0, 1.0, 3.0):
                fd = (
                    margin_alpha_loss(alpha, z + h)
                    - 2 * margin_alpha_loss(alpha, z)
                    + margin_alpha_loss(alpha, z - h)
                ) / h**2
                assert margin_alpha_loss_d2(alpha, z) == pytest.approx(fd, abs=1e-5)

    def test_d3_matches_finite_differences_of_d2(self):
        h = 1e-5
        for alpha in (A1, Alpha(1.5), A2, Alpha(10), AINF):
            for z in np.linspace(-30.0, 30.0, 61):
                above = margin_alpha_loss_d2(alpha, float(z) + h)
                below = margin_alpha_loss_d2(alpha, float(z) - h)
                fd = (above - below) / (2 * h)
                assert margin_alpha_loss_d3(alpha, float(z)) == pytest.approx(fd, abs=1e-10)

    def test_derivatives_keep_the_tail(self):
        # past m = 36.7 sigmoid(m) rounds to 1, so a form built on 1 - sigmoid(m)
        # gives 0; the margin forms keep the leading term -+e^-m
        m = 40.0
        tail = math.exp(-m)
        for alpha in ALPHA_SAMPLE:
            for d, lead in ((margin_alpha_loss_d1, -tail), (margin_alpha_loss_d2, tail),
                            (margin_alpha_loss_d3, -tail)):
                assert d(alpha, m) == pytest.approx(lead, rel=1e-12, abs=0.0), (alpha, d)

    def test_sign_change_point_rejected_for_log_loss(self):
        with pytest.raises(ValueError):
            second_deriv_sign_change(A1)


class TestConditionalRisk:
    def test_examples(self):
        assert conditional_risk(AINF, 0.3, -math.inf) == pytest.approx(0.3, abs=1e-15)
        assert conditional_risk(A1, 0.5, 0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_risk_at_optimum_equals_min_risk(self):
        for alpha in (Alpha(1.5), A2, Alpha(4)):
            for eta in (0.2, 0.5, 0.7):
                at_opt = conditional_risk(alpha, eta, optimal_classifier(alpha, eta))
                assert at_opt == pytest.approx(min_conditional_risk(alpha, eta), abs=1e-12)


class TestOptimalClassifier:
    def test_examples(self):
        assert optimal_classifier(A2, 0.5) == 0.0
        assert optimal_classifier(Alpha(3), math.e / (1.0 + math.e)) == pytest.approx(3.0, abs=1e-12)
        assert optimal_classifier(A2, 0.8) == pytest.approx(2.0 * math.log(4.0), abs=1e-12)

    def test_infinite_alpha_degenerates(self):
        assert optimal_classifier(AINF, 0.7) == math.inf
        assert optimal_classifier(AINF, 0.2) == -math.inf
        assert optimal_classifier(AINF, 0.5) == 0.0

    def test_sign_matches_posterior_side(self):
        for alpha in (A1, Alpha(1.5), A2, AINF):
            for eta in (0.1, 0.45, 0.55, 0.95):
                f = optimal_classifier(alpha, eta)
                assert math.copysign(1.0, f) == math.copysign(1.0, 2 * eta - 1)

    def test_optimality_against_grid(self):
        grid = np.linspace(-50, 50, 2001)
        for alpha in (A1, Alpha(1.5), A2, AINF):
            for eta in (0.2, 0.65):
                best = min(conditional_risk(alpha, eta, float(f)) for f in grid)
                at_opt = conditional_risk(alpha, eta, optimal_classifier(alpha, eta))
                assert at_opt <= best + 1e-9


class TestMinConditionalRisk:
    def test_examples(self):
        assert min_conditional_risk(AINF, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert min_conditional_risk(A1, 0.5) == pytest.approx(math.log(2), abs=1e-15)
        assert min_conditional_risk(A2, 0.5) == pytest.approx(2.0 * (1.0 - math.sqrt(0.5)), abs=1e-12)

    def test_symmetry(self):
        for alpha in (A1, Alpha(1.2), A2, Alpha(30), AINF):
            for eta in (0.01, 0.2, 0.49):
                assert abs(
                    min_conditional_risk(alpha, eta) - min_conditional_risk(alpha, 1 - eta)
                ) < 1e-12

    def test_stable_for_huge_alpha(self):
        assert min_conditional_risk(Alpha(1e6), 0.7) == pytest.approx(0.3, abs=1e-4)

    def test_matches_decimal_reference_in_the_tails(self):
        # (a/(a-1)) * (1 - (eta^a + (1-eta)^a)^(1/a)) at 60 digits, from the exact
        # binary values of alpha and eta.  1 - power mean cancels as min(eta, 1-eta)
        # -> 0 (it gave 0.0 at eta = 1e-20); the -expm1 form is measured at 1.1e-15
        # relative, and the bound is 4e-15, about 18 machine epsilons.
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for alpha_value in (1.2, 1.5, 2.0, 5.0, 10.0):
                a = decimal.Decimal(alpha_value)
                for eta in [1e-20, 1e-10, 1e-5] + [k / 100 for k in range(1, 100)]:
                    e = decimal.Decimal(eta)
                    exact = a / (a - 1) * (1 - (e**a + (1 - e) ** a) ** (1 / a))
                    value = decimal.Decimal(min_conditional_risk(Alpha(alpha_value), eta))
                    assert abs(value - exact) <= decimal.Decimal("4e-15") * exact, (alpha_value, eta)


class TestTiltedPosterior:
    def test_examples(self):
        assert tilted_posterior(A1, 0.7) == 0.7
        assert tilted_posterior(A2, 0.5) == 0.5
        assert tilted_posterior(A2, 0.75) == pytest.approx(0.9, abs=1e-12)

    def test_matches_direct_power_formula(self):
        for a in (1.5, 2.0, 7.0):
            for p in (0.2, 0.4, 0.6, 0.97):
                direct = p**a / (p**a + (1 - p) ** a)
                assert tilted_posterior(Alpha(a), p) == pytest.approx(direct, abs=1e-12)

    def test_infinite_alpha_is_hard_indicator(self):
        assert tilted_posterior(AINF, 0.51) == 1.0
        assert tilted_posterior(AINF, 0.49) == 0.0
        assert tilted_posterior(AINF, 0.5) == 0.5

    def test_endpoints_are_fixed_points(self):
        for alpha in (A1, A2, AINF):
            assert tilted_posterior(alpha, 0.0) == 0.0
            assert tilted_posterior(alpha, 1.0) == 1.0

    @given(
        st.sampled_from(ALPHA_SAMPLE),
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_argmax_side_is_invariant(self, alpha, p):
        tilted = tilted_posterior(alpha, p)
        if p != 0.5:
            assert (tilted - 0.5 > 0) == (p - 0.5 > 0) or tilted == 0.5 and abs(p - 0.5) < 1e-12


def test_probability_of_error_identity():
    rng = np.random.default_rng(7)
    beliefs_in_label = rng.uniform(0, 1, size=200)
    losses = np.array([alpha_loss(AINF, 1, p) for p in beliefs_in_label])
    assert np.mean(losses) == np.mean(1.0 - beliefs_in_label)


# The scalar bodies as they were written before the shared sigmoid split and
# loss helpers, kept as references: each public function must reproduce them
# bit for bit, sign of zero included.
def split_form_sigmoid(z):
    z = check_margin(z)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def split_form_log_sigmoid(z):
    z = check_margin(z)
    if z >= 0:
        return -math.log1p(math.exp(-z))
    return z - math.log1p(math.exp(z))


def branchwise_alpha_loss(alpha, y, belief_in_label):
    check_label(y)
    p = check_belief(belief_in_label)
    if alpha.is_log:
        return math.inf if p == 0.0 else -math.log(p)
    if alpha.is_infinite:
        return 1.0 - p
    if p == 0.0:
        return alpha.scale
    return -alpha.scale * math.expm1(alpha.exponent * math.log(p))


def branchwise_margin_loss(alpha, z):
    ls = split_form_log_sigmoid(z)
    if alpha.is_log:
        return -ls
    if alpha.is_infinite:
        return split_form_sigmoid(-z)
    return -alpha.scale * math.expm1(alpha.exponent * ls)


def branchwise_d1(alpha, z):
    z = check_margin(z)
    smz = split_form_sigmoid(-z)
    if alpha.is_log:
        return -smz
    return -math.exp(alpha.exponent * split_form_log_sigmoid(z)) * smz


def branchwise_d2(alpha, z):
    z = check_margin(z)
    sz = split_form_sigmoid(z)
    smz = split_form_sigmoid(-z)
    c = alpha.exponent
    power = 1.0 if alpha.is_log else math.exp(c * split_form_log_sigmoid(z))
    return power * smz * (sz - c * smz)


def branchwise_d3(alpha, z):
    z = check_margin(z)
    sz = split_form_sigmoid(z)
    smz = split_form_sigmoid(-z)
    c = alpha.exponent
    power = 1.0 if alpha.is_log else math.exp(c * split_form_log_sigmoid(z))
    return -power * smz * (sz * sz - (3.0 * c + 1.0) * sz * smz + c * c * smz * smz)


def branchwise_conditional_risk(alpha, eta, f):
    eta = check_posterior(eta)
    return eta * branchwise_margin_loss(alpha, f) + (1.0 - eta) * branchwise_margin_loss(alpha, -f)


def branchwise_tilted_posterior(alpha, p):
    p = check_belief(p)
    if alpha.is_log:
        return p
    if alpha.is_infinite:
        if p == 0.5:
            return 0.5
        return 1.0 if p > 0.5 else 0.0
    return split_form_sigmoid(alpha.value * logit(p))


def branchwise_second_deriv_sign_change(alpha):
    if alpha.is_log:
        raise ValueError("the log-loss margin form is convex: no sign change")
    if alpha.is_infinite:
        return 0.0
    return math.log((alpha.value - 1.0) / alpha.value)


def same_float(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


ALPHA_CYCLE = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF, Alpha(1e6)]
ORACLE_ETAS = (0.01, 0.3, 0.49, 0.51, 0.7, 0.99)


def oracle_scalar_margins():
    edges = [0.0, 5e-324, 1e-300, 36.7, 708.5, 745.0, 1e308, math.inf]
    rng = np.random.default_rng(12)
    normals = [float(z) for scale in (1.0, 30.0, 300.0) for z in rng.normal(scale=scale, size=1000)]
    return [s * z for z in edges for s in (1.0, -1.0)] + normals


class TestScalarFormsMatchBranchwiseReferences:
    def test_sigmoid_and_log_sigmoid(self):
        for z in oracle_scalar_margins():
            assert same_float(sigmoid(z), split_form_sigmoid(z)), z
            assert same_float(log_sigmoid(z), split_form_log_sigmoid(z)), z

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_margin_loss_and_derivatives(self, alpha):
        for z in oracle_scalar_margins():
            assert same_float(margin_alpha_loss(alpha, z), branchwise_margin_loss(alpha, z)), z
            assert same_float(margin_alpha_loss_d1(alpha, z), branchwise_d1(alpha, z)), z
            assert same_float(margin_alpha_loss_d2(alpha, z), branchwise_d2(alpha, z)), z
            assert same_float(margin_alpha_loss_d3(alpha, z), branchwise_d3(alpha, z)), z

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_conditional_risk(self, alpha):
        for eta in ORACLE_ETAS:
            for f in oracle_scalar_margins():
                got = conditional_risk(alpha, eta, f)
                assert same_float(got, branchwise_conditional_risk(alpha, eta, f)), (eta, f)

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_alpha_loss(self, alpha):
        rng = np.random.default_rng(13)
        for p in [0.0, 1e-300, 0.5, 1.0] + [float(u) for u in rng.uniform(size=200)]:
            for y in (1, -1):
                assert same_float(alpha_loss(alpha, y, p), branchwise_alpha_loss(alpha, y, p)), p

    def test_tilted_posterior_and_sign_change(self):
        rng = np.random.default_rng(14)
        ps = [0.0, 5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
              1.0 - 2.0**-53, 1.0] + [float(u) for u in rng.uniform(size=200)]
        for alpha in ALPHA_CYCLE + [Alpha(1.0 + 1e-7)]:
            if not alpha.is_log:
                expected = branchwise_second_deriv_sign_change(alpha)
                assert same_float(second_deriv_sign_change(alpha), expected), alpha.value
            for p in ps:
                expected = branchwise_tilted_posterior(alpha, p)
                assert same_float(tilted_posterior(alpha, p), expected), (alpha.value, p)

    def test_validation_errors_unchanged(self):
        cases = [
            (sigmoid, split_form_sigmoid, (math.nan,)),
            (log_sigmoid, split_form_log_sigmoid, (math.nan,)),
            (margin_alpha_loss, branchwise_margin_loss, (A2, math.nan)),
            (margin_alpha_loss_d1, branchwise_d1, (A2, math.nan)),
            (margin_alpha_loss_d2, branchwise_d2, (A2, math.nan)),
            (margin_alpha_loss_d3, branchwise_d3, (A2, math.nan)),
            (conditional_risk, branchwise_conditional_risk, (A2, 0.0, math.nan)),
            (conditional_risk, branchwise_conditional_risk, (A2, 0.3, math.nan)),
            (alpha_loss, branchwise_alpha_loss, (A2, 0, 0.5)),
            (alpha_loss, branchwise_alpha_loss, (A2, 1, 1.5)),
            (tilted_posterior, branchwise_tilted_posterior, (A2, 1.5)),
            (tilted_posterior, branchwise_tilted_posterior, (AINF, math.nan)),
            (tilted_posterior, branchwise_tilted_posterior, (A1, -0.25)),
            (second_deriv_sign_change, branchwise_second_deriv_sign_change, (A1,)),
        ]
        for fn, reference, args in cases:
            with pytest.raises(ValueError) as expected:
                reference(*args)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                fn(*args)
