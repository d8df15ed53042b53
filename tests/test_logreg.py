import math
from dataclasses import fields
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest

from alphaloss import (
    Alpha,
    LabeledDataset,
    LinearModel,
    SeededStart,
    TrainConfig,
    TrainingDiverged,
    alpha_loss,
    empirical_gradient,
    empirical_risk,
    evaluate,
    logit,
    margin_alpha_loss_d1,
    margin_alpha_loss_d2,
    margin_alpha_loss_d3,
    risk_and_accuracy,
    sample_loss,
    sigmoid,
    solve_on_ball,
    train,
)
from alphaloss import landscape, logreg
from alphaloss.landscape import SymmetricDataSpec, generate_symmetric_dataset
from alphaloss.logreg import KKT_TOL, MAX_EPOCHS, MAX_SAMPLE_FLOATS, NEWTON_STEP_TOL, row_norms
from alphaloss.losses import (
    _margin_terms,
    _margin_workspace,
    margin_loss_tail,
    margin_losses,
)
from conftest import A1, A2, AINF, kkt_terms, random_instance, traced_peak

ALPHA_CYCLE = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF]


def final_gradient_norm(alpha, report, data):
    """The norm sqrt(g @ g) of the empirical gradient at the report's final model."""
    grad = empirical_gradient(alpha, report.final_model, data)
    return float(np.sqrt(grad @ grad))


def toy_separable():
    x = np.array([[1.0, 0.3], [0.9, -0.2], [-1.0, 0.1], [-0.8, -0.3]])
    y = np.array([1, 1, -1, -1])
    return LabeledDataset(x, y)


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearModel(np.ones((2, 2)))
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0, math.nan]))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 2)), np.array([1, 0]))
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 2)), np.array([1]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("radius", [1.0, math.inf])
    def test_dataset_rejects_a_nonfinite_entry(self, entry, radius):
        # a finite row can have an infinite norm too: the entries must be read
        with pytest.raises(ValueError, match="features must be finite"):
            LabeledDataset(np.array([[entry, 0.0], [0.1, 0.2]]), np.array([1, -1]))
        # the refusal is the entry's, not the ball's: with a finite entry the
        # same rows train, and solve on a ball of either radius
        data = LabeledDataset(np.array([[0.5, 0.0], [0.1, 0.2]]), np.array([1, -1]))
        warm = train(TrainConfig(A2, learning_rate=0.1, epochs=2, seed=0), data).final_model
        assert np.all(np.isfinite(solve_on_ball(A2, warm, data, radius, 2).model.weights))

    def test_dataset_admits_a_finite_row_whose_norm_overflows(self):
        # the squares of the first row overflow, and the norm of the second
        features = np.array([[1e200, -1e200], [1.5e308, -1.5e308], [0.1, 0.2]])
        data = LabeledDataset(features, np.array([1, -1, 1]))
        assert np.array_equal(data.features, features)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(A2, learning_rate=-0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(A2, learning_rate=math.inf, epochs=1, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(A2, learning_rate=0.1, epochs=0, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(A2, learning_rate=0.1, epochs=1, seed=-1)
        # zero learning rate is a legitimate no-op configuration
        TrainConfig(A2, learning_rate=0.0, epochs=1, seed=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(A2, learning_rate=0.1, epochs=MAX_EPOCHS + 1, seed=0)
        TrainConfig(A2, learning_rate=0.1, epochs=MAX_EPOCHS, seed=0)
        # no ball: solve_on_ball takes the radius
        assert [f.name for f in fields(TrainConfig)] == ["alpha", "learning_rate", "epochs", "seed"]


class TestLabelFormat:
    """Labels are stored once as float64 +-1.0, whatever integer or float form they come in."""

    @staticmethod
    def pair(seed=21, n=120, d=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        x /= row_norms(x).max()
        y = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
        return (
            LabeledDataset(x, y),
            LabeledDataset(x, y.astype(float)),
        )

    def test_int_and_float_labels_store_the_same_array(self):
        from_int, from_float = self.pair()
        for data in (from_int, from_float):
            assert data.labels.dtype == np.float64
            assert set(np.unique(data.labels)) == {-1.0, 1.0}
        assert np.array_equal(from_int.labels, from_float.labels)

    @pytest.mark.parametrize("alpha", [A1, Alpha(1.5), AINF], ids=str)
    def test_results_are_bit_identical(self, alpha):
        from_int, from_float = self.pair()
        model = LinearModel(np.random.default_rng(22).normal(size=from_int.dim))
        config = TrainConfig(alpha, learning_rate=1.0, epochs=30, seed=3)
        a, b = train(config, from_int), train(config, from_float)
        assert same_bits(a.final_model.weights, b.final_model.weights)
        assert same_bits(a.empirical_risk_trace, b.empirical_risk_trace)
        assert a.train_accuracy == b.train_accuracy
        assert same_bits(empirical_risk(alpha, model, from_int), empirical_risk(alpha, model, from_float))
        assert same_bits(
            empirical_gradient(alpha, model, from_int), empirical_gradient(alpha, model, from_float)
        )
        assert evaluate(model, from_int) == evaluate(model, from_float)


class TestPredictAndLoss:
    def test_sample_loss_examples(self):
        zero = LinearModel(np.zeros(2))
        x = np.array([0.3, 0.4])
        assert sample_loss(A2, zero, x, 1) == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)
        assert sample_loss(A1, zero, x, -1) == pytest.approx(math.log(2), abs=1e-12)
        w = LinearModel(np.array([math.log(9.0)]))  # logit(0.9)
        assert sample_loss(AINF, w, np.array([1.0]), 1) == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(ValueError, match=r"x has shape \(3,\), expected \(2,\)"):
            sample_loss(A2, zero, np.ones(3), 1)

    def test_sample_loss_equals_alpha_loss_of_belief(self):
        rng = np.random.default_rng(11)
        for alpha in ALPHA_CYCLE:
            data, model = random_instance(rng, 4, 10)
            for x, y in zip(data.features, data.labels):
                g = sigmoid(float(model.weights @ x))
                p_of_y = g if y == 1 else 1.0 - g
                assert sample_loss(alpha, model, x, int(y)) == pytest.approx(
                    alpha_loss(alpha, int(y), p_of_y), abs=1e-12
                )

    def test_sample_loss_matches_two_indicator_form(self):
        rng = np.random.default_rng(12)
        for a in (1.3, 2.0, 6.0):
            alpha = Alpha(a)
            data, model = random_instance(rng, 3, 8)
            for x, y in zip(data.features, data.labels):
                g = sigmoid(float(model.weights @ x))
                c = 1.0 - 1.0 / a
                direct = a / (a - 1.0) * (
                    1.0 - (1 + y) / 2 * g**c - (1 - y) / 2 * (1.0 - g) ** c
                )
                assert sample_loss(alpha, model, x, int(y)) == pytest.approx(direct, abs=1e-12)


class TestCoefficients:
    """The per-sample coefficients y * d1, d2 and y * d3 at the margin m = y * logit(g)."""

    def test_gradient_coefficient_examples(self):
        expected = -math.sqrt(0.5) * 0.5
        assert margin_alpha_loss_d1(A2, logit(0.5)) == pytest.approx(expected, abs=1e-12)
        assert margin_alpha_loss_d1(Alpha(7), logit(1.0)) == 0.0
        assert -margin_alpha_loss_d1(A1, -logit(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_hessian_coefficient_examples(self):
        assert margin_alpha_loss_d2(A1, logit(0.5)) == pytest.approx(0.25, abs=1e-15)
        assert margin_alpha_loss_d2(A1, -logit(0.5)) == pytest.approx(0.25, abs=1e-15)
        assert margin_alpha_loss_d2(Alpha(3), -logit(0.0)) == 0.0

    def test_third_derivative_zero_at_zero_belief(self):
        for alpha in ALPHA_CYCLE:
            assert margin_alpha_loss_d3(alpha, logit(0.0)) == 0.0


class TestEmpiricalRiskAndGradient:
    def test_risk_at_zero_weights_is_loss_at_half(self):
        data = toy_separable()
        zero = LinearModel(np.zeros(2))
        for alpha in ALPHA_CYCLE:
            assert empirical_risk(alpha, zero, data) == pytest.approx(
                alpha_loss(alpha, 1, 0.5), abs=1e-15
            )

    def test_risk_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        data, model = random_instance(rng, 7, 50)
        naive = sum(
            sample_loss(A2, model, x, int(y)) for x, y in zip(data.features, data.labels)
        ) / data.n
        assert empirical_risk(A2, model, data) == pytest.approx(naive, abs=1e-12)

    def test_model_of_another_dimension_is_refused(self):
        model, data = LinearModel(np.zeros(3)), toy_separable()
        for call in (evaluate, partial(empirical_risk, A2), partial(empirical_gradient, A2)):
            with pytest.raises(ValueError, match="model dimension 3 != data dimension 2"):
                call(model, data)

    def test_gradient_cancels_on_sign_symmetric_data(self):
        # each feature vector appears with both signs under the same label, so
        # the per-sample gradients cancel pairwise at zero weights
        rng = np.random.default_rng(6)
        base = rng.normal(size=(10, 4)) * 0.3
        x = np.vstack([base, -base, 2 * base, -2 * base])
        y = np.concatenate([np.ones(20, dtype=int), -np.ones(20, dtype=int)])
        data = LabeledDataset(x, y)
        zero = LinearModel(np.zeros(4))
        for alpha in (A1, A2, AINF):
            grad = empirical_gradient(alpha, zero, data)
            assert np.max(np.abs(grad)) < 1e-12

    def test_log_loss_gradient_identity(self):
        rng = np.random.default_rng(8)
        data, model = random_instance(rng, 5, 40)
        scores = data.features @ model.weights
        g = 1.0 / (1.0 + np.exp(-scores))
        expected = ((g - (data.labels == 1)) @ data.features) / data.n
        grad = empirical_gradient(A1, model, data)
        assert np.max(np.abs(grad - expected)) < 1e-12

    def test_lipschitz_witness(self):
        rng = np.random.default_rng(13)
        radius = 2.0
        data, _ = random_instance(rng, 6, 30, radius=radius)
        for alpha in (A1, A2, AINF):
            for _ in range(20):
                w1 = rng.normal(size=6)
                w1 *= radius * rng.uniform(0, 1) / np.linalg.norm(w1)
                w2 = rng.normal(size=6)
                w2 *= radius * rng.uniform(0, 1) / np.linalg.norm(w2)
                r1 = empirical_risk(alpha, LinearModel(w1), data)
                r2 = empirical_risk(alpha, LinearModel(w2), data)
                assert abs(r1 - r2) <= radius * np.linalg.norm(w1 - w2) + 1e-12


class TestTrain:
    def test_deterministic(self):
        data = toy_separable()
        cfg = TrainConfig(A2, learning_rate=0.7, epochs=50, seed=1234)
        rep1 = train(cfg, data)
        rep2 = train(cfg, data)
        assert np.array_equal(rep1.final_model.weights, rep2.final_model.weights)
        assert np.array_equal(rep1.empirical_risk_trace, rep2.empirical_risk_trace)
        assert final_gradient_norm(A2, rep1, data) == final_gradient_norm(A2, rep2, data)
        assert rep1.train_accuracy == rep2.train_accuracy

    def test_separable_reaches_perfect_accuracy(self):
        rep = train(TrainConfig(A1, learning_rate=0.5, epochs=400, seed=3), toy_separable())
        assert rep.train_accuracy == 1.0
        assert rep.empirical_risk_trace.shape == (400,)

    def test_zero_learning_rate_is_noop(self):
        data = toy_separable()
        cfg = TrainConfig(A2, learning_rate=0.0, epochs=1, seed=77)
        rep = train(cfg, data)
        scale = logreg.INIT_SCALE
        expected_init = np.random.default_rng(77).uniform(-scale, scale, size=2)
        assert np.array_equal(rep.final_model.weights, expected_init)

    def test_trace_monotone_for_convex_log_loss(self):
        data = toy_separable()
        # descent step below 1 / (r^2 / 4), the curvature bound, for rows in
        # the ball of radius r = 1.2
        lr = 4.0 / 1.2**2
        rep = train(TrainConfig(A1, learning_rate=lr, epochs=200, seed=5), data)
        assert np.all(np.diff(rep.empirical_risk_trace) <= 1e-12)

    def test_infinite_iterate_diverges_before_the_product(self):
        import warnings

        # 1e308 times the first gradient is infinite, and the zero row's score
        # would be inf * 0 = NaN if the iterate reached x @ w
        x = np.array([[100.0, 0.0], [0.0, 100.0], [-100.0, 0.0], [0.0, -100.0], [0.0, 0.0]])
        data = LabeledDataset(x, np.array([1, 1, -1, -1, 1]))
        cfg = TrainConfig(A2, 1e308, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as exc:
                train(cfg, data)
        assert exc.value.epoch == 0

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_infinite_iterate_of_zero_risk_diverges(self, alpha):
        import warnings

        # 1e308 times the first gradient makes w_1 infinite, so both margins
        # are +inf and the risk is 0: only the iterate shows the divergence
        data = LabeledDataset(np.array([[100.0, 0.0], [-100.0, 0.0]]), np.array([1, -1]))
        cfg = TrainConfig(alpha, 1e308, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as exc:
                train(cfg, data)
        assert exc.value.epoch == 0

    def test_inf_minus_inf_score_diverges_without_warning(self, monkeypatch):
        import warnings

        # Finite initial weights near 1e307 against rows of +-100 whose signs
        # alternate those of w: the products overflow to +inf and -inf in turn.
        d = 16
        w0 = np.random.default_rng(0).uniform(-1e307, 1e307, size=d)
        signs = np.sign(w0) * np.resize([1.0, -1.0], d)
        x = np.vstack([100.0 * signs, -100.0 * signs])
        data = LabeledDataset(x, np.array([1, -1]))
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isnan(x @ w0).all():
                pytest.skip("this BLAS sums each row in one accumulator: no inf - inf")
        monkeypatch.setattr(logreg, "INIT_SCALE", 1e307)
        cfg = TrainConfig(A2, 1.0, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as exc:
                train(cfg, data)
        assert exc.value.epoch == 0

    def test_finite_iterate_whose_square_overflows_trains_on(self):
        import warnings

        # the first step puts w near 1.8e157 per coordinate, so w @ w overflows,
        # while the scores, about 1.8e7, and the risk stay finite
        t = 1e-150
        x = np.array([[t, 0.0], [0.0, t], [-t, 0.0], [0.0, -t]])
        data = LabeledDataset(x, np.array([1, 1, -1, -1]))
        cfg = TrainConfig(A2, 1e308, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = train(cfg, data)
        weights, trace, _, accuracy = three_matvec_train(cfg, data)
        assert np.abs(weights).min() > 1e155  # so w @ w is above 2e310
        assert np.array_equal(report.final_model.weights, weights)
        assert np.array_equal(report.empirical_risk_trace, trace)
        assert report.train_accuracy == accuracy == 1.0

    def test_divergence_aborts_with_epoch(self):
        # conflicting labels on colinear huge-norm rows force the first update
        # to overflow a score, so one margin hits -inf and the risk is infinite
        x = np.array([[1e150, 0.0], [2e150, 0.0]])
        y = np.array([1, -1])
        data = LabeledDataset(x, y)
        cfg = TrainConfig(A1, learning_rate=1e9, epochs=3, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train(cfg, data)
        assert exc.value.epoch == 0
        assert str(exc.value).startswith("alpha=1, lr=1000000000.0: ")


# The masked split-form array kernels that the mask-free ones replaced, kept
# here as independent references.
def masked_sigmoid(z):
    out = np.empty(z.shape, dtype=float)
    neg = z < 0
    pos = ~neg
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[neg])
    out[neg] = ez / (1.0 + ez)
    return out


def masked_log_sigmoid(z):
    out = np.empty(z.shape, dtype=float)
    neg = z < 0
    pos = ~neg
    out[pos] = -np.log1p(np.exp(-z[pos]))
    out[neg] = z[neg] - np.log1p(np.exp(z[neg]))
    return out


def masked_margin_losses(alpha, margins):
    z = np.asarray(margins, dtype=float)
    if alpha.is_infinite:
        return masked_sigmoid(-z)
    ls = masked_log_sigmoid(z)
    if alpha.is_log:
        return -ls
    return -alpha.scale * np.expm1(alpha.exponent * ls)


def masked_coefficients(alpha, scores, labels):
    """Gradient coefficients from masked sigmoids, the form the fused kernel replaced.

    For finite alpha > 1 the powers sigmoid^c are exp(c * log sigmoid), which
    stay accurate where sigmoid is subnormal.
    """
    g = masked_sigmoid(scores)
    h = masked_sigmoid(-scores)
    c = alpha.exponent
    if alpha.is_log or alpha.is_infinite:
        g_c, h_c = g**c, h**c
    else:
        g_c = np.exp(c * masked_log_sigmoid(scores))
        h_c = np.exp(c * masked_log_sigmoid(-scores))
    return np.where(labels == 1, -g_c * h, g * h_c)


def three_matvec_train(config, data, radius=math.inf):
    """Reference loop: fresh scores for the gradient, the risk and the final report.

    Each step is projected onto the ball of ``radius``, which at the default
    infinite radius is never.  Returns (weights, risk trace, final gradient
    norm, train accuracy).
    """
    rng = np.random.default_rng(config.seed)
    w = rng.uniform(-logreg.INIT_SCALE, logreg.INIT_SCALE, size=data.dim)
    x, y, n = data.features, data.labels, data.n
    trace = np.empty(config.epochs)
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
            coeffs = masked_coefficients(config.alpha, x @ w, y)
            w = w - config.learning_rate * ((x.T @ coeffs) / n)
            norm = math.sqrt(float(w @ w))
            if norm > radius:
                w = w * (radius / norm)
            risk = float(np.mean(masked_margin_losses(config.alpha, y * (x @ w))))
            if not math.isfinite(risk):
                raise TrainingDiverged(epoch)
            trace[epoch] = risk
        grad = (x.T @ masked_coefficients(config.alpha, x @ w, y)) / n
    accuracy = float(np.mean(np.where(x @ w >= 0.0, 1, -1) == y))
    return w, trace, float(np.sqrt(grad @ grad)), accuracy


def noisy_linear_dataset(seed, n=300, d=6, sort_by_class=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x /= row_norms(x).max()
    y = np.where(x @ rng.normal(size=d) + 0.3 * rng.normal(size=n) >= 0.0, 1, -1)
    if sort_by_class:
        order = np.argsort(y, kind="stable")
        x, y = x[order], y[order]
    return LabeledDataset(x, y)


MARGIN_EDGES = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308, math.inf, -math.inf]
)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def oracle_margins():
    """Named margin sets: edges, cancellation and subnormal-tail points, grids."""
    rng = np.random.default_rng(11)
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 1e-310])
    grid = np.linspace(-50.0, 50.0, 100_001)
    return {
        "edges": MARGIN_EDGES,
        "subnormals": np.concatenate([tiny, -tiny]),
        "cancellation": np.array([36.7, -36.7, 708.5, -708.5]),
        "grid": grid,
        "negated_grid": -grid,
        "mixed_normals": rng.normal(scale=30.0, size=2_000),
    }


class TestMaskFreeMarginLosses:
    """margin_losses against an in-test copy of the masked kernel it replaced."""

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE + [Alpha(1e6)], ids=str)
    def test_matches_masked_kernel(self, alpha):
        for name, margins in oracle_margins().items():
            assert same_bits(margin_losses(alpha, margins), masked_margin_losses(alpha, margins)), name
            losses, _ = _margin_terms(alpha, margins)
            assert same_bits(losses, masked_margin_losses(alpha, margins)), name

    def test_sigmoid_matches_masked_sigmoid(self):
        for name, margins in oracle_margins().items():
            assert same_bits(margin_losses(AINF, -margins), masked_sigmoid(margins)), name

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_keeps_shape_and_input(self, alpha):
        for margins in (np.array(-3.0), np.array([[0.5, -0.5], [40.0, -40.0]])):
            before = margins.copy()
            got = margin_losses(alpha, margins)
            assert got.shape == margins.shape
            assert same_bits(got, masked_margin_losses(alpha, margins))
            assert same_bits(margins, before)

    @pytest.mark.parametrize("alpha", [A1, Alpha(1.5), A2, AINF], ids=str)
    def test_work_pair_gives_the_same_bits(self, alpha):
        for margins in (MARGIN_EDGES, np.array(-3.0), np.array(0.0), np.array(-0.0)):
            # stale contents, as a reused buffer holds, must not leak into the result
            stale = np.full(margins.shape, np.nan)
            for _ in range(2):
                got = margin_losses(alpha, margins, out=stale)
                assert got is stale
                assert got.shape == margins.shape
                assert same_bits(got, margin_losses(alpha, margins))
            # out may be the margins themselves: they are read before it is written
            out = margins.copy()
            got = margin_losses(alpha, out, out=out)
            assert got is out
            assert same_bits(got, margin_losses(alpha, margins))

    @pytest.mark.parametrize("alpha", [A1, Alpha(1.2), A2, Alpha(5), AINF], ids=str)
    def test_precomputed_tail_gives_the_same_bits(self, alpha):
        cases = [
            (margins, margin_loss_tail(alpha, margins))
            for margins in (MARGIN_EDGES, np.array(-3.0), np.array(0.0), np.array(-0.0))
        ]
        # the mirror of a half grid takes the half's tail as a reversed view
        half = np.concatenate([np.linspace(0.0, 50.0, 101), [745.0, 1e308, math.inf]])
        cases.append((-half[::-1], margin_loss_tail(alpha, half)[::-1]))
        for margins, tail in cases:
            # the tail of m is the tail of -m: it depends on |m| alone
            for signed in (margins, np.array(-margins)):
                expected = margin_losses(alpha, signed)
                assert same_bits(margin_losses(alpha, signed, tail=tail), expected)
                # out may still be the margins
                out = np.array(signed)
                got = margin_losses(alpha, out, out=out, tail=tail)
                assert got is out
                assert same_bits(got, expected)


class TestFusedMarginKernel:
    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_losses_match_margin_losses(self, alpha):
        rng = np.random.default_rng(8)
        for margins in (MARGIN_EDGES, rng.normal(scale=20.0, size=500)):
            losses, _ = _margin_terms(alpha, margins)
            assert same_bits(losses, margin_losses(alpha, margins))

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_keeps_shape_and_input(self, alpha):
        # _margin_terms reads the margins in several passes, around writes to its buffers
        for margins in (np.array(-3.0), np.array([[0.5, -0.5], [40.0, -40.0]])):
            before = margins.copy()
            losses, slopes = _margin_terms(alpha, margins)
            assert losses.shape == slopes.shape == margins.shape
            assert same_bits(losses, margin_losses(alpha, margins))
            flat_slopes = _margin_terms(alpha, margins.ravel())[1]
            assert same_bits(slopes, flat_slopes.reshape(margins.shape))
            assert same_bits(margins, before)

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_coefficients_match_masked_sigmoids(self, alpha):
        rng = np.random.default_rng(9)
        for scores in (MARGIN_EDGES, rng.normal(scale=20.0, size=500)):
            labels = rng.choice([-1, 1], size=scores.size)
            _, slopes = _margin_terms(alpha, labels * scores)
            assert same_bits(labels * slopes, masked_coefficients(alpha, scores, labels))

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_coefficients_match_scalar_closed_form(self, alpha):
        _, slopes = _margin_terms(alpha, MARGIN_EDGES)
        for m, slope in zip(MARGIN_EDGES, slopes):
            expected = margin_alpha_loss_d1(alpha, m)
            assert np.signbit(slope) == np.signbit(expected)
            # numpy's exp and log1p may differ from the math module's in the last bit
            assert slope == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [Alpha(1.01), A2, Alpha(10)], ids=str)
    def test_slopes_match_decimal_reference_in_subnormal_tail(self, alpha):
        # below m = -708 sigmoid(m) is subnormal, so a pow of it would lose bits
        margins = np.array([-30.0, -700.0, -720.0, -745.0])
        _, slopes = _margin_terms(alpha, margins)
        with localcontext() as ctx:
            ctx.prec = 50
            one = Decimal(1)
            c = one - one / Decimal(alpha.value)
            for m, slope in zip(margins, slopes):
                sig = one / (one + Decimal(-m).exp())
                exact = -(c * sig.ln()).exp() / (one + Decimal(m).exp())
                assert abs((Decimal(float(slope)) - exact) / exact) <= Decimal("1e-13"), m

    def test_shared_workspace_matches_fresh_buffers(self):
        rng = np.random.default_rng(10)
        margins = np.concatenate([MARGIN_EDGES, rng.normal(scale=20.0, size=500)])
        work = _margin_workspace(margins.shape)
        # every alpha twice, so each call starts from another alpha's leftovers
        for alpha in ALPHA_CYCLE + ALPHA_CYCLE[::-1]:
            losses, slopes = _margin_terms(alpha, margins, work)
            fresh_losses, fresh_slopes = _margin_terms(alpha, margins)
            assert same_bits(losses, fresh_losses)
            assert same_bits(slopes, fresh_slopes)
            assert all(any(out is buf for buf in work) for out in (losses, slopes))


class TestCurvature:
    """The second derivative _margin_terms writes when asked for it."""

    @pytest.mark.parametrize("alpha", [A1, Alpha(1.5), A2, AINF], ids=str)
    def test_matches_scalar_second_derivative(self, alpha):
        # L'' is the difference of two terms of size |L'| * (sigmoid(m) + c * sigmoid(-m));
        # the error against the scalar form was at most 3.7e-15 of that size
        for name, margins in oracle_margins().items():
            curvature = np.empty(margins.shape)
            _, slopes = _margin_terms(alpha, margins, curvature=curvature)
            expected = np.array([margin_alpha_loss_d2(alpha, float(m)) for m in margins])
            with np.errstate(over="ignore"):
                positive = 1.0 / (1.0 + np.exp(-margins))
            size = np.abs(slopes) * (positive + alpha.exponent * (1.0 - positive))
            assert np.all(np.abs(curvature - expected) <= 1e-14 * size), name

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_matches_central_differences_of_the_slopes(self, alpha):
        margins = np.linspace(-30.0, 30.0, 6001)
        h = 1e-5
        curvature = np.empty(margins.shape)
        _margin_terms(alpha, margins, curvature=curvature)
        ahead = _margin_terms(alpha, margins + h)[1]
        behind = _margin_terms(alpha, margins - h)[1]
        # the truncation, h^2 / 6 times the third derivative (at most 2), is
        # below 1e-10, and the rounding about 1e-16 / h
        np.testing.assert_allclose(curvature, (ahead - behind) / (2.0 * h), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_losses_and_slopes_keep_their_bits(self, alpha):
        for name, margins in oracle_margins().items():
            losses, slopes = _margin_terms(alpha, margins)
            curved = _margin_terms(alpha, margins, curvature=np.empty(margins.shape))
            assert same_bits(losses, curved[0]) and same_bits(slopes, curved[1]), name
        # the results are still buffers of the workspace it is given
        work = _margin_workspace(MARGIN_EDGES.shape)
        losses, slopes = _margin_terms(alpha, MARGIN_EDGES, work, np.empty(MARGIN_EDGES.shape))
        assert all(any(out is buf for buf in work) for out in (losses, slopes))


# Starts where the Hessian of the default-law sample below is indefinite.
INDEFINITE_STARTS = [(Alpha(4), [-0.3, 0.6, 0.0, 0.0, 0.0]), (AINF, [0.0, 0.9, 0.0, 0.0, 0.0])]
WARM = landscape.WARM_START_EPOCHS
# A unit vector with no entry near 1.
UNIT = np.array([0.6, -0.48, 0.0, 0.64, 0.0])


def hessian_eigenvalues(alpha, model, data):
    margins = data.labels * (data.features @ model.weights)
    curvature = np.array([margin_alpha_loss_d2(alpha, float(m)) for m in margins])
    return np.linalg.eigvalsh((data.features.T * curvature) @ data.features / data.n)


class TestSolveOnBall:
    """solve_on_ball certifies the KKT points of the landscape command's models."""

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_default_law_point_is_the_gradient_descent_point(self, alpha, n):
        # after 300 epochs of projected GD at lr 1 the tangential gradient is
        # below 1e-16: GD has reached the point that the solve reaches from
        # the landscape command's unconstrained warm start
        data = landscape_law_dataset(n, n + 3)
        reached = three_matvec_train(TrainConfig(alpha, 1.0, 300, 5), data, radius=1.0)[0]
        warm = train(TrainConfig(alpha, 1.0, WARM, 5), data).final_model
        solution = solve_on_ball(alpha, warm, data, 1.0, 300 - WARM)
        multiplier, residual = kkt_terms(alpha, solution.model, data, 1.0)
        assert solution.converged and solution.residual <= KKT_TOL
        assert solution.newton_step <= NEWTON_STEP_TOL
        assert residual <= KKT_TOL and multiplier >= 0.0
        assert solution.multiplier == pytest.approx(multiplier, rel=1e-12)
        assert np.linalg.norm(solution.model.weights - reached) <= 1e-12
        assert solution.risk == empirical_risk(alpha, solution.model, data)

    @pytest.fixture(scope="class")
    def interior_sample(self):
        # radius 10, mean 0.5 and noise 1: the population minimizer alpha * e1 is inside
        spec = SymmetricDataSpec(dim=5, radius=10.0, mean_norm=0.5, noise_scale=1.0, seed=11)
        return generate_symmetric_dataset(spec, 200_000)

    @pytest.mark.parametrize("alpha", [A1, Alpha(1.5), A2, Alpha(4)], ids=str)
    def test_interior_law_point_is_near_the_population_minimizer(self, alpha, interior_sample):
        data = interior_sample
        warm = train(TrainConfig(alpha, 1.0, WARM, 3), data).final_model
        solution = solve_on_ball(alpha, warm, data, 10.0, 300 - WARM)
        w = solution.model.weights
        assert solution.converged and solution.multiplier == 0.0
        assert np.linalg.norm(w) < 10.0
        assert np.linalg.norm(empirical_gradient(alpha, solution.model, data)) <= KKT_TOL
        # at n = 200,000 the distances measured 0.013 to 0.014 times alpha
        assert np.linalg.norm(w - alpha.value * np.eye(5)[0]) <= 0.03 * alpha.value

    @pytest.mark.parametrize("alpha, start", INDEFINITE_STARTS, ids=str)
    def test_indefinite_start_converges_on_the_unit_ball(self, alpha, start):
        data = landscape_law_dataset(300, 3)
        start = LinearModel(np.array(start))
        eigenvalues = hessian_eigenvalues(alpha, start, data)
        assert eigenvalues[0] < 0.0 < eigenvalues[-1]
        solution = solve_on_ball(alpha, start, data, 1.0, 290)
        multiplier, residual = kkt_terms(alpha, solution.model, data, 1.0)
        assert solution.risk <= empirical_risk(alpha, start, data)
        assert solution.converged and residual <= KKT_TOL and multiplier >= 0.0
        assert np.linalg.norm(solution.model.weights - np.eye(5)[0]) < 0.05

    @pytest.mark.parametrize("alpha, start", INDEFINITE_STARTS + [(A2, [-0.36, 0, 0, 0, 0])],
                             ids=str)
    def test_flat_tail_of_an_unbounded_ball_is_not_certified(self, alpha, start):
        # the sample is separable, so in an unbounded ball the risk has no
        # minimizer: the solve runs out along a tail where the gradient decays
        # below KKT_TOL (alpha = 4 once reached 5.6e-13 at |w| = 52) while
        # each Newton step stays of order 1
        data = landscape_law_dataset(300, 3)
        start = LinearModel(np.array(start, dtype=float))
        solution = solve_on_ball(alpha, start, data, math.inf, 290)
        assert not solution.converged
        assert solution.newton_step > NEWTON_STEP_TOL * np.linalg.norm(solution.model.weights)
        assert solution.risk <= empirical_risk(alpha, start, data)

    def test_no_step_keeps_the_start(self):
        data = landscape_law_dataset(100, 1)
        start = LinearModel(np.array([0.1, 0.0, 0.0, 0.0, 0.0]))
        solution = solve_on_ball(A2, start, data, 1.0, 0)
        assert solution.steps == 0 and not solution.converged
        assert np.array_equal(solution.model.weights, start.weights)
        assert solution.risk == empirical_risk(A2, start, data)

    # starts at |w| = 1.5, 4 and 20 along a unit direction, and one of finite
    # entries whose norm overflows, along (1, ..., 1) / sqrt(5)
    @pytest.mark.parametrize("weights, direction", [
        (scale * UNIT, UNIT) for scale in (1.5, 4.0, 20.0)
    ] + [(np.full(5, 1e308), np.full(5, math.sqrt(0.2)))], ids=["1.5", "4", "20", "overflow"])
    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_start_outside_the_ball_is_scaled_onto_the_sphere(self, alpha, weights, direction):
        data = landscape_law_dataset(100, 1)
        start = LinearModel(weights)
        kept = solve_on_ball(alpha, start, data, 1.0, 0)
        assert kept.steps == 0
        assert np.linalg.norm(kept.model.weights - direction) <= 1e-15
        assert kept.risk == empirical_risk(alpha, kept.model, data)
        solved = solve_on_ball(alpha, start, data, 1.0, 290)
        projected = solve_on_ball(alpha, LinearModel(direction), data, 1.0, 290)
        assert solved.converged and projected.converged
        assert np.linalg.norm(solved.model.weights - projected.model.weights) <= 1e-12
        for solution in (kept, solved):
            assert np.linalg.norm(solution.model.weights) <= 1.0 + 1e-12

    @pytest.mark.parametrize("weights, radius, steps, text", [
        (np.zeros(4), 1.0, 5, "dimension"),
        (np.zeros(5), 0.0, 5, "radius must be positive"),
        (np.zeros(5), 1.0, -1, "max_steps must be nonnegative"),
    ], ids=["dim", "radius", "steps"])
    def test_refuses_bad_arguments(self, weights, radius, steps, text):
        with pytest.raises(ValueError, match=text):
            solve_on_ball(A2, LinearModel(weights), landscape_law_dataset(20, 1), radius, steps)

    def test_refuses_a_hessian_above_max_sample_floats(self):
        # d^2 = 100,020,001 floats: refused before the Hessian or any per-sample buffer
        d = 10_001
        data = LabeledDataset(np.ones((2, d)), np.array([1.0, -1.0]))

        def refused():
            with pytest.raises(ValueError, match=f"dim {d} needs a {d} x {d} Hessian,"
                                                 f" {d * d} floats, above the {MAX_SAMPLE_FLOATS}"):
                solve_on_ball(A2, LinearModel(np.zeros(d)), data, 1.0, 5)

        # a megabyte, against the Hessian's 800 MB
        assert traced_peak(refused)[1] < 10**6


class TestBallHessian:
    """_BallRisk.hessian sums X_b' (L''_b * X_b) over blocks of LOSS_BLOCK // d rows."""

    @staticmethod
    def problem(alpha, n, d, order):
        rng = np.random.default_rng(n + d)
        x = np.asarray(rng.normal(size=(n, d)), order=order)
        data = LabeledDataset(x, rng.choice([-1.0, 1.0], size=n))
        problem = logreg._BallRisk(alpha, data, 1.0)
        problem.at(rng.normal(size=d) / math.sqrt(d))
        return problem

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    @pytest.mark.parametrize("order", ["C", "F"])
    # below one block, and across 3 blocks and a partial one at d = 5 and d = 200
    @pytest.mark.parametrize("n, d", [(50, 5), (3 * (logreg.LOSS_BLOCK // 5) + 17, 5),
                                      (3 * (logreg.LOSS_BLOCK // 200) + 17, 200)])
    def test_matches_one_product(self, alpha, order, n, d):
        problem = self.problem(alpha, n, d, order)
        x = problem.data.features
        expected = (x.T * problem.curvature) @ x / n
        # measured up to 4.8e-15 of the largest entry
        error = np.abs(problem.hessian() - expected).max()
        assert error <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n, d", [(200_000, 5), (20_000, 100)])
    def test_holds_no_sample_sized_buffer(self, n, d):
        # the Hessian and one block's product, d x d each, the scaled block, and
        # numpy's iteration buffers for it, at most a block more: never n x d
        problem = self.problem(A2, n, d, "F")
        bound = (2 * d * d + 2 * logreg.LOSS_BLOCK) * 8
        assert traced_peak(problem.hessian)[1] <= bound < n * d * 8 / 10

    @staticmethod
    def separate_newton_step(point, hessian):
        """Newton's step with the tangent Hessian and the factor as new matrices."""
        grad = point.grad
        if point.multiplier > 0.0:
            u = point.weights / point.norm
            mu = point.multiplier / point.norm
            grad = grad - (u @ grad) * u
            hu = hessian @ u
            hessian = hessian - np.outer(u, hu) - np.outer(hu, u)
            hessian += (u @ hu + 1.0 - mu) * np.outer(u, u)
            hessian[np.diag_indices_from(hessian)] += mu
        d = grad.size
        low = np.zeros((d, d))
        for j in range(d):
            low[j, j] = math.sqrt(hessian[j, j] - low[j, :j] @ low[j, :j])
            low[j + 1 :, j] = (hessian[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
        x = np.empty(d)
        for j in range(d):
            x[j] = (grad[j] - low[j, :j] @ x[:j]) / low[j, j]
        for j in reversed(range(d)):
            x[j] = (x[j] - low[j + 1 :, j] @ x[j + 1 :]) / low[j, j]
        return grad, x

    # d = 200 builds the tangent Hessian in 3 blocks of rows
    @pytest.mark.parametrize("d", [5, 200])
    @pytest.mark.parametrize("radius, start", [(1.0, 1.0), (math.inf, 0.1)],
                             ids=["sphere", "inside"])
    def test_in_place_step_has_the_bits_of_separate_matrices(self, d, radius, start):
        rng = np.random.default_rng(d)
        x = np.asfortranarray(rng.normal(size=(5 * d, d)) / math.sqrt(d))
        data = LabeledDataset(x, np.where(x[:, 0] + 0.3 * rng.normal(size=5 * d) >= 0.0, 1, -1))
        problem = logreg._BallRisk(A1, data, radius)
        # a direction with no zero or unit entry, so that a reassociated
        # product would show in the last bits
        direction = np.eye(d)[0] + 0.3 * rng.normal(size=d) / math.sqrt(d)
        point = problem.at(start * direction / np.linalg.norm(direction))
        assert (point.multiplier > 0.0) == (radius == 1.0)
        expected = self.separate_newton_step(point, problem.hessian())
        got = logreg._newton_step(point, problem.hessian())
        assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])

    # on the sphere at alpha = 2, and inside the ball at alpha = 1, where the
    # Hessian is positive definite so that the whole factor is formed
    @pytest.mark.parametrize("alpha, radius, start", [(A2, 1.0, 1.0), (A1, math.inf, 0.1)],
                             ids=["sphere", "inside"])
    def test_solve_holds_the_hessian_and_one_product(self, alpha, radius, start):
        # the tangent Hessian and its factor overwrite the Hessian, so the peak
        # is hessian()'s: the Hessian and one block's product, with the
        # per-sample buffers and a scaled block
        n, d = 1000, 300
        rng = np.random.default_rng(d)
        x = np.asfortranarray(rng.normal(size=(n, d)) / math.sqrt(d))
        data = LabeledDataset(x, np.where(x[:, 0] + 0.3 * rng.normal(size=n) >= 0.0, 1, -1))
        solution, peak = traced_peak(solve_on_ball, alpha, LinearModel(start * np.eye(d)[0]),
                                     data, radius, 2)
        assert solution.steps == 2 and solution.newton_step < math.inf
        assert (solution.multiplier > 0.0) == (radius == 1.0)
        assert peak <= (2 * d * d + 8 * n + 2 * logreg.LOSS_BLOCK) * 8 < 2.5 * d * d * 8


def noisy_case(alpha, sort_by_class):
    data = noisy_linear_dataset(21, sort_by_class=sort_by_class)
    return TrainConfig(alpha, learning_rate=6.0, epochs=40, seed=5), data


def landscape_case(alpha):
    """300 epochs at lr 1 on a sample of the landscape command's law, column-major."""
    return TrainConfig(alpha, learning_rate=1.0, epochs=300, seed=0), landscape_law_dataset(100, 0)


TRAIN_CASES = [
    pytest.param(partial(noisy_case, alpha, sort_by_class), id=f"{sort_by_class}-{alpha}")
    for sort_by_class in (False, True)
    for alpha in (A1, Alpha(1.5), A2, AINF)
] + [pytest.param(partial(landscape_case, alpha), id=f"landscape-{alpha}") for alpha in (A1, A2, AINF)]


class TestTrainMatchesThreeMatvecLoop:
    @pytest.mark.parametrize("case", TRAIN_CASES)
    def test_bit_identical(self, case):
        cfg, data = case()
        weights, trace, grad_norm, accuracy = three_matvec_train(cfg, data)
        for report in (train(cfg, data), train(cfg, data, start=SeededStart(data, cfg.seed))):
            assert np.array_equal(report.final_model.weights, weights)
            assert np.array_equal(report.empirical_risk_trace, trace)
            assert final_gradient_norm(cfg.alpha, report, data) == grad_norm
            assert report.train_accuracy == accuracy

    # From w = 0 the iterate on these conflicting colinear rows alternates in
    # sign with growing amplitude: the misclassified score after epoch k is
    # about -(k + 1) * lr * 2.5e299, so the larger rates overflow it sooner.
    @pytest.mark.parametrize("learning_rate, epoch", [(8e8, 0), (4e8, 1), (3e8, 2)])
    def test_divergence_epoch_matches(self, learning_rate, epoch, monkeypatch):
        x = np.array([[1e150, 0.0], [2e150, 0.0]])
        data = LabeledDataset(x, np.array([1, -1]))
        monkeypatch.setattr(logreg, "INIT_SCALE", 0.0)
        cfg = TrainConfig(A1, learning_rate=learning_rate, epochs=5, seed=0)
        with pytest.raises(TrainingDiverged) as expected:
            three_matvec_train(cfg, data)
        with pytest.raises(TrainingDiverged) as got:
            train(cfg, data)
        assert got.value.epoch == expected.value.epoch == epoch


class TestSeededStart:
    def test_one_start_shared_in_any_order(self):
        data = noisy_linear_dataset(21)
        configs = [TrainConfig(alpha, learning_rate, epochs=30, seed=5)
                   for alpha in (A1, Alpha(1.5), A2, AINF)
                   for learning_rate in (0.5, 6.0)]
        start = SeededStart(data, 5)
        before = [start.weights.copy(), start.scores.copy()]
        # each alpha's gradient is computed by the first train to need it
        order = np.random.default_rng(0).permutation(len(configs))
        # every config twice, the second pass in the reverse order
        for index in [*order, *order[::-1]]:
            cfg = configs[index]
            shared, fresh = train(cfg, data, start=start), train(cfg, data)
            assert np.array_equal(shared.final_model.weights, fresh.final_model.weights)
            assert np.array_equal(shared.empirical_risk_trace, fresh.empirical_risk_trace)
            assert shared.train_accuracy == fresh.train_accuracy
        fresh_start = SeededStart(data, 5)
        before += [fresh_start.gradient(alpha) for alpha in (A1, Alpha(1.5), A2, AINF)]
        after = [start.weights, start.scores]
        after += [start.gradient(alpha) for alpha in (A1, Alpha(1.5), A2, AINF)]
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
            assert not new.flags.writeable

    def test_start_of_another_dataset_refused(self):
        data = noisy_linear_dataset(21)
        # equal contents, but another dataset
        other = LabeledDataset(data.features.copy(), data.labels.copy())
        cfg = TrainConfig(A2, 1.0, 3, seed=5)
        with pytest.raises(ValueError) as refused:
            train(cfg, data, start=SeededStart(other, 5))
        assert f"{id(other):#x}" in str(refused.value) and f"{id(data):#x}" in str(refused.value)
        assert "300 x 6" in str(refused.value)

    def test_start_of_another_seed_refused(self):
        data = noisy_linear_dataset(21)
        with pytest.raises(ValueError, match="seed 4, not config seed 5"):
            train(TrainConfig(A2, 1.0, 3, seed=5), data, start=SeededStart(data, 4))


def landscape_law_dataset(n, seed):
    """A training set of the landscape command's default law: d = 5, radius 1, column-major."""
    spec = SymmetricDataSpec(
        dim=5, radius=1.0, mean_norm=0.8, noise_scale=0.14, seed=seed
    )
    return generate_symmetric_dataset(spec, n)


class TestEvaluate:
    def test_zero_weights_predict_positive(self):
        data = toy_separable()
        zero = LinearModel(np.zeros(2))
        assert evaluate(zero, data) == np.mean(data.labels == 1)

    def test_perfect_separator(self):
        data = toy_separable()
        model = LinearModel(np.array([5.0, 0.0]))
        assert evaluate(model, data) == 1.0

    def test_label_flip_antisymmetry(self):
        rng = np.random.default_rng(10)
        data, model = random_instance(rng, 4, 25)
        flipped = LabeledDataset(data.features, -data.labels)
        neg = LinearModel(-model.weights)
        # ties at the zero score have probability zero for continuous data
        assert evaluate(model, data) == evaluate(neg, flipped)

    def test_count_matches_the_mean_of_sign_matches(self):
        # a zero score of either sign predicts +1, a NaN score -1
        special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300])
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 7, 10, 49, 1000):
            scores = np.concatenate([special, rng.normal(size=n)])[:n]
            labels = rng.choice([-1, 1], size=n)
            expected = float(np.mean(np.where(scores >= 0.0, 1, -1) == labels))
            got = logreg._accuracy(scores, labels)
            assert got == expected
            assert type(got) is float


class TestHoldoutMemory:
    """Scoring a model on a large holdout allocates about its margins and no more."""

    N = 200_000

    @pytest.fixture(scope="class")
    def holdout(self):
        return landscape_law_dataset(self.N, 1)

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_empirical_risk_holds_two_vectors(self, holdout, alpha):
        # the margins, which the losses overwrite, and a block of the loss tail
        model = LinearModel(np.array([0.6, -0.3, 0.2, 0.1, -0.4]))
        assert traced_peak(empirical_risk, alpha, model, holdout)[1] <= 2.25 * self.N * 8

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_empirical_gradient_holds_five_vectors(self, holdout, alpha):
        # the margins and the four buffers of one _margin_terms call
        model = LinearModel(np.array([0.6, -0.3, 0.2, 0.1, -0.4]))
        assert traced_peak(empirical_gradient, alpha, model, holdout)[1] <= 5.05 * self.N * 8

    def test_evaluate_holds_the_scores_and_three_masks(self, holdout):
        model = LinearModel(np.array([0.6, -0.3, 0.2, 0.1, -0.4]))
        assert traced_peak(evaluate, model, holdout)[1] <= 1.5 * self.N * 8

    @pytest.mark.parametrize("alpha", [A1, A2, AINF], ids=str)
    def test_risk_and_accuracy_hold_the_scores_and_three_masks(self, holdout, alpha):
        # the scores, which become the margins and then the losses, with the
        # accuracy's masks (freed before the losses) or a block of the loss tail
        model = LinearModel(np.array([0.6, -0.3, 0.2, 0.1, -0.4]))
        assert traced_peak(risk_and_accuracy, alpha, model, holdout)[1] <= 1.5 * self.N * 8


class TestRiskAndAccuracy:
    @pytest.mark.parametrize("alpha", ALPHA_CYCLE, ids=str)
    def test_same_bits_as_empirical_risk_and_evaluate(self, alpha):
        rng = np.random.default_rng(14)
        # 2.5 loss blocks, so the last block is a partial one
        data = landscape_law_dataset(5 * logreg.LOSS_BLOCK // 2, 2)
        # a zero model of either sign scores every row a zero, which predicts +1
        for w in (np.zeros(5), -np.zeros(5), rng.normal(size=5), rng.normal(size=5)):
            model = LinearModel(w)
            risk, accuracy = risk_and_accuracy(alpha, model, data)
            assert same_bits(np.array(risk), np.array(empirical_risk(alpha, model, data)))
            assert accuracy == evaluate(model, data)
            # the losses of one margin_losses call over every margin, as before the blocks
            margins = data.labels * (data.features @ w)
            assert risk == float(np.mean(margin_losses(alpha, margins)))
