import math

import numpy as np
import pytest

import alphaloss.landscape as landscape_module
from alphaloss import (
    Alpha,
    GenerationFailed,
    LabeledDataset,
    SymmetricDataSpec,
    TrainConfig,
    TrainingDiverged,
    check_assumptions,
    empirical_risk,
    generate_symmetric_dataset,
    hoeffding_epsilon,
    log_log_slope,
    median_gaps,
    morse_epsilon,
    risk_gap_experiment,
    train,
)
from alphaloss.logreg import MAX_EPOCHS, row_norms
from conftest import A1, A2, forbid, traced_peak


def default_spec(**overrides):
    base = dict(dim=2, radius=1.0, mean_norm=0.5, noise_scale=0.1, seed=99)
    base.update(overrides)
    return SymmetricDataSpec(**base)


class TestSpecValidation:
    def test_positive_mean_norm(self):
        with pytest.raises(ValueError):
            default_spec(mean_norm=0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            default_spec(radius=radius)

    def test_nonnegative_noise(self):
        with pytest.raises(ValueError):
            default_spec(noise_scale=-0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mean_norm", "noise_scale"])
    def test_finite_law(self, field, value):
        # an infinite radius admits any draw, so only the spec can refuse the law
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            default_spec(**{field: value}, radius=math.inf)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_fits_64_unsigned_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            default_spec(seed=seed)


class TestGeneration:
    def test_degenerate_noise_gives_two_atoms(self):
        data = generate_symmetric_dataset(default_spec(noise_scale=0.0), 4)
        mu_half = 0.5 * np.array([1.0, 0.0])
        positives = data.features[data.labels == 1]
        negatives = data.features[data.labels == -1]
        assert positives.shape == (2, 2) and negatives.shape == (2, 2)
        assert np.array_equal(positives, np.tile(mu_half, (2, 1)))
        assert np.array_equal(negatives, np.tile(-mu_half, (2, 1)))

    def test_labels_balanced(self):
        even = generate_symmetric_dataset(default_spec(), 1000)
        assert int(np.sum(even.labels == 1)) == 500
        odd = generate_symmetric_dataset(default_spec(), 7)
        counts = (int(np.sum(odd.labels == 1)), int(np.sum(odd.labels == -1)))
        assert abs(counts[0] - counts[1]) == 1 and sum(counts) == 7

    def test_overflowing_draw_is_refused_without_warning(self):
        spec = default_spec(mean_norm=1e308, noise_scale=1e308, radius=math.inf)
        with pytest.raises(ValueError, match="features must be finite"):
            generate_symmetric_dataset(spec, 50)

    def test_infinite_radius_admits_rows_whose_norm_overflows(self):
        data = generate_symmetric_dataset(default_spec(mean_norm=1e200, radius=math.inf), 50)
        assert np.all(np.isfinite(data.features))
        np.testing.assert_allclose(
            row_norms(data.features), np.hypot.reduce(data.features, axis=1), rtol=1e-15
        )
        # a row whose norm is above the largest float is admitted as well
        row = LabeledDataset(np.array([[1.5e308, 1.5e308]]), np.array([1]))
        assert np.all(np.isfinite(row.features))
        assert np.all(np.isinf(row_norms(row.features)))

    def test_draws_whose_squares_overflow_land_inside_the_ball(self):
        # every coordinate square of a row near 5e159 overflows, its norm does not
        spec = default_spec(radius=1e160, mean_norm=5e159, noise_scale=1e159)
        data = generate_symmetric_dataset(spec, 100)
        norms = row_norms(data.features)
        assert float(norms.max()) <= spec.radius
        np.testing.assert_allclose(norms, 1e159 * row_norms(data.features / 1e159), rtol=1e-15)

    def test_support_inside_ball(self):
        data = generate_symmetric_dataset(default_spec(noise_scale=0.4), 1000)
        assert float(row_norms(data.features).max()) <= 1.0

    def test_class_mean_within_three_standard_errors(self):
        spec = default_spec()
        data = generate_symmetric_dataset(spec, 1000)
        positives = data.features[data.labels == 1]
        se = spec.noise_scale / math.sqrt(positives.shape[0])
        target = spec.mean_norm * np.eye(spec.dim)[0]
        assert np.all(np.abs(positives.mean(axis=0) - target) <= 3 * se)

    def test_class_conditional_negation_symmetry(self):
        n = 4000
        data = generate_symmetric_dataset(default_spec(seed=5), n)
        pos_mean = data.features[data.labels == 1].mean(axis=0)
        neg_flipped_mean = (-data.features[data.labels == -1]).mean(axis=0)
        assert np.linalg.norm(pos_mean - neg_flipped_mean) <= 3.0 / math.sqrt(n)

    def test_rejection_cap_reports_parameters(self):
        with pytest.raises(GenerationFailed, match="mean_norm=1.5"):
            generate_symmetric_dataset(default_spec(mean_norm=1.5, noise_scale=0.0), 4)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            generate_symmetric_dataset(default_spec(), 1)

    def test_size_cap_rejects_before_drawing(self, monkeypatch):
        forbid(monkeypatch, landscape_module, "_draw_positive_class", "a sample was drawn")
        cap = landscape_module.MAX_SAMPLE_FLOATS
        for n in (10**13, cap // 2 + 1):
            with pytest.raises(ValueError, match="floats"):
                generate_symmetric_dataset(default_spec(), n)

    def test_size_cap_admits_its_bound(self, monkeypatch):
        class Drawn(Exception):
            pass

        def record(rng, spec, count):
            raise Drawn(count)

        monkeypatch.setattr(landscape_module, "_draw_positive_class", record)
        # n x dim equal to the cap is allowed: the draw is reached
        with pytest.raises(Drawn):
            generate_symmetric_dataset(default_spec(), landscape_module.MAX_SAMPLE_FLOATS // 2)

    def test_deterministic(self):
        a = generate_symmetric_dataset(default_spec(), 64)
        b = generate_symmetric_dataset(default_spec(), 64)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def vstack_reference(spec, n):
    """The row-major construction the generator replaced: each class drawn
    into its own array, the second negated, the two stacked."""
    rng = np.random.default_rng(spec.seed)
    center = spec.mean_norm * np.eye(spec.dim)[0]

    def draw(count):
        out = np.empty((count, spec.dim))
        pending = np.arange(count)
        while pending.size:
            candidates = center + spec.noise_scale * rng.standard_normal((pending.size, spec.dim))
            inside = row_norms(candidates) <= spec.radius
            out[pending[inside]] = candidates[inside]
            pending = pending[~inside]
        return out

    n_pos = n - n // 2
    return np.vstack([draw(n_pos), -draw(n - n_pos)])


class TestLayout:
    # noise 0.4 around a mean of norm 0.5 rejects draws, so the refill path runs
    @pytest.mark.parametrize("n", [2, 7, 1000])
    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.4])
    def test_column_major_with_the_row_major_draws(self, n, noise):
        spec = default_spec(dim=5, noise_scale=noise, seed=n)
        features = generate_symmetric_dataset(spec, n).features
        assert features.flags.f_contiguous
        expected = vstack_reference(spec, n)
        assert features.shape == expected.shape
        # bit for bit, so the sign of every zero is kept too
        assert np.array_equal(features.view(np.uint64), expected.view(np.uint64))

    # radius 0.9 at noise 0.4 rejects over half of the candidates: each class
    # of 100 rows takes about ten rounds, the first four spanning several
    # 7-row blocks; 3 floats is less than one row of dim 5, so that block is
    # one row
    @pytest.mark.parametrize("block_floats", [3, 7 * 5])
    def test_blocked_draw_matches_one_draw_per_round(self, monkeypatch, block_floats):
        monkeypatch.setattr(landscape_module, "_DRAW_BLOCK_FLOATS", block_floats)
        spec = default_spec(dim=5, radius=0.9, noise_scale=0.4, seed=11)
        features = generate_symmetric_dataset(spec, 200).features
        expected = vstack_reference(spec, 200)
        assert np.array_equal(features.view(np.uint64), expected.view(np.uint64))

    def test_generation_peak_is_at_most_one_and_a_half_datasets(self):
        # the landscape command's default law, which rejects 13% of its draws
        spec = SymmetricDataSpec(5, 1.0, 0.8, 0.14, 0)
        data, peak = traced_peak(generate_symmetric_dataset, spec, 200_000)
        assert peak <= 1.5 * (data.features.nbytes + data.labels.nbytes)

    @pytest.mark.parametrize("alpha", [A1, A2, Alpha("inf")], ids=str)
    @pytest.mark.parametrize("projected", [False, True])
    def test_training_does_not_depend_on_the_layout(self, alpha, projected):
        # only the BLAS reduction order differs: 2.6e-16 apart at most, measured
        spec = SymmetricDataSpec(5, 1.0, 0.8, 0.14, 3)
        data = generate_symmetric_dataset(spec, 2000)
        row_major = LabeledDataset(np.ascontiguousarray(data.features), data.labels)
        assert row_major.features.flags.c_contiguous
        radius = spec.radius if projected else math.inf
        cfg = TrainConfig(alpha, learning_rate=1.0, epochs=300, seed=4, radius=radius)
        got, expected = train(cfg, data), train(cfg, row_major)
        assert got.train_accuracy == expected.train_accuracy
        w, w_ref = got.final_model.weights, expected.final_model.weights
        assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)


class TestCheckAssumptions:
    def test_noiseless_case(self):
        data = generate_symmetric_dataset(default_spec(noise_scale=0.0), 100)
        report = check_assumptions(data, 1.0)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        assert report.sigma_sq_term == pytest.approx(0.072329, abs=1e-6)
        assert report.inequality_holds

    def test_zero_mean_positive_class_fails(self):
        features = np.array([[0.5, 0.0], [-0.5, 0.0], [0.1, 0.2], [0.3, -0.1]])
        labels = np.array([1, 1, -1, -1])
        data = LabeledDataset(features, labels)
        report = check_assumptions(data, 1.0)
        assert report.ratio == pytest.approx(0.0, abs=1e-12)
        assert not report.inequality_holds

    def test_large_radius_fails_unless_ratio_one(self):
        data = generate_symmetric_dataset(default_spec(noise_scale=0.3), 500)
        report = check_assumptions(data, 50.0)
        assert report.sigma_sq_term == 0.0
        assert not report.inequality_holds

    def test_single_class_rejected(self):
        features = np.array([[0.1, 0.0], [0.2, 0.0]])
        data = LabeledDataset(features, np.array([1, 1]))
        with pytest.raises(ValueError):
            check_assumptions(data, 1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_nonpositive_r_rejected(self, r):
        data = generate_symmetric_dataset(default_spec(), 10)
        with pytest.raises(ValueError, match="r must be positive"):
            check_assumptions(data, r)


class TestHoeffdingEpsilon:
    def test_reference_value(self):
        eps = hoeffding_epsilon(A2, 20000, 1, 0.05)
        assert eps == pytest.approx(2.0 * math.sqrt(math.log(80.0) / 40000.0), abs=1e-15)
        assert eps == pytest.approx(0.0209333, abs=1e-6)

    def test_quadrupling_n_halves_epsilon_exactly(self):
        for n in (100, 5000, 20000):
            assert hoeffding_epsilon(A2, 4 * n, 1, 0.05) == hoeffding_epsilon(A2, n, 1, 0.05) / 2

    def test_huge_alpha_approaches_unit_width(self):
        base = math.sqrt(math.log(80.0) / 40000.0)
        assert abs(hoeffding_epsilon(Alpha(1e6), 20000, 1, 0.05) - base) < 1e-7

    def test_log_loss_rejected_with_explanation(self):
        with pytest.raises(ValueError, match="unbounded"):
            hoeffding_epsilon(A1, 1000, 1, 0.05)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hoeffding_epsilon(A2, 0, 1, 0.05)
        with pytest.raises(ValueError):
            hoeffding_epsilon(A2, 10, 0, 0.05)
        with pytest.raises(ValueError):
            hoeffding_epsilon(A2, 10, 1, 0.0)
        with pytest.raises(ValueError):
            hoeffding_epsilon(A2, 10, 1, 1.0)


class TestMorseEpsilon:
    def test_reference_values(self):
        assert morse_epsilon(1.0, 1.0) == pytest.approx(0.07232948812851325, abs=1e-15)
        assert morse_epsilon(1e-8, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert morse_epsilon(100.0, 1.0) == 0.0  # sigmoid(-1e4)^2 underflows

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            morse_epsilon(0.0, 1.0)
        with pytest.raises(ValueError):
            morse_epsilon(1.0, 0.0)


# the training settings of the small experiment's trials
SCHEDULE = dict(learning_rate=1.0, epochs=60)


@pytest.fixture(scope="module")
def small_experiment():
    spec = SymmetricDataSpec(
        dim=3, radius=1.0, mean_norm=0.7, noise_scale=0.12, seed=17
    )
    result = risk_gap_experiment(spec, [A1, A2], [50, 200], trials=3, holdout_n=4000, **SCHEDULE)
    return spec, result


class TestRiskGapExperiment:
    def test_record_structure(self, small_experiment):
        _, result = small_experiment
        assert len(result.records) == 2 * 2 * 3
        assert result.diverged == []
        for rec in result.records:
            assert rec.gap == abs(rec.true_risk_estimate - rec.empirical_risk)
            assert 0.0 <= rec.zero_one_risk <= 1.0
            if rec.alpha.is_log:
                assert rec.hoeffding_term is None
            else:
                assert rec.hoeffding_term == hoeffding_epsilon(rec.alpha, rec.n, 1, 0.05)

    def test_records_sorted(self, small_experiment):
        """Records follow the alphas in argument order, then n increasing, then trial."""
        spec, result = small_experiment
        again = risk_gap_experiment(spec, [A2, A1], [200, 50], trials=3, holdout_n=4000, **SCHEDULE)
        keys = [(rec.alpha.value, rec.n, rec.trial) for rec in again.records]
        assert keys == [(a, n, t) for a in (2.0, 1.0) for n in (50, 200) for t in range(3)]
        # the trial seeds derive from (alpha, n, trial), so every record keeps its values
        assert dict(zip(keys, again.records)) == {
            (rec.alpha.value, rec.n, rec.trial): rec for rec in result.records
        }

    def test_deterministic_rerun(self, small_experiment):
        spec, result = small_experiment
        again = risk_gap_experiment(spec, [A1, A2], [50, 200], trials=3, holdout_n=4000, **SCHEDULE)
        for a, b in zip(result.records, again.records):
            assert a.gap == b.gap
            assert a.true_risk_estimate == b.true_risk_estimate
            assert a.empirical_risk == b.empirical_risk

    def test_gap_vanishes_when_true_risk_uses_training_sample(self, small_experiment):
        spec, _ = small_experiment
        data = generate_symmetric_dataset(spec, 500)
        report = train(TrainConfig(A2, seed=0, radius=spec.radius, **SCHEDULE), data)
        emp = empirical_risk(A2, report.final_model, data)
        # with the holdout reused as the training sample the gap is exactly zero
        true_estimate = empirical_risk(A2, report.final_model, data)
        assert abs(true_estimate - emp) == 0.0

    def test_diverged_trials_are_excluded_and_counted(self, small_experiment, monkeypatch):
        spec, _ = small_experiment
        calls = {"k": 0}
        real_train = landscape_module.train

        def flaky_train(cfg, data):
            calls["k"] += 1
            if calls["k"] == 2:
                raise TrainingDiverged(epoch=0)
            return real_train(cfg, data)

        monkeypatch.setattr(landscape_module, "train", flaky_train)
        result = risk_gap_experiment(spec, [A2], [50], trials=3, holdout_n=1000, **SCHEDULE)
        assert len(result.records) == 2
        assert result.diverged == [(2.0, 50, 1)]

    def test_unconverged_solves_keep_their_records_and_are_named(self, small_experiment,
                                                                monkeypatch):
        spec, result = small_experiment
        real_solve = landscape_module.solve_on_ball

        def capped(alpha, model, data, radius, max_steps):
            return real_solve(alpha, model, data, radius, 0)

        monkeypatch.setattr(landscape_module, "solve_on_ball", capped)
        again = risk_gap_experiment(spec, [A1, A2], [50, 200], trials=3, holdout_n=4000,
                                    **SCHEDULE)
        assert result.unconverged == []
        keys = [(rec.alpha.value, rec.n, rec.trial) for rec in again.records]
        assert again.unconverged == keys and len(keys) == 12
        assert again.diverged == []

    @pytest.mark.parametrize("dim", [5, 65, 128])
    def test_models_are_solved_at_every_dim(self, monkeypatch, dim):
        """Each model is one warm start, then a certified solve from its final model."""
        spec = default_spec(dim=dim, radius=10.0, mean_norm=0.8, noise_scale=0.05, seed=5)
        calls = []
        real_train, real_solve = landscape_module.train, landscape_module.solve_on_ball

        def recording_train(cfg, data):
            report = real_train(cfg, data)
            calls.append(("train", cfg.epochs, report.final_model))
            return report

        def recording_solve(alpha, model, data, radius, max_steps):
            calls.append(("solve", max_steps, model))
            return real_solve(alpha, model, data, radius, max_steps)

        monkeypatch.setattr(landscape_module, "train", recording_train)
        monkeypatch.setattr(landscape_module, "solve_on_ball", recording_solve)
        result = risk_gap_experiment(spec, [A2], [200, 2000], trials=1, holdout_n=1000,
                                     **SCHEDULE)
        assert result.diverged == result.unconverged == [] and len(result.records) == 2
        warm = landscape_module.WARM_START_EPOCHS
        steps = SCHEDULE["epochs"] - warm
        assert [call[:2] for call in calls] == [("train", warm), ("solve", steps)] * 2
        assert calls[1][2] is calls[0][2] and calls[3][2] is calls[2][2]

    def test_summary_helpers(self, small_experiment):
        _, result = small_experiment
        medians = median_gaps(result.records, A2)
        assert sorted(medians) == [50, 200]
        assert all(m > 0 for m in medians.values())
        slope = log_log_slope([100, 1000], [0.1, 0.1 * 10**-0.5])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        with pytest.raises(ValueError):
            log_log_slope([100], [0.1])

    def test_slope_matches_polyfit(self):
        # np.polyfit, the least-squares fit the closed form replaced, is the reference
        rng = np.random.default_rng(11)
        for points in [2, 3, 5, 8, 20] * 10:
            sizes = rng.uniform(1.0, 1e6, points)
            values = rng.uniform(1e-6, 1.0, points)
            expected = np.polyfit(np.log(sizes), np.log(values), 1)[0]
            assert log_log_slope(sizes, values) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sizes, values", [([100, 100], [0.1, 0.2]), ([100, 1000], [0.1])])
    def test_slope_rejects_degenerate_points(self, sizes, values):
        with pytest.raises(ValueError):
            log_log_slope(sizes, values)

    @pytest.mark.parametrize("values", [[0.1, 0.0], [0.1, -0.1], [0.0, 0.0]])
    def test_slope_rejects_nonpositive_values(self, values):
        with pytest.raises(ValueError, match="positive"):
            log_log_slope([100, 1000], values)

    def test_empirical_risk_is_recomputable(self, monkeypatch):
        """Each record's empirical risk is the risk of its solved model on its own sample."""
        spec = default_spec(dim=3, seed=23)
        fits = []
        real_solve = landscape_module.solve_on_ball

        def recording_solve(alpha, model, data, radius, max_steps):
            solution = real_solve(alpha, model, data, radius, max_steps)
            fits.append((alpha, solution.model, data))
            return solution

        monkeypatch.setattr(landscape_module, "solve_on_ball", recording_solve)
        alphas = [A1, Alpha(1.5), A2, Alpha("inf")]
        result = risk_gap_experiment(
            spec, alphas, [100, 1000], trials=2, holdout_n=2000, learning_rate=1.0, epochs=30
        )
        # alphas and sizes are given sorted, so solving order is record order
        assert len(fits) == len(result.records) == 16
        for rec, (alpha, model, data) in zip(result.records, fits):
            assert rec.empirical_risk == empirical_risk(alpha, model, data)

    @pytest.mark.parametrize("sizes, holdout_n", [([50, 10**8], 100), ([50], 10**13)])
    def test_size_cap_checked_before_any_draw(self, small_experiment, monkeypatch, sizes, holdout_n):
        spec, _ = small_experiment

        forbid(monkeypatch, landscape_module, "_draw_positive_class", "a sample was drawn")
        with pytest.raises(ValueError, match="floats"):
            risk_gap_experiment(spec, [A2], sizes, trials=1, holdout_n=holdout_n, **SCHEDULE)

    def test_wide_dim_refused_before_any_dim_sized_array(self, monkeypatch):
        forbid(monkeypatch, np, "zeros", "a dim-sized array was allocated")
        spec = SymmetricDataSpec(
            dim=10**12, radius=1.0, mean_norm=0.5, noise_scale=0.1, seed=0
        )
        with pytest.raises(ValueError, match="floats"):
            risk_gap_experiment(spec, [A2], [50], trials=1, holdout_n=100, **SCHEDULE)

    @pytest.mark.parametrize("schedule, text", [
        (dict(learning_rate=math.nan, epochs=60), "learning_rate"),
        (dict(learning_rate=1.0, epochs=MAX_EPOCHS + 1), "epochs must be at most"),
    ])
    def test_schedule_checked_before_any_draw(self, small_experiment, monkeypatch, schedule,
                                              text):
        spec, _ = small_experiment

        forbid(monkeypatch, landscape_module, "generate_symmetric_dataset", "a sample was drawn")
        with pytest.raises(ValueError, match=text):
            risk_gap_experiment(spec, [A2], [50], trials=1, holdout_n=100, **schedule)

    @pytest.mark.parametrize("call", [
        lambda: default_spec(dim=2.5),
        lambda: default_spec(seed=1.5),
        lambda: TrainConfig(A2, 0.1, 5.0, 0),
        lambda: TrainConfig(A2, 0.1, 5, seed=1.5),
        lambda: risk_gap_experiment(default_spec(), [A2], [50], trials=1.5, holdout_n=100_000,
                                    **SCHEDULE),
        lambda: risk_gap_experiment(default_spec(), [A2], [50, 10.5], trials=1,
                                    holdout_n=100_000, **SCHEDULE),
        lambda: risk_gap_experiment(default_spec(), [A2], [50], trials=1, holdout_n=100_000.0,
                                    **SCHEDULE),
        lambda: risk_gap_experiment(default_spec(), [A2], [50], trials=1, holdout_n=100_000,
                                    learning_rate=1.0, epochs=60.0),
    ], ids=["dim", "spec-seed", "epochs", "train-seed", "trials", "n", "holdout_n",
            "experiment-epochs"])
    def test_non_integer_whole_number_refused_before_any_draw(self, monkeypatch, call):
        forbid(monkeypatch, landscape_module, "_draw_positive_class", "a sample was drawn")
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()

    def test_input_validation(self, small_experiment):
        spec, _ = small_experiment
        with pytest.raises(ValueError):
            risk_gap_experiment(spec, [A2], [50], trials=0, holdout_n=100, **SCHEDULE)
        with pytest.raises(ValueError):
            risk_gap_experiment(spec, [A2], [50], trials=1, holdout_n=1, **SCHEDULE)
