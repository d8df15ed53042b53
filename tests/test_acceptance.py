"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two criteria that
need the official MNIST corpus skip with an explicit SKIP line when the IDX
files are not available (point ALPHALOSS_MNIST_DIR at them to enable).
"""

import math
import time

import numpy as np
import pytest

from alphaloss import (
    Alpha,
    LinearModel,
    SymmetricDataSpec,
    TrainConfig,
    alpha_loss,
    build_binary_task,
    calibration_sweep,
    empirical_gradient,
    empirical_risk,
    evaluate,
    generate_symmetric_dataset,
    hoeffding_epsilon,
    load_mnist_dir,
    log_log_slope,
    logit,
    margin_alpha_loss_d1,
    margin_alpha_loss_d2,
    margin_alpha_loss_d3,
    median_gaps,
    min_conditional_risk,
    optimal_classifier,
    risk_gap_experiment,
    sample_loss,
    second_deriv_sign_change,
)
from alphaloss.losses import margin_alpha_loss
from conftest import (
    A1, A2, AINF, ETA_GRID, find_real_mnist, grid_minimize_conditional_risk, random_instance,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def failed(cases):
    """Detail for a criterion over many cases: how many failed, and the first."""
    return f"{len(cases)} failures" + (f", first {cases[0]}" if cases else "")


def report_skip(num, name, reason):
    print(f"\nACCEPTANCE {num:02d} {name}: SKIP ({reason})")
    pytest.skip(reason)


@pytest.fixture(scope="module")
def landscape_result():
    # 41 trials (criterion needs >= 20) and a 400k holdout keep the slope
    # estimate well away from trial noise and the holdout's own error floor
    spec = SymmetricDataSpec(
        dim=5, radius=1.0, mean_norm=0.8, noise_scale=0.14, seed=20240819
    )
    return risk_gap_experiment(
        spec, [A2], [100, 1000, 10000], trials=41, holdout_n=400_000, learning_rate=1.0,
        epochs=300,
    )


def test_criterion_01_accuracy_table(tmp_path):
    directory = find_real_mnist()
    if directory is None:
        report_skip(1, "accuracy table on MNIST 1-vs-7", "official MNIST IDX files not available")
    start = time.time()
    images, labels, test_images, test_labels = load_mnist_dir(directory)
    task = build_binary_task(images, labels, test_images, test_labels, seed=0)
    lr_grid = [1.0, 1.3, 1.9, 2.0]
    test_acc = {}
    for alpha_value in (1.0, 1.1, 1.2, 1.5, 2.0):
        alpha = Alpha(alpha_value)
        best = None
        for lr in lr_grid:
            cfg = TrainConfig(alpha=alpha, learning_rate=lr, epochs=200, seed=0)
            from alphaloss import train

            rep = train(cfg, task.train)
            val = evaluate(rep.final_model, task.validation)
            if best is None or val > best[0]:
                best = (val, evaluate(rep.final_model, task.test))
        test_acc[alpha_value] = best[1]
    elapsed = time.time() - start
    ok = (
        0.835 <= test_acc[1.0] <= 0.875
        and 0.855 <= test_acc[2.0] <= 0.895
        and test_acc[2.0] - test_acc[1.0] >= 0.005
        and elapsed < 300.0
    )
    report(
        1,
        "accuracy table on MNIST 1-vs-7",
        ok,
        f"acc(1)={test_acc[1.0]:.4f}, acc(2)={test_acc[2.0]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_02_margin_equivalence():
    failures = []
    for seed in (424242, 20240817):
        rng = np.random.default_rng(seed)
        for _ in range(10_000):
            kind = rng.integers(0, 4)
            if kind == 0:
                alpha = A1
            elif kind == 1:
                alpha = AINF
            elif kind == 2:
                alpha = Alpha(1.0 + 10.0 ** rng.uniform(-6, 2))
            else:
                alpha = Alpha(rng.uniform(1 + 1e-6, 50.0))
            p1 = rng.uniform(1e-6, 1 - 1e-6)
            y = 1 if rng.integers(0, 2) else -1
            p_of_y = p1 if y == 1 else 1.0 - p1
            direct = alpha_loss(alpha, y, p_of_y)
            via_margin = margin_alpha_loss(alpha, y * logit(p1))
            if not abs(direct - via_margin) < 1e-10:
                failures.append((str(alpha), p1, y))
    report(2, "margin equivalence on 2 x 10^4 random triples", not failures, failed(failures))


def test_criterion_03_optimal_classifier_closed_forms():
    failures = []
    worst_arg = 0.0
    worst_val = 0.0
    for alpha_value in (1.0, 1.5, 2.0, 4.0):
        alpha = Alpha(alpha_value)
        for eta in [*ETA_GRID, 0.5]:
            grid_argmin, grid_min = grid_minimize_conditional_risk(alpha_value, eta, step=2.5e-4)
            arg_errs = (abs(grid_argmin - alpha_value * logit(eta)),
                        abs(grid_argmin - optimal_classifier(alpha, eta)))
            val_err = abs(grid_min - min_conditional_risk(alpha, eta))
            worst_arg = max(worst_arg, *arg_errs)
            worst_val = max(worst_val, val_err)
            if not (all(err < 1e-3 for err in arg_errs) and val_err < 1e-6):
                failures.append((str(alpha), eta))
    report(3, "optimal classifier and minimum risk closed forms", not failures,
           f"max argmin err {worst_arg:.2e}, max value err {worst_val:.2e}, {failed(failures)}")


def test_criterion_04_calibration_gap_positive():
    failures = []
    for alpha in (A1, Alpha(1.5), A2, AINF):
        reports = calibration_sweep(alpha, ETA_GRID)
        if [rep.eta for rep in reports] != ETA_GRID:
            failures.append((str(alpha), "reports at", [rep.eta for rep in reports]))
        for rep in reports:
            if not (rep.gap > 1e-9 and rep.calibrated_at_eta):
                failures.append((str(alpha), rep.eta))
    report(4, "calibration gap strictly positive", not failures, failed(failures))


def test_criterion_05_derivative_oracles():
    failures = []
    rng = np.random.default_rng(99)
    cycle = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF]
    h = 1e-6
    for k in range(100):
        alpha = cycle[k % len(cycle)]
        d = int(rng.integers(2, 21))
        n = int(rng.integers(5, 51))
        data, model = random_instance(rng, d, n)
        grad = empirical_gradient(alpha, model, data)
        w = model.weights
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (
                empirical_risk(alpha, LinearModel(w + e), data)
                - empirical_risk(alpha, LinearModel(w - e), data)
            ) / (2 * h)
            if not abs(grad[j] - fd) <= 1e-5 * max(abs(fd), 1e-4):
                failures.append(("gradient", str(alpha), f"instance {k}", f"w[{j}]"))

    rng = np.random.default_rng(41)
    h = 1e-4
    for alpha in (A1, Alpha(1.5), A2, AINF):
        d = int(rng.integers(2, 6))
        data, model = random_instance(rng, d, 1)
        x = data.features[0]
        y = int(data.labels[0])
        w = model.weights
        analytic = margin_alpha_loss_d2(alpha, y * float(w @ x)) * np.outer(x, x)

        def loss_at(delta, alpha=alpha, w=w, x=x, y=y):
            return sample_loss(alpha, LinearModel(w + delta), x, y)

        for i in range(d):
            for j in range(d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                fd = (
                    loss_at(ei + ej) - loss_at(ei - ej) - loss_at(-ei + ej) + loss_at(-ei - ej)
                ) / (4 * h * h)
                if not abs(analytic[i, j] - fd) < 1e-4:
                    failures.append(("hessian", str(alpha), f"entry {i},{j}"))

    rng = np.random.default_rng(42)
    h = 1e-3
    for alpha in (A1, Alpha(1.5), A2, Alpha(10), AINF):
        data, model = random_instance(rng, 4, 1)
        x = data.features[0]
        y = int(data.labels[0])
        w = model.weights
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        # the full tensor contracted three times with v is y * d3 * (x.v)^3
        analytic = y * margin_alpha_loss_d3(alpha, y * float(w @ x)) * float(x @ v) ** 3

        def loss_at(t, alpha=alpha, w=w, x=x, y=y, v=v):
            return sample_loss(alpha, LinearModel(w + t * v), x, y)

        fd = (loss_at(2 * h) - 2 * loss_at(h) + 2 * loss_at(-h) - loss_at(-2 * h)) / (2 * h**3)
        if not abs(analytic - fd) < 1e-4:
            failures.append(("third", str(alpha)))

    report(5, "analytic derivatives match finite differences", not failures, failed(failures))


def test_criterion_06_coefficient_bounds():
    rng = np.random.default_rng(20240818)
    cycle = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF]
    per = 100_000 // len(cycle)
    draws = 0
    failures = []
    for alpha in cycle:
        gs = rng.uniform(0.0, 1.0, size=per)
        ys = rng.choice([-1, 1], size=per)
        for g, y in zip(gs, ys):
            # the coefficients are y * d1, d2 and y * d3 at the margin of belief g
            m = y * logit(g)
            for derivative, bound in ((margin_alpha_loss_d1, 1.0), (margin_alpha_loss_d2, 0.25),
                                      (margin_alpha_loss_d3, 2.0)):
                if not abs(derivative(alpha, m)) <= bound:
                    failures.append((derivative.__name__, str(alpha), float(g), int(y)))
            draws += 1
    report(6, "coefficient bounds 1, 1/4, 2 over 10^5 draws",
           not failures and draws == per * len(cycle), f"{draws} draws, {failed(failures)}")


def test_criterion_07_convexity_structure():
    failures = []
    # the 0.05 step refines grids of step 0.1 and 0.35 on the same range
    for z in np.linspace(-35.0, 35.0, 1401):
        if not margin_alpha_loss_d2(A1, float(z)) >= 0.0:
            failures.append(("log convex", float(z)))

    for alpha in (Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF):
        z0 = second_deriv_sign_change(alpha)
        if not margin_alpha_loss_d2(alpha, z0 - 1.0) < 0.0 < margin_alpha_loss_d2(alpha, z0 + 1.0):
            failures.append(("witness", str(alpha), z0))

    etas = np.arange(0.01, 0.995, 0.01)
    for alpha in (A1, Alpha(1.1), Alpha(1.5), A2, Alpha(4), Alpha(10), AINF):
        vals = np.array([min_conditional_risk(alpha, float(e)) for e in etas])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        # argmax stops at the first nan, which fails the check too
        i = int(np.argmax(second))
        if not second[i] <= 1e-9:
            failures.append(("concave", str(alpha), float(etas[i + 1])))

    report(7, "convexity and concavity structure", not failures, failed(failures))


def test_criterion_08_risk_gap_scaling(landscape_result):
    start = time.time()
    medians = median_gaps(landscape_result.records, A2)
    sizes = sorted(medians)
    values = [medians[n] for n in sizes]
    strictly_decreasing = all(a > b for a, b in zip(values, values[1:]))
    slope = log_log_slope(sizes, values)
    ok = strictly_decreasing and -0.65 <= slope <= -0.35
    report(8, "risk gap decays like a power of n", ok,
           f"medians {[f'{v:.2e}' for v in values]}, slope {slope:.3f}, "
           f"{time.time() - start:.0f}s after shared experiment")


def test_criterion_09_hoeffding_bound_validity():
    n = 5000
    delta = 0.05
    eps = hoeffding_epsilon(A2, n, 1, delta)
    spec = SymmetricDataSpec(
        dim=5, radius=1.0, mean_norm=0.8, noise_scale=0.14, seed=777
    )
    theta = np.array([0.6, 0.1, -0.1, 0.05, 0.0])
    model = LinearModel(theta)
    from dataclasses import replace

    holdout = generate_symmetric_dataset(replace(spec, seed=1_000_001), 200_000)
    true_risk = empirical_risk(A2, model, holdout)
    violations = 0
    for k in range(1000):
        sample = generate_symmetric_dataset(replace(spec, seed=2_000_000 + k), n)
        if abs(empirical_risk(A2, model, sample) - true_risk) > eps:
            violations += 1
    fraction = violations / 1000.0
    ok = fraction <= delta / 2 + 0.02
    report(9, "frozen-model risk deviations respect the concentration width", ok,
           f"violations {fraction:.3f} vs allowance {delta / 2 + 0.02:.3f}, eps {eps:.4f}")


def test_criterion_10_zero_one_risk_trend(landscape_result):
    by_n = {}
    for rec in landscape_result.records:
        by_n.setdefault(rec.n, []).append(rec.zero_one_risk)
    sizes = sorted(by_n)
    ok = True
    detail = []
    for small, large in zip(sizes, sizes[1:]):
        mean_small = float(np.mean(by_n[small]))
        mean_large = float(np.mean(by_n[large]))
        se_small = float(np.std(by_n[small], ddof=1)) / math.sqrt(len(by_n[small]))
        detail.append(f"n={small}: {mean_small:.4f}")
        if mean_large > mean_small + se_small:
            ok = False
    detail.append(f"n={sizes[-1]}: {float(np.mean(by_n[sizes[-1]])):.4f}")
    report(10, "0-1 holdout risk non-increasing in n", ok, ", ".join(detail))


def test_criterion_11_split_exactness(synthetic_full_corpus):
    directory = find_real_mnist()
    if directory is not None:
        corpus = load_mnist_dir(directory)
        source = "official MNIST"
    else:
        corpus = synthetic_full_corpus
        source = "synthetic corpus with official per-class counts"
    split = build_binary_task(*corpus, seed=0)
    sizes_ok = (split.train.n, split.validation.n, split.test.n) == (11_500, 1_000, 2_050)
    balance_ok = all(
        abs(int(np.sum(part.labels == 1)) - int(np.sum(part.labels == -1))) <= 1
        for part in (split.train, split.validation, split.test)
    )
    report(11, "split sizes 11500/1000/2050 with class balance", sizes_ok and balance_ok,
           source)
