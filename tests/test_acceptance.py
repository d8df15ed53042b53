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
    risk_gap_experiment,
    sample_loss,
    second_deriv_sign_change,
)
from alphaloss.losses import margin_alpha_loss
from alphaloss.logreg import LabeledDataset, row_norms
from conftest import A1, A2, AINF, ETA_GRID, find_real_mnist, grid_minimize_conditional_risk


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


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
    rng = np.random.default_rng(424242)
    failures = 0
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
        if abs(direct - via_margin) >= 1e-10:
            failures += 1
    report(2, "margin equivalence on 10^4 random triples", failures == 0,
           f"{failures} failures")


def test_criterion_03_optimal_classifier_closed_forms():
    worst_arg = 0.0
    worst_val = 0.0
    for alpha_value in (1.0, 1.5, 2.0, 4.0):
        alpha = Alpha(alpha_value)
        for eta in ETA_GRID:
            grid_argmin, grid_min = grid_minimize_conditional_risk(alpha_value, eta, step=2.5e-4)
            closed_argmin = alpha_value * logit(eta)
            closed_min = min_conditional_risk(alpha, eta)
            worst_arg = max(worst_arg, abs(grid_argmin - closed_argmin))
            worst_val = max(worst_val, abs(grid_min - closed_min))
    ok = worst_arg < 1e-3 and worst_val < 1e-6
    report(3, "optimal classifier and minimum risk closed forms", ok,
           f"max argmin err {worst_arg:.2e}, max value err {worst_val:.2e}")


def test_criterion_04_calibration_gap_positive():
    failures = []
    for alpha in (A1, Alpha(1.5), A2, AINF):
        for rep in calibration_sweep(alpha, ETA_GRID):
            if not (rep.gap > 1e-9 and rep.calibrated_at_eta):
                failures.append((str(alpha), rep.eta))
    report(4, "calibration gap strictly positive", not failures, f"{len(failures)} failures")


def test_criterion_05_derivative_oracles():
    rng = np.random.default_rng(99)
    cycle = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF]
    h = 1e-6
    grad_ok = True
    for k in range(100):
        alpha = cycle[k % len(cycle)]
        d = int(rng.integers(2, 21))
        n = int(rng.integers(5, 51))
        x = rng.normal(size=(n, d))
        x *= 1.0 / max(row_norms(x).max(), 1e-12) * rng.uniform(0.5, 1.0)
        data = LabeledDataset(x, rng.choice([-1, 1], size=n))
        w = rng.normal(size=d) * 0.4
        model = LinearModel(w)
        grad = empirical_gradient(alpha, model, data)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (
                empirical_risk(alpha, LinearModel(w + e), data)
                - empirical_risk(alpha, LinearModel(w - e), data)
            ) / (2 * h)
            if abs(grad[j] - fd) > 1e-5 * max(abs(fd), 1e-4):
                grad_ok = False

    hess_ok = True
    h2 = 1e-4
    for alpha in (A1, Alpha(1.5), A2, AINF):
        d = 4
        x = rng.normal(size=d)
        x /= np.linalg.norm(x) * rng.uniform(1.0, 2.0)
        y = int(rng.choice([-1, 1]))
        w = rng.normal(size=d) * 0.4
        analytic = margin_alpha_loss_d2(alpha, y * float(w @ x)) * np.outer(x, x)

        def loss_at(delta, alpha=alpha, w=w, x=x, y=y):
            return sample_loss(alpha, LinearModel(w + delta), x, y)

        for i in range(d):
            for j in range(d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h2
                ej[j] = h2
                fd = (
                    loss_at(ei + ej) - loss_at(ei - ej) - loss_at(-ei + ej) + loss_at(-ei - ej)
                ) / (4 * h2 * h2)
                if abs(analytic[i, j] - fd) > 1e-4:
                    hess_ok = False

    third_ok = True
    h3 = 1e-3
    for alpha in (A1, Alpha(1.5), A2, Alpha(10), AINF):
        d = 4
        x = rng.normal(size=d)
        x /= np.linalg.norm(x) * rng.uniform(1.0, 2.0)
        y = int(rng.choice([-1, 1]))
        w = rng.normal(size=d) * 0.4
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        analytic = y * margin_alpha_loss_d3(alpha, y * float(w @ x)) * float(x @ v) ** 3

        def loss_at(t, alpha=alpha, w=w, x=x, y=y, v=v):
            return sample_loss(alpha, LinearModel(w + t * v), x, y)

        fd = (loss_at(2 * h3) - 2 * loss_at(h3) + 2 * loss_at(-h3) - loss_at(-2 * h3)) / (
            2 * h3**3
        )
        if abs(analytic - fd) > 1e-4:
            third_ok = False

    ok = grad_ok and hess_ok and third_ok
    report(5, "analytic derivatives match finite differences", ok,
           f"gradient {grad_ok}, hessian {hess_ok}, third {third_ok}")


def test_criterion_06_coefficient_bounds():
    rng = np.random.default_rng(20240818)
    cycle = [A1, Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF]
    per = 100_000 // len(cycle)
    violations = 0
    for alpha in cycle:
        gs = rng.uniform(0.0, 1.0, size=per)
        ys = rng.choice([-1, 1], size=per)
        for g, y in zip(gs, ys):
            # the coefficients are y * d1, d2 and y * d3 at the margin of belief g
            m = y * logit(g)
            if abs(margin_alpha_loss_d1(alpha, m)) > 1.0:
                violations += 1
            if abs(margin_alpha_loss_d2(alpha, m)) > 0.25:
                violations += 1
            if abs(margin_alpha_loss_d3(alpha, m)) > 2.0:
                violations += 1
    report(6, "coefficient bounds 1, 1/4, 2 over 10^5 draws", violations == 0,
           f"{violations} violations")


def test_criterion_07_convexity_structure():
    zs = np.linspace(-35.0, 35.0, 701)
    log_convex = all(margin_alpha_loss_d2(A1, float(z)) >= 0.0 for z in zs)

    witnesses = True
    for alpha in (Alpha(1.01), Alpha(1.5), A2, Alpha(10), AINF):
        z0 = second_deriv_sign_change(alpha)
        if not margin_alpha_loss_d2(alpha, z0 - 1.0) < 0.0:
            witnesses = False

    etas = np.arange(0.01, 0.995, 0.01)
    concave = True
    for alpha in (A1, Alpha(1.5), A2, Alpha(4), AINF):
        vals = np.array([min_conditional_risk(alpha, float(e)) for e in etas])
        if np.max(vals[:-2] - 2 * vals[1:-1] + vals[2:]) > 1e-9:
            concave = False

    ok = log_convex and witnesses and concave
    report(7, "convexity and concavity structure", ok,
           f"log convex {log_convex}, witnesses {witnesses}, concave {concave}")


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
