"""The three benchmark workloads: CLI arguments, work units and output checks.

Each workload drives one of the paper's computations through the real CLI.
Inputs derive from the workload seed alone; the CLI receives only the
generated corpus and flags.  Every output is checked against the paper's
closed forms or an independent reference, never against the program's own
numbers.
"""

from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

from corpus import write_corpus

SWEEP = {"alphas": "1,1.1,1.2,1.5,2", "lr_grid": "1.0,1.3,1.9,2.0", "epochs": 5}
LANDSCAPE = {"alphas": "1,2,inf", "ns": "100,1000,10000", "trials": 4, "dim": 5,
             "holdout_n": 100000, "epochs": 300}
CALIBRATION_ALPHAS = ["1", "1.2", "1.5", "2", "5", "inf"]
# Every other posterior of scripts/calibration_curves.py (odd hundredths), so
# that a run holds enough children for a steady median.
CALIBRATION_ETAS = [f"{k / 100:.2f}" for k in range(1, 100, 2)]

# Accuracy on 1,000 validation / 2,050 test rows may differ from the reference
# by two rows: the reference sums in another order, which can flip a sample
# whose score is within rounding of zero.
SWEEP_ACC_TOL = 0.002
# The calibration grid (step 1e-3) is refined by golden section to 1e-10 in
# f, so the unconstrained minimum is far closer to the closed form than this.
CALIBRATION_MIN_TOL = 1e-9
CLOSED_FORM_RTOL = 1e-12
HOEFFDING_DELTA = 0.05


def _alpha(token: str) -> float:
    return math.inf if token.strip().lower() in ("inf", "infinity") else float(token)


def _floats(text: str) -> list[float]:
    return [_alpha(tok) for tok in text.split(",")]


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, f"{self.name}.csv")
        self.info: dict = {}

    def prepare(self) -> None:
        """Build inputs and references; runs before anything is timed."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        return [self.out, self.out + ".manifest.json"]

    def work_units(self) -> int:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the CLI's output; empty when it is correct."""
        raise NotImplementedError

    def check_spans(self, layers: dict) -> list[str]:
        """Span counts that disagree with the workload's structure."""
        raise NotImplementedError


class SweepMnist(Workload):
    name = "sweep-mnist"

    def prepare(self) -> None:
        from alphaloss.mnist import build_binary_task, load_mnist_dir

        self.mnist_dir = os.path.join(self.workdir, "mnist")
        os.mkdir(self.mnist_dir)
        self.info["corpus_sha256"] = write_corpus(self.mnist_dir, self.seed)
        self.alphas = _floats(SWEEP["alphas"])
        self.lrs = _floats(SWEEP["lr_grid"])
        task = build_binary_task(*load_mnist_dir(self.mnist_dir), self.seed)
        self.rows = task.train.n
        val, test = _sweep_reference(task, self.alphas, self.lrs, SWEEP["epochs"], self.seed)
        self.reference = {"val_acc": val.tolist(), "test_acc": test.tolist()}
        self.info["reference"] = self.reference

    def argv(self) -> list[str]:
        return ["sweep", "--alphas", SWEEP["alphas"], "--lr-grid", SWEEP["lr_grid"],
                "--epochs", str(SWEEP["epochs"]), "--seed", str(self.seed),
                "--mnist-dir", self.mnist_dir, "--out", self.out]

    def work_units(self) -> int:
        return len(self.alphas) * len(self.lrs) * self.rows * SWEEP["epochs"]

    def check(self) -> list[str]:
        header, rows = _read_csv(self.out)
        if header != ["alpha", "best_lr", "val_acc", "test_acc"] or len(rows) != len(self.alphas):
            return [f"sweep: unexpected table shape {header} x {len(rows)}"]
        problems = []
        k = len(self.lrs)
        for i, (row, alpha) in enumerate(zip(rows, self.alphas)):
            a, lr, val, test = (float(v) for v in row)
            if a != alpha or lr not in self.lrs:
                problems.append(f"sweep: row {i} has alpha={a}, best_lr={lr} outside the grid")
                continue
            j = i * k + self.lrs.index(lr)
            ref_val = self.reference["val_acc"]
            if abs(val - ref_val[j]) > SWEEP_ACC_TOL or val < max(ref_val[i * k:(i + 1) * k]) - SWEEP_ACC_TOL:
                problems.append(f"sweep: alpha={a} val_acc={val} vs reference {ref_val[i * k:(i + 1) * k]}")
            if abs(test - self.reference["test_acc"][j]) > SWEEP_ACC_TOL:
                problems.append(f"sweep: alpha={a} test_acc={test} vs reference {self.reference['test_acc'][j]}")
        return problems

    def check_spans(self, layers: dict) -> list[str]:
        problems = []
        models = len(self.alphas) * len(self.lrs)
        if layers["logreg.train_calls"] != models:
            problems.append(f"train calls {layers['logreg.train_calls']} != |alpha|*|lr| = {models}")
        if layers["logreg.sample_epochs"] != self.work_units():
            problems.append(f"sample-epochs {layers['logreg.sample_epochs']} != {self.work_units()}")
        return problems


def _sweep_reference(task, alphas, lrs, epochs: int, seed: int):
    """Validation and test accuracy of every (alpha, lr), alpha-major.

    All models train at once from the CLI's seeded start, by full-batch
    gradient descent on the paper's margin derivative
    l'(z) = -sigmoid(z)^(1-1/alpha) * sigmoid(-z).
    """
    x, y = task.train.features, task.train.labels.astype(float)[:, None]
    exponent = np.array([[1.0 if math.isinf(a) else 1.0 - 1.0 / a for a in alphas for _ in lrs]])
    rate = np.array([[lr for _ in alphas for lr in lrs]])
    w0 = np.random.default_rng(seed).uniform(-0.01, 0.01, size=x.shape[1])
    w = np.repeat(w0[:, None], rate.size, axis=1)
    for _ in range(epochs):
        z = y * (x @ w)
        derivative = -np.exp(-exponent * np.logaddexp(0.0, -z) - np.logaddexp(0.0, z))
        w = w - rate * ((x.T @ (y * derivative)) / x.shape[0])

    def accuracy(data):
        predictions = np.where(data.features @ w >= 0.0, 1, -1)
        return np.mean(predictions == data.labels[:, None], axis=0)

    return accuracy(task.validation), accuracy(task.test)


class LandscapeGrid(Workload):
    name = "landscape-grid"

    def prepare(self) -> None:
        self.alphas = _floats(LANDSCAPE["alphas"])
        self.ns = [int(n) for n in LANDSCAPE["ns"].split(",")]
        self.diverged = 0
        self.trained_rows = len(self.alphas) * LANDSCAPE["trials"] * sum(self.ns)

    def argv(self) -> list[str]:
        return ["landscape", "--alphas", LANDSCAPE["alphas"], "--ns", LANDSCAPE["ns"],
                "--trials", str(LANDSCAPE["trials"]), "--dim", str(LANDSCAPE["dim"]),
                "--holdout-n", str(LANDSCAPE["holdout_n"]), "--epochs", str(LANDSCAPE["epochs"]),
                "--seed", str(self.seed), "--out", self.out]

    def outputs(self) -> list[str]:
        summary = self.out[: -len(".csv")] + "_summary.csv"
        return [self.out, summary, self.out + ".manifest.json"]

    def work_units(self) -> int:
        return self.trained_rows * LANDSCAPE["epochs"]

    def check(self) -> list[str]:
        header, rows = _read_csv(self.out)
        if header != ["alpha", "n", "trial", "gap", "hoeffding_eps", "zero_one_test_risk"]:
            return [f"landscape: unexpected header {header}"]
        s_header, s_rows = _read_csv(self.outputs()[1])
        if s_header != ["alpha", "n", "median_gap", "loglog_slope", "diverged"]:
            return [f"landscape: unexpected summary header {s_header}"]
        problems = []
        diverged = {_alpha(r[0]): int(r[4]) for r in s_rows}
        self.diverged = sum(diverged.get(a, 0) for a in self.alphas)
        expected = len(self.alphas) * len(self.ns) * LANDSCAPE["trials"] - self.diverged
        if len(rows) != expected:
            problems.append(f"landscape: {len(rows)} trial rows, expected {expected}")
        gaps: dict[tuple[float, int], list[float]] = {}
        seen = set()
        for row in rows:
            a, n, trial, gap = _alpha(row[0]), int(row[1]), int(row[2]), float(row[3])
            key = (a, n, trial)
            if a not in self.alphas or n not in self.ns or not 0 <= trial < LANDSCAPE["trials"] or key in seen:
                problems.append(f"landscape: unexpected or repeated trial {key}")
            seen.add(key)
            if not (math.isfinite(gap) and gap >= 0.0):
                problems.append(f"landscape: gap {gap} at {key} is not finite and nonnegative")
            if not 0.0 <= float(row[5]) <= 1.0:
                problems.append(f"landscape: 0-1 risk {row[5]} at {key} outside [0, 1]")
            if a == 1.0:
                if row[4] != "":
                    problems.append(f"landscape: hoeffding_eps {row[4]!r} at alpha=1, expected empty")
            else:
                scale = 1.0 if math.isinf(a) else a / (a - 1.0)
                eps = scale * math.sqrt(math.log(4.0 / HOEFFDING_DELTA) / (2.0 * n))
                if row[4] == "" or not _close(float(row[4]), eps, CLOSED_FORM_RTOL):
                    problems.append(f"landscape: hoeffding_eps {row[4]!r} at {key}, expected {eps!r}")
            gaps.setdefault((a, n), []).append(gap)
        self.trained_rows = sum(n * len(g) for (_, n), g in gaps.items())
        for row in s_rows:
            key = (_alpha(row[0]), int(row[1]))
            if key not in gaps or float(row[2]) != float(np.median(gaps[key])):
                problems.append(f"landscape: summary median_gap {row[2]} at {key} disagrees with the trials")
        return problems

    def check_spans(self, layers: dict) -> list[str]:
        problems = []
        models = len(self.alphas) * len(self.ns) * LANDSCAPE["trials"]
        if layers["logreg.train_calls"] != models:
            problems.append(f"train calls {layers['logreg.train_calls']} != |alpha|*|n|*trials = {models}")
        if layers["landscape.generate_calls"] != models + 1:
            problems.append(f"generate calls {layers['landscape.generate_calls']} != trials + holdout = {models + 1}")
        if layers["landscape.diverged"] != self.diverged:
            problems.append(f"diverged spans {layers['landscape.diverged']} != summary {self.diverged}")
        return problems


class CalibrationDense(Workload):
    name = "calibration-dense"

    def prepare(self) -> None:
        # The seed only orders the grid: the work is the same for every seed.
        order = random.Random(self.seed)
        self.alphas = order.sample(CALIBRATION_ALPHAS, len(CALIBRATION_ALPHAS))
        self.etas = order.sample(CALIBRATION_ETAS, len(CALIBRATION_ETAS))

    def argv(self) -> list[str]:
        return ["calibration", "--alphas", ",".join(self.alphas),
                "--eta-grid", ",".join(self.etas), "--out", self.out]

    def work_units(self) -> int:
        return len(self.alphas) * len(self.etas)

    def check(self) -> list[str]:
        from alphaloss.calibration import CALIBRATION_TOL

        header, rows = _read_csv(self.out)
        if header[:5] != ["alpha", "eta", "unconstrained_min", "constrained_min", "gap"] or len(header) != 8:
            return [f"calibration: unexpected header {header}"]
        expected = [(_alpha(a), float(e)) for a in self.alphas for e in self.etas]
        got = [(_alpha(r[0]), float(r[1])) for r in rows]
        if got != expected:
            return [f"calibration: {len(got)} (alpha, eta) rows do not match the {len(expected)} requested"]
        problems = []
        for (a, eta), row in zip(got, rows):
            unconstrained, gap = float(row[2]), float(row[4])
            oracle = _min_conditional_risk(a, eta)
            if not gap > CALIBRATION_TOL:
                problems.append(f"calibration: gap {gap} <= {CALIBRATION_TOL} at alpha={a}, eta={eta}")
            if not _close(float(row[7]), oracle, CLOSED_FORM_RTOL):
                problems.append(f"calibration: closed form {row[7]} != {oracle!r} at alpha={a}, eta={eta}")
            if not _close(unconstrained, oracle, CALIBRATION_MIN_TOL):
                problems.append(f"calibration: minimum {unconstrained} != {oracle!r} at alpha={a}, eta={eta}")
            if not _close(float(row[6]), _optimal_classifier(a, eta), CLOSED_FORM_RTOL):
                problems.append(f"calibration: argmin {row[6]} at alpha={a}, eta={eta}")
        return problems

    def check_spans(self, layers: dict) -> list[str]:
        checks = self.work_units()
        problems = []
        if layers["calibration.check_calls"] != checks:
            problems.append(f"calibration checks {layers['calibration.check_calls']} != {checks}")
        if layers["calibration.grid_evals"] != 2 * checks:
            problems.append(f"margin_losses calls {layers['calibration.grid_evals']} != 2 x checks = {2 * checks}")
        return problems


def _min_conditional_risk(alpha: float, eta: float) -> float:
    """The paper's minimum conditional risk: entropy, power mean, or min(eta, 1-eta)."""
    if alpha == 1.0:
        return -(eta * math.log(eta) + (1.0 - eta) * math.log1p(-eta))
    if math.isinf(alpha):
        return min(eta, 1.0 - eta)
    return alpha / (alpha - 1.0) * (1.0 - (eta**alpha + (1.0 - eta) ** alpha) ** (1.0 / alpha))


def _optimal_classifier(alpha: float, eta: float) -> float:
    if math.isinf(alpha):
        return math.copysign(math.inf, eta - 0.5)
    return alpha * math.log(eta / (1.0 - eta))


WORKLOADS = {cls.name: cls for cls in (SweepMnist, LandscapeGrid, CalibrationDense)}
