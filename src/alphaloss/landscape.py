"""Empirical risk-landscape experiments.

A synthetic data law with bounded support, symmetric class conditionals, and
a nonzero class mean (the regularity regime where empirical and true risk
landscapes agree critical point by critical point), the explicit
concentration width for the risk gap, the strongly-Morse gradient floor, and
the scaling experiment that measures |true risk - empirical risk| at the KKT
points of the empirical risk on the ball across sample sizes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

# empirical_risk and evaluate are unused here but stay bound because
# perfbench/child.py wraps landscape's bindings by name.
from .logreg import (
    MAX_SAMPLE_FLOATS,
    LabeledDataset,
    TrainConfig,
    TrainingDiverged,
    _check_hessian_size,
    _check_seed,
    empirical_risk,
    evaluate,
    risk_and_accuracy,
    row_norms,
    solve_on_ball,
    train,
)
from .losses import Alpha, sigmoid

_REJECTION_ROUNDS = 1000
# Candidates drawn per rejection block, counted in floats so that a wide dim
# keeps the block buffer at 512 KB (one row, where a row is wider).
_DRAW_BLOCK_FLOATS = 2**16
_HOLDOUT_TAG = 0x484F4C44  # distinguishes the holdout seed stream from trials
# Unconstrained gradient-descent epochs that start each model before
# solve_on_ball takes it to its KKT point.  From one epoch the solve also
# certifies every landscape-grid model, in 3 or 4 steps, but stops at
# residuals up to 1e-12; from ten, 2 steps reach residuals below 3e-16.
WARM_START_EPOCHS = 10


class GenerationFailed(RuntimeError):
    """Raised when rejection sampling cannot place points inside the ball."""


@dataclass(frozen=True)
class SymmetricDataSpec:
    """Law of the synthetic task: X | y=+1 is an isotropic Gaussian bump at
    mean_norm * e_1 truncated to the radius ball, and X | y=-1 is the negation
    of an independent draw from the +1 law.

    The law is rotation invariant apart from its mean, so fixing the mean on
    the first axis loses no generality: a rotation carries any other direction
    there and leaves every risk unchanged.
    """

    dim: int
    radius: float
    mean_norm: float
    noise_scale: float
    seed: int

    def __post_init__(self):
        if operator.index(self.dim) < 1:
            raise ValueError("dim must be at least 1")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.mean_norm < math.inf:
            raise ValueError("mean_norm must be finite and positive (a nonzero class mean)")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and nonnegative")
        _check_seed(self.seed)

    @classmethod
    def along_first_axis(cls, dim, radius, mean_norm, noise_scale, seed) -> "SymmetricDataSpec":
        return cls(dim, radius, mean_norm, noise_scale, seed)


@dataclass(frozen=True)
class AssumptionReport:
    """Sample estimates of the quantities in the mean-dominance condition.

    The landscape guarantees need 1 - sigmoid(-r^2)^2 < ||E X+|| / E ||X+||:
    the positive-class mean must dominate the spread enough that the true-risk
    gradient never vanishes inside the ball.
    """

    positive_mean_norm: float
    positive_mean_abs_norm: float
    sigma_sq_term: float

    @property
    def ratio(self) -> float:
        return self.positive_mean_norm / self.positive_mean_abs_norm

    @property
    def inequality_holds(self) -> bool:
        return 1.0 - self.sigma_sq_term < self.ratio


@dataclass(frozen=True)
class RiskGapRecord:
    alpha: Alpha
    n: int
    trial: int
    true_risk_estimate: float
    empirical_risk: float
    zero_one_risk: float

    @property
    def gap(self) -> float:
        return abs(self.true_risk_estimate - self.empirical_risk)

    @property
    def hoeffding_term(self) -> float | None:
        return None if self.alpha.is_log else hoeffding_epsilon(self.alpha, self.n, 1, 0.05)


@dataclass(frozen=True)
class RiskGapResult:
    """The records, and the (alpha, n, trial) of each training that diverged
    and of each solve that certified no KKT point."""

    records: list[RiskGapRecord]
    diverged: list[tuple[float, int, int]]
    unconverged: list[tuple[float, int, int]]


def _derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _alpha_bits(alpha: Alpha) -> int:
    return int(np.float64(alpha.value).view(np.uint64))


# a finite law can still overflow to an infinite candidate, which only an
# infinite radius admits and LabeledDataset then refuses
@np.errstate(over="ignore")
def _draw_positive_class(rng: np.random.Generator, spec: SymmetricDataSpec, out: np.ndarray) -> None:
    """Rejection-sample one point of the +1 class law, inside the ball, into each row of ``out``.

    Each round draws a candidate for every pending row, in row order, and the
    rows it rejects are drawn again in the next round, in the same order.  The
    candidates are drawn in blocks of ``_DRAW_BLOCK_FLOATS`` into one reused
    buffer, so the draw holds no sample-sized temporary; the normals come off
    the stream in the same order as one draw per round would take them.
    """
    count, dim = out.shape
    center = np.zeros(dim)
    center[0] = spec.mean_norm
    block = np.empty((max(1, _DRAW_BLOCK_FLOATS // dim), dim))
    pending = np.arange(count)
    for _ in range(_REJECTION_ROUNDS):
        if pending.size == 0:
            return
        rejected = []
        for start in range(0, pending.size, block.shape[0]):
            rows = pending[start : start + block.shape[0]]
            candidates = block[: rows.size]
            rng.standard_normal(out=candidates)
            candidates *= spec.noise_scale
            candidates += center
            inside = row_norms(candidates) <= spec.radius
            out[rows[inside]] = candidates[inside]
            rejected.append(rows[~inside])
        pending = np.concatenate(rejected)
    raise GenerationFailed(
        f"{pending.size} of {count} points rejected {_REJECTION_ROUNDS} times "
        f"(mean_norm={spec.mean_norm}, noise_scale={spec.noise_scale}, radius={spec.radius})"
    )


def _check_sample_size(n: int, dim: int, what: str) -> None:
    if operator.index(n) < 2:
        raise ValueError(f"{what} must be at least 2")
    if n * dim > MAX_SAMPLE_FLOATS:
        raise ValueError(
            f"{what} {n} x dim {dim} is {n * dim} floats, above the {MAX_SAMPLE_FLOATS} allowed"
        )


def generate_symmetric_dataset(spec: SymmetricDataSpec, n: int) -> LabeledDataset:
    """Draw n labeled samples, near-balanced, supported exactly inside the ball.

    At most ``MAX_SAMPLE_FLOATS`` features (n x dim) are drawn.  The first
    n - n // 2 rows are the +1 class and the rest the -1 class, each drawn in
    place.  The features are column-major: with n much larger than dim,
    ``x @ w`` and ``x.T @ c`` then read dim contiguous columns instead of n
    short rows.
    """
    _check_sample_size(n, spec.dim, "n")
    rng = np.random.default_rng(spec.seed)
    n_pos = n - n // 2
    features = np.empty((n, spec.dim), order="F")
    negatives = features[n_pos:]
    _draw_positive_class(rng, spec, features[:n_pos])
    _draw_positive_class(rng, spec, negatives)
    np.negative(negatives, out=negatives)
    labels = np.repeat([1.0, -1.0], [n_pos, n // 2])
    return LabeledDataset(features=features, labels=labels)


def check_assumptions(data: LabeledDataset, r: float) -> AssumptionReport:
    """Test 1 - sigmoid(-r^2)^2 < ||E X+|| / E ||X+|| on the sample's positive class."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    positives = data.features[data.labels == 1]
    if positives.shape[0] == 0 or positives.shape[0] == data.n:
        raise ValueError("both labels must be present")
    return AssumptionReport(
        positive_mean_norm=float(np.linalg.norm(positives.mean(axis=0))),
        positive_mean_abs_norm=float(np.mean(row_norms(positives))),
        sigma_sq_term=sigmoid(-r * r) ** 2,
    )


def hoeffding_epsilon(alpha: Alpha, n: int, m: int, delta: float) -> float:
    """Concentration width (alpha/(alpha-1)) * sqrt(log(4m/delta) / (2n)).

    This is the deviation of the empirical from the true risk that m union-
    bounded bounded-loss evaluations exceed with probability at most delta/2.
    Log-loss is rejected: its loss is unbounded, so the width is undefined.
    """
    if alpha.is_log:
        raise ValueError(
            "the width alpha/(alpha-1) diverges at alpha = 1 (log-loss is unbounded); "
            "no concentration term is defined there"
        )
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return alpha.scale * math.sqrt(math.log(4.0 * m / delta) / (2.0 * n))


def morse_epsilon(r: float, mean_abs_norm: float) -> float:
    """Gradient-norm floor sigmoid(-r^2)^2 * E||X+|| of the strongly-Morse condition."""
    if not (r > 0.0 and mean_abs_norm > 0.0):
        raise ValueError("r and mean_abs_norm must be positive")
    return sigmoid(-r * r) ** 2 * mean_abs_norm


def risk_gap_experiment(
    spec: SymmetricDataSpec,
    alphas,
    sample_sizes,
    trials: int,
    holdout_n: int,
    learning_rate: float,
    epochs: int,
) -> RiskGapResult:
    """Measure |true risk - empirical risk| at the KKT points of the empirical risk.

    For each (alpha, n, trial) a fresh training set is drawn.  Its model
    starts with min(``epochs``, ``WARM_START_EPOCHS``) unconstrained
    gradient-descent epochs at ``learning_rate``, and :func:`solve_on_ball`
    then scales it onto the ball of the law's radius if it lies outside and
    takes it to a KKT point of that ball in the epochs left, one step each.
    The true risk and the 0-1 risk are estimated on one large fresh holdout.
    Records follow ``alphas`` in the given order, then n increasing, then
    trial; the trial seeds derive from the spec seed, alpha, n and trial, so
    no record depends on that order.  Diverged trainings are excluded and counted; a
    solve that certifies no KKT point keeps its record, at its iterate of
    least residual, and is named in ``unconverged``.  Every argument is
    checked before any draw.
    """
    if operator.index(trials) < 1:
        raise ValueError("trials must be positive")
    _check_sample_size(holdout_n, spec.dim, "holdout_n")
    for n in sample_sizes:
        _check_sample_size(n, spec.dim, "n")
    _check_hessian_size(spec.dim)
    configs = [TrainConfig(alpha, learning_rate, epochs, 0) for alpha in alphas]
    warm = min(epochs, WARM_START_EPOCHS)
    holdout = generate_symmetric_dataset(
        replace(spec, seed=_derive_seed(spec.seed, _HOLDOUT_TAG)), holdout_n
    )
    records: list[RiskGapRecord] = []
    diverged: list[tuple[float, int, int]] = []
    unconverged: list[tuple[float, int, int]] = []
    for config in configs:
        alpha = config.alpha
        for n in sorted(sample_sizes):
            for trial in range(trials):
                data_seed = _derive_seed(spec.seed, _alpha_bits(alpha), n, trial, 0)
                init_seed = _derive_seed(spec.seed, _alpha_bits(alpha), n, trial, 1)
                dataset = generate_symmetric_dataset(replace(spec, seed=data_seed), n)
                try:
                    report = train(replace(config, seed=init_seed, epochs=warm), dataset)
                except TrainingDiverged:
                    diverged.append((alpha.value, n, trial))
                    continue
                solution = solve_on_ball(
                    alpha, report.final_model, dataset, spec.radius, epochs - warm
                )
                if not solution.converged:
                    unconverged.append((alpha.value, n, trial))
                true_risk, accuracy = risk_and_accuracy(alpha, solution.model, holdout)
                records.append(
                    RiskGapRecord(
                        alpha=alpha,
                        n=n,
                        trial=trial,
                        true_risk_estimate=true_risk,
                        empirical_risk=solution.risk,
                        zero_one_risk=1.0 - accuracy,
                    )
                )
    return RiskGapResult(records=records, diverged=diverged, unconverged=unconverged)


def median_gaps(records, alpha: Alpha) -> dict[int, float]:
    """Median gap per sample size for one alpha, keyed by n.

    The middle sorted gap, or the mean of the middle two: the bits of
    np.median and statistics.median, without the numpy.ma import of
    np.median's first call or the decimal and fractions imports of statistics.
    """
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.alpha.value == alpha.value:
            by_n.setdefault(rec.n, []).append(rec.gap)
    medians = {}
    for n, gaps in sorted(by_n.items()):
        gaps.sort()
        mid = len(gaps) // 2
        medians[n] = float(gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2)
    return medians


def log_log_slope(sizes, values) -> float:
    """Least-squares slope of log(values) on log(sizes), in closed form with fsum; all positive."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.size < 2 or sizes.shape != values.shape:
        raise ValueError("need at least two (size, value) points to fit a slope")
    if not (np.all(sizes > 0) and np.all(values > 0)):
        raise ValueError("sizes and values must be positive to take their logarithms")
    x, y = np.log(sizes), np.log(values)
    dx, dy = x - math.fsum(x) / x.size, y - math.fsum(y) / y.size
    spread = math.fsum(dx * dx)
    if spread == 0.0:
        raise ValueError("sizes must not all be equal: the slope is undefined")
    return math.fsum(dx * dy) / spread
