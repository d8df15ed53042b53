"""Empirical risk-landscape experiments.

A synthetic data law with bounded support, symmetric class conditionals, and
a nonzero class mean (the regularity regime where empirical and true risk
landscapes agree critical point by critical point), the explicit
concentration width for the risk gap, the strongly-Morse gradient floor, and
the scaling experiment that measures |true risk - empirical risk| at trained
local minimizers across sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .logreg import (
    LabeledDataset,
    TrainConfig,
    TrainingDiverged,
    check_schedule,
    empirical_risk,
    evaluate,
    row_norms,
    train,
)
from .losses import Alpha, sigmoid

_REJECTION_ROUNDS = 1000
# Largest sample, counted as n x dim floats (800 MB), that generation will allocate.
MAX_SAMPLE_FLOATS = 10**8
_HOLDOUT_TAG = 0x484F4C44  # distinguishes the holdout seed stream from trials


class GenerationFailed(RuntimeError):
    """Raised when rejection sampling cannot place points inside the ball."""


@dataclass(frozen=True)
class SymmetricDataSpec:
    """Law of the synthetic task: X | y=+1 is an isotropic Gaussian bump at
    mean_norm * mean_direction truncated to the radius ball, and X | y=-1 is
    the negation of an independent draw from the +1 law."""

    dim: int
    radius: float
    mean_direction: np.ndarray
    mean_norm: float
    noise_scale: float
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        mu = np.asarray(self.mean_direction, dtype=float)
        if mu.shape != (self.dim,):
            raise ValueError(f"mean_direction must have shape ({self.dim},)")
        if abs(float(np.linalg.norm(mu)) - 1.0) > 1e-9:
            raise ValueError("mean_direction must be a unit vector")
        if not 0.0 < self.mean_norm < math.inf:
            raise ValueError("mean_norm must be finite and positive (a nonzero class mean)")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and nonnegative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        object.__setattr__(self, "mean_direction", mu)

    @classmethod
    def along_first_axis(cls, dim, radius, mean_norm, noise_scale, seed) -> "SymmetricDataSpec":
        mu = np.zeros(dim)
        mu[0] = 1.0
        return cls(dim, radius, mu, mean_norm, noise_scale, seed)


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
    ratio: float
    inequality_holds: bool


@dataclass(frozen=True)
class RiskGapRecord:
    alpha: Alpha
    n: int
    trial: int
    gap: float
    hoeffding_term: float | None
    true_risk_estimate: float
    empirical_risk: float
    zero_one_risk: float


@dataclass(frozen=True)
class RiskGapResult:
    records: list[RiskGapRecord]
    diverged: list[tuple[float, int, int]]


def _derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _alpha_bits(alpha: Alpha) -> int:
    return int(np.float64(alpha.value).view(np.uint64))


# a finite law can still overflow to an infinite candidate, which only an
# infinite radius admits and LabeledDataset then refuses
@np.errstate(over="ignore")
def _draw_positive_class(rng: np.random.Generator, spec: SymmetricDataSpec, out: np.ndarray) -> None:
    """Rejection-sample one point of the +1 class law, inside the ball, into each row of ``out``."""
    count = out.shape[0]
    center = spec.mean_norm * spec.mean_direction
    pending = np.arange(count)
    for _ in range(_REJECTION_ROUNDS):
        if pending.size == 0:
            return
        candidates = center + spec.noise_scale * rng.standard_normal((pending.size, spec.dim))
        inside = row_norms(candidates) <= spec.radius
        out[pending[inside]] = candidates[inside]
        pending = pending[~inside]
    raise GenerationFailed(
        f"{pending.size} of {count} points rejected {_REJECTION_ROUNDS} times "
        f"(mean_norm={spec.mean_norm}, noise_scale={spec.noise_scale}, radius={spec.radius})"
    )


def _check_sample_size(n: int, dim: int, what: str) -> None:
    if n < 2:
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
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n - n_pos, dtype=np.int64)])
    return LabeledDataset(features=features, labels=labels, feature_radius=spec.radius)


def check_assumptions(data: LabeledDataset, r: float) -> AssumptionReport:
    """Test 1 - sigmoid(-r^2)^2 < ||E X+|| / E ||X+|| on the sample's positive class."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    positives = data.features[data.labels == 1]
    if positives.shape[0] == 0 or positives.shape[0] == data.n:
        raise ValueError("both labels must be present")
    mean_vec_norm = float(np.linalg.norm(positives.mean(axis=0)))
    mean_abs_norm = float(np.mean(row_norms(positives)))
    sigma_sq = sigmoid(-r * r) ** 2
    ratio = mean_vec_norm / mean_abs_norm
    return AssumptionReport(
        positive_mean_norm=mean_vec_norm,
        positive_mean_abs_norm=mean_abs_norm,
        sigma_sq_term=sigma_sq,
        ratio=ratio,
        inequality_holds=1.0 - sigma_sq < ratio,
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


def check_experiment_sizes(dim: int, sample_sizes, trials: int, holdout_n: int) -> None:
    """Check trials, dim and every sample size before any sample or dim-sized array exists."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    _check_sample_size(holdout_n, dim, "holdout_n")
    for n in sample_sizes:
        _check_sample_size(n, dim, "n")


def risk_gap_experiment(
    spec: SymmetricDataSpec,
    alphas,
    sample_sizes,
    trials: int,
    holdout_n: int,
    learning_rate: float,
    epochs: int,
) -> RiskGapResult:
    """Measure |true risk - empirical risk| at trained minimizers.

    For each (alpha, n, trial) a fresh training set is drawn and trained for
    ``epochs`` at ``learning_rate`` with projection on; the true risk is
    estimated on one large fresh holdout.  The trial seeds derive from the spec
    seed, so trials are independent of execution order; diverged trials are
    excluded and counted.  Every argument is checked before any draw.
    """
    check_experiment_sizes(spec.dim, sample_sizes, trials, holdout_n)
    check_schedule(learning_rate, epochs)
    holdout = generate_symmetric_dataset(
        replace(spec, seed=_derive_seed(spec.seed, _HOLDOUT_TAG)), holdout_n
    )
    records: list[RiskGapRecord] = []
    diverged: list[tuple[float, int, int]] = []
    for alpha in alphas:
        for n in sample_sizes:
            for trial in range(trials):
                data_seed = _derive_seed(spec.seed, _alpha_bits(alpha), n, trial, 0)
                init_seed = _derive_seed(spec.seed, _alpha_bits(alpha), n, trial, 1)
                dataset = generate_symmetric_dataset(replace(spec, seed=data_seed), n)
                cfg = TrainConfig(alpha, learning_rate, epochs, init_seed, projection=True)
                try:
                    report = train(cfg, dataset)
                except TrainingDiverged:
                    diverged.append((alpha.value, n, trial))
                    continue
                model = report.final_model
                # the trace's last entry is the training-sample risk of the final model
                emp = float(report.empirical_risk_trace[-1])
                true = empirical_risk(alpha, model, holdout)
                records.append(
                    RiskGapRecord(
                        alpha=alpha,
                        n=n,
                        trial=trial,
                        gap=abs(true - emp),
                        hoeffding_term=None if alpha.is_log else hoeffding_epsilon(alpha, n, 1, 0.05),
                        true_risk_estimate=true,
                        empirical_risk=emp,
                        zero_one_risk=1.0 - evaluate(model, holdout),
                    )
                )
    records.sort(key=lambda rec: (rec.alpha.value, rec.n, rec.trial))
    return RiskGapResult(records=records, diverged=diverged)


def median_gaps(records, alpha: Alpha) -> dict[int, float]:
    """Median gap per sample size for one alpha, keyed by n."""
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.alpha.value == alpha.value:
            by_n.setdefault(rec.n, []).append(rec.gap)
    return {n: float(np.median(g)) for n, g in sorted(by_n.items())}


def log_log_slope(sizes, values) -> float:
    """Least-squares slope of log(values) against log(sizes); all must be positive."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if not (np.all(sizes > 0) and np.all(values > 0)):
        raise ValueError("sizes and values must be positive to take their logarithms")
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])
