"""Logistic regression under the tunable loss family.

The soft classifier is g(x) = sigmoid(w . x).  Per-sample losses, empirical
risk and its gradient, full-batch gradient-descent training, and 0-1 accuracy
all live here.  The per-sample derivatives in w are the margin derivatives
of :mod:`alphaloss.losses` at m = y * (w . x) times powers of y * x.
Everything is deterministic given a seed: identical configs on identical data
produce bit-identical reports.
"""

from __future__ import annotations

import collections
import math
import operator
from dataclasses import dataclass

import numpy as np

# The array kernels live in losses; _sigmoid_array is unused here but stays
# bound because perfbench/child.py wraps logreg's bindings by name.
from .losses import (
    Alpha,
    check_label,
    margin_alpha_loss,
    margin_losses,
    sigmoid,
    _margin_terms,
    _margin_workspace,
    _sigmoid_array,
)


# How many past iterates train compares each new one with: a run that repeats
# with a period up to this long stops computing once it does.
SETTLE_WINDOW = 16

# Most epochs a run may request: its risk trace is then 800 MB, the size of
# landscape.MAX_SAMPLE_FLOATS.
MAX_EPOCHS = 10**8


class TrainingDiverged(RuntimeError):
    """Raised when the empirical risk becomes non-finite during training."""

    def __init__(self, epoch: int):
        super().__init__(f"empirical risk became non-finite at epoch {epoch}")
        self.epoch = epoch


def row_norms(features: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; the one norm used across the package."""
    x = np.asarray(features, dtype=float)
    norms = np.einsum("ij,ij->i", x, x)
    np.sqrt(norms, out=norms)
    # the squares overflow past |x| ~ 1.34e154: those rows are summed again by
    # hypot, which overflows only where the norm itself does
    overflowed = np.isinf(norms)
    with np.errstate(over="ignore"):
        norms[overflowed] = np.hypot.reduce(x[overflowed], axis=1)
    return norms


@dataclass(frozen=True)
class LinearModel:
    """Weight vector w: one-dimensional, with finite entries."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a 1-D vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LabeledDataset:
    """Finite feature matrix with +-1 labels, both stored as float64."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"features must be a nonempty n x d matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        # two counts, where np.isin's table lookup would copy y twice
        if np.count_nonzero(y == 1) + np.count_nonzero(y == -1) != y.size:
            raise ValueError("labels must take values in {-1, +1}")
        # only a row whose norm is not finite has its entries read: a row of
        # finite entries can still have a norm above the largest float
        if not np.all(np.isfinite(x[~np.isfinite(row_norms(x))])):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y.astype(np.float64, copy=False))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings.

    Weights start i.i.d. uniform in [-init_scale, init_scale] drawn from
    ``seed``; the iterate is rescaled back onto the ball of ``radius``
    whenever it leaves it, which at the default infinite radius is never.
    """

    alpha: Alpha
    learning_rate: float
    epochs: int
    seed: int
    init_scale: float = 0.01
    radius: float = math.inf

    def __post_init__(self):
        rate, epochs = self.learning_rate, self.epochs
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"learning_rate must be finite and nonnegative, got {rate!r}")
        if operator.index(epochs) < 1:
            raise ValueError(f"epochs must be a positive integer, got {epochs!r}")
        if epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be at most {MAX_EPOCHS}, got {epochs!r}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not self.init_scale >= 0.0:
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale!r}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")


@dataclass(frozen=True)
class TrainReport:
    final_model: LinearModel
    empirical_risk_trace: np.ndarray
    train_accuracy: float


def predict_proba(model: LinearModel, x: np.ndarray) -> float:
    """Probability assigned to label +1 at x: sigmoid(w . x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.dim},)")
    return sigmoid(float(model.weights @ x))


def sample_loss(alpha: Alpha, model: LinearModel, x: np.ndarray, y: int) -> float:
    """Loss of the model's belief on one labeled sample, via the margin form."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.dim},)")
    y = check_label(y)
    return margin_alpha_loss(alpha, y * float(model.weights @ x))


def empirical_risk(alpha: Alpha, model: LinearModel, data: LabeledDataset) -> float:
    """Mean per-sample loss over the dataset."""
    _check_dims(model, data)
    # the losses overwrite the margins, so the call holds two n-vectors
    margins = data.features @ model.weights
    margins *= data.labels
    return float(np.mean(margin_losses(alpha, margins, out=margins)))


def empirical_gradient(alpha: Alpha, model: LinearModel, data: LabeledDataset) -> np.ndarray:
    """Mean of the per-sample gradients, (1/n) sum coefficient_i * x_i."""
    _check_dims(model, data)
    y = data.labels
    _, slopes = _margin_terms(alpha, y * (data.features @ model.weights))
    return (data.features.T @ (y * slopes)) / data.n


def _check_dims(model: LinearModel, data: LabeledDataset) -> None:
    if model.dim != data.dim:
        raise ValueError(f"model dimension {model.dim} != data dimension {data.dim}")


def train(config: TrainConfig, data: LabeledDataset) -> TrainReport:
    """Full-batch gradient descent from a seeded random initialization.

    One gradient step per epoch; the risk trace records the empirical risk
    after each update and training aborts with :class:`TrainingDiverged` if it
    ever becomes non-finite.  The iterate is kept in the ball of
    ``config.radius``.

    The scores x @ w that give an epoch's risk are also the next epoch's
    gradient input, so each epoch costs two matvecs, x @ w and x.T @ c.
    They run on the features in the layout the dataset holds: the synthetic
    landscape sets (n >> d) are column-major, which at 10,000 x 5 makes the
    pair about 2.5x faster than row-major; the MNIST splits (d = 785) are
    row-major, since column-major made the sweep slower.  The layout sets the
    BLAS summation order, so the two give weights a few ulps apart.

    The loop's state is w alone: scores, slopes and the risk are recomputed
    from it each epoch by the same calls in the same buffers.  So once w
    repeats, bit for bit, the iterate of p epochs back, every later epoch
    repeats with period p.  Each iterate is compared with the last
    ``SETTLE_WINDOW`` ones, the initial one included; on a match the rest of
    the trace is filled by repeating its last p entries and whole periods are
    skipped, so only the fewer than p epochs left over are computed.  The
    report has the same bytes as running every epoch.  Its final gradient is
    ``empirical_gradient(alpha, report.final_model, data)``, which train does
    not compute.
    """
    rng = np.random.default_rng(config.seed)
    radius = config.radius
    w = rng.uniform(-config.init_scale, config.init_scale, size=data.dim)
    x = data.features
    n = data.n
    # every per-sample array is allocated once and rewritten in place each epoch
    y = data.labels
    scores = np.empty(n)
    margins = np.empty(n)
    coefs = np.empty(n)
    grad = np.empty(data.dim)
    work = _margin_workspace(n)
    trace = np.empty(config.epochs)

    alpha = config.alpha
    # Overflow to inf is the divergence signal itself, not a numerical accident.
    # So is a NaN score from inf - inf in a product of finite w and x; the
    # risk check below turns it into TrainingDiverged.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(x, w, out=scores)
        _, slopes = _margin_terms(alpha, np.multiply(y, scores, out=margins), work)
        # the bytes of the last SETTLE_WINDOW iterates, the latest first
        recent = collections.deque([w.tobytes()], maxlen=SETTLE_WINDOW)
        epoch = 0
        while epoch < config.epochs:
            np.matmul(x.T, np.multiply(y, slopes, out=coefs), out=grad)
            grad /= n
            w -= config.learning_rate * grad
            norm = math.sqrt(float(w @ w))
            if not math.isfinite(norm):
                # w @ w overflows past |w| ~ 1.3e154; max|w| is infinite or NaN
                # only when w is, and such a w never reaches x @ w
                peak = float(np.abs(w).max())
                if not math.isfinite(peak):
                    raise TrainingDiverged(epoch)
                # the norm of w / max|w| does not overflow
                unit = w / peak
                norm = math.sqrt(float(unit @ unit))
                if norm > radius / peak:
                    np.multiply(unit, radius / norm, out=w)
            elif norm > radius:
                w *= radius / norm
            np.matmul(x, w, out=scores)
            losses, slopes = _margin_terms(alpha, np.multiply(y, scores, out=margins), work)
            # the pairwise sum and division of np.mean, without its call overhead
            risk = float(losses.sum() / n)
            if not math.isfinite(risk):
                raise TrainingDiverged(epoch)
            trace[epoch] = risk
            epoch += 1
            # w passed the divergence checks above, so a skip hides none;
            # equal bytes are an equal state, hence equal later epochs
            state = w.tobytes()
            if state in recent:
                period = recent.index(state) + 1
                for phase in range(period):
                    trace[epoch + phase :: period] = trace[epoch + phase - period]
                epoch += (config.epochs - epoch) // period * period
            recent.appendleft(state)
    return TrainReport(
        final_model=LinearModel(weights=w),
        empirical_risk_trace=trace,
        train_accuracy=_accuracy(scores, data.labels),
    )


def evaluate(model: LinearModel, data: LabeledDataset) -> float:
    """Fraction of samples with sign(w . x) = y, counting sign(0) as +1."""
    _check_dims(model, data)
    return _accuracy(data.features @ model.weights, data.labels)


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    # count / n is correctly rounded, as the mean of the 0/1 matches is; a
    # zero score predicts +1 and a NaN score -1
    return float(np.count_nonzero((scores >= 0.0) == (labels > 0)) / scores.size)
