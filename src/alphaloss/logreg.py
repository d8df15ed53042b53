"""Logistic regression under the tunable loss family.

The soft classifier is g(x) = sigmoid(w . x).  Per-sample losses, the closed
forms of the gradient / Hessian / third-derivative coefficients, empirical
risk and its gradient, full-batch gradient-descent training, and 0-1 accuracy
all live here.  Everything is deterministic given a seed: identical configs on
identical data produce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The array kernels live in losses; _sigmoid_array is unused here but stays
# bound because perfbench/child.py wraps logreg's bindings by name.
from .losses import (
    Alpha,
    check_belief,
    check_label,
    margin_alpha_loss,
    margin_losses,
    sigmoid,
    _margin_terms,
    _margin_workspace,
    _sigmoid_array,
)


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
    return np.sqrt(np.einsum("ij,ij->i", x, x))


@dataclass(frozen=True)
class LinearModel:
    """Weight vector w with the radius of the ball it is declared to live in."""

    weights: np.ndarray
    radius_bound: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a 1-D vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not self.radius_bound > 0.0:
            raise ValueError(f"radius_bound must be positive, got {self.radius_bound!r}")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with +-1 labels, supported inside a ball of known radius."""

    features: np.ndarray
    labels: np.ndarray
    feature_radius: float

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"features must be a nonempty n x d matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must take values in {-1, +1}")
        if not self.feature_radius > 0.0:
            raise ValueError(f"feature_radius must be positive, got {self.feature_radius!r}")
        norms = row_norms(x)
        # NaN > radius is False, and an infinite radius admits a norm that
        # overflows: only a row whose norm is not finite has its entries read
        if not np.all(np.isfinite(x[~np.isfinite(norms)])):
            raise ValueError("features must be finite")
        if np.any(norms > self.feature_radius):
            raise ValueError("a feature row lies outside the declared radius")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def check_schedule(learning_rate: float, epochs: int) -> None:
    """Refuse a step size or epoch count :class:`TrainConfig` refuses, before one is built."""
    if not 0.0 <= learning_rate < math.inf:
        raise ValueError(f"learning_rate must be finite and nonnegative, got {learning_rate!r}")
    if int(epochs) != epochs or epochs < 1:
        raise ValueError(f"epochs must be a positive integer, got {epochs!r}")
    if epochs > MAX_EPOCHS:
        raise ValueError(f"epochs must be at most {MAX_EPOCHS}, got {epochs!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings.

    Weights start i.i.d. uniform in [-init_scale, init_scale] drawn from
    ``seed``; when ``projection`` is on, the iterate is rescaled back onto the
    ball of the dataset's feature radius whenever it leaves it.
    """

    alpha: Alpha
    learning_rate: float
    epochs: int
    seed: int
    init_scale: float = 0.01
    projection: bool = False

    def __post_init__(self):
        check_schedule(self.learning_rate, self.epochs)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if not self.init_scale >= 0.0:
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale!r}")


@dataclass(frozen=True)
class TrainReport:
    final_model: LinearModel
    empirical_risk_trace: np.ndarray
    final_gradient_norm: float
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


def gradient_coefficient(alpha: Alpha, g: float, y: int) -> float:
    """Scalar multiplying x in the per-sample gradient; bounded by 1 in magnitude.

    ((1-y)/2) * g * (1-g)^(1-1/alpha) - ((1+y)/2) * g^(1-1/alpha) * (1-g).
    1 - g is only as accurate as g: sigmoid(36.7) rounds to 1 - 2^-52, about
    twice the true tail, so take margins past |m| = 37 through
    ``margin_alpha_loss_d1``.
    """
    g = check_belief(g)
    y = check_label(y)
    c = alpha.exponent
    if y == 1:
        return -(g**c) * (1.0 - g)
    return g * (1.0 - g) ** c


def hessian_coefficient(alpha: Alpha, g: float, y: int) -> float:
    """Scalar multiplying x x^T in the per-sample Hessian; |value| <= 1/4."""
    g = check_belief(g)
    y = check_label(y)
    c = alpha.exponent
    h = 1.0 - g
    if y == 1:
        return g ** (c + 1.0) * h - c * (g**c) * h * h
    return g * h ** (c + 1.0) - c * g * g * (h**c)


def third_derivative_coefficient(alpha: Alpha, g: float, y: int) -> float:
    """Scalar in the per-sample third derivative tensor; |value| <= 2.

    Differentiating the Hessian coefficient once more in the logit gives a
    middle coefficient of 3*(1-1/alpha) + 1 = 4 - 3/alpha.
    """
    g = check_belief(g)
    y = check_label(y)
    c = alpha.exponent
    h = 1.0 - g
    mid = 3.0 * c + 1.0
    if y == 1:
        return -(g ** (c + 2.0) * h - mid * g ** (c + 1.0) * h * h + c * c * (g**c) * h**3)
    return g * h ** (c + 2.0) - mid * g * g * h ** (c + 1.0) + c * c * g**3 * (h**c)


def empirical_risk(alpha: Alpha, model: LinearModel, data: LabeledDataset) -> float:
    """Mean per-sample loss over the dataset."""
    _check_dims(model, data)
    margins = data.labels * (data.features @ model.weights)
    return float(np.mean(margin_losses(alpha, margins)))


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
    ever becomes non-finite.  The model's declared ball is the dataset's
    feature radius, which is also the projection radius when enabled.

    The scores x @ w that give an epoch's risk are also the next epoch's
    gradient input, so each epoch costs two matvecs, x @ w and x.T @ c.
    They run on the features in the layout the dataset holds: the synthetic
    landscape sets (n >> d) are column-major, which at 10,000 x 5 makes the
    pair about 2.5x faster than row-major; the MNIST splits (d = 785) are
    row-major, since column-major made the sweep slower.  The layout sets the
    BLAS summation order, so the two give weights a few ulps apart.

    The loop's state is w alone: scores, slopes and the risk are recomputed
    from it each epoch by the same calls in the same buffers.  So once w
    repeats, bit for bit, the iterate of one or two epochs back, every later
    epoch repeats with that period.  The rest of the trace is then filled by
    repeating its last entries and whole periods are skipped; only the fewer
    than two epochs left over are computed.  The report has the same bytes as
    running every epoch.
    """
    rng = np.random.default_rng(config.seed)
    radius = data.feature_radius
    w = rng.uniform(-config.init_scale, config.init_scale, size=data.dim)
    x = data.features
    n = data.n
    # every per-sample array is allocated once and rewritten in place each epoch
    y = data.labels.astype(float)
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
        # the bytes of the iterates two and one epochs back
        back = (None, w.tobytes())
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
                if config.projection:
                    # the norm of w / max|w| does not overflow
                    unit = w / peak
                    norm = math.sqrt(float(unit @ unit))
                    if norm > radius / peak:
                        np.multiply(unit, radius / norm, out=w)
            elif config.projection and norm > radius:
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
            period = 1 if state == back[1] else 2 if state == back[0] else 0
            if period:
                for phase in range(period):
                    trace[epoch + phase :: period] = trace[epoch + phase - period]
                epoch += (config.epochs - epoch) // period * period
            back = (back[1], state)
        np.matmul(x.T, np.multiply(y, slopes, out=coefs), out=grad)
        grad /= n
    return TrainReport(
        final_model=LinearModel(weights=w, radius_bound=radius),
        empirical_risk_trace=trace,
        final_gradient_norm=float(np.sqrt(grad @ grad)),
        train_accuracy=_accuracy(scores, data.labels),
    )


def evaluate(model: LinearModel, data: LabeledDataset) -> float:
    """Fraction of samples with sign(w . x) = y, counting sign(0) as +1."""
    _check_dims(model, data)
    return _accuracy(data.features @ model.weights, data.labels)


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.where(scores >= 0.0, 1, -1) == labels))
