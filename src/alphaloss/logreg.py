"""Logistic regression under the tunable loss family.

The soft classifier is g(x) = sigmoid(w . x).  Per-sample losses, empirical
risk and its gradient, full-batch gradient-descent training, a Newton solver
for the KKT points of the risk on a ball, and 0-1 accuracy all live here.
The per-sample derivatives in w are the margin derivatives of
:mod:`alphaloss.losses` at m = y * (w . x) times powers of y * x.
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
    margin_loss_tail,
    margin_losses,
    _margin_terms,
    _margin_workspace,
    _sigmoid_array,
)


# How many past iterates train compares each new one with: a run that repeats
# with a period up to this long stops computing once it does.
SETTLE_WINDOW = 16

# Half-width of the initial weights' uniform draw; perfbench draws the same start.
INIT_SCALE = 0.01

# Largest sample, counted as n x dim floats (800 MB), that landscape draws,
# and largest d x d Hessian that solve_on_ball forms.
MAX_SAMPLE_FLOATS = 10**8

# Most epochs a run may request: its risk trace is then 800 MB, the size of
# MAX_SAMPLE_FLOATS.
MAX_EPOCHS = 10**8

# KKT residual at or below which solve_on_ball certifies its point, if its
# Newton step is also at most NEWTON_STEP_TOL times max(1, |w|).
KKT_TOL = 1e-12
NEWTON_STEP_TOL = 1e-6

# The Armijo test's fraction of the predicted decrease, and the most halvings
# of one step before the line search gives up.
ARMIJO_FRACTION = 1e-4
MAX_HALVINGS = 60

# Relative change of the risk below its rounding: a step within it that lowers
# the residual is accepted, since the Armijo test cannot resolve it.
RISK_ROUNDING = 64 * np.finfo(float).eps

# A norm within this relative distance of the radius is on the sphere.
SPHERE_TOL = 1e-12

# Margins per block of the loss tail that a risk on a large sample builds.
LOSS_BLOCK = 2**14


class TrainingDiverged(RuntimeError):
    """Raised when the empirical risk becomes non-finite; names a given config's alpha and rate."""

    def __init__(self, epoch: int, config: TrainConfig | None = None):
        run = "" if config is None else f"alpha={config.alpha}, lr={config.learning_rate}: "
        super().__init__(f"{run}empirical risk became non-finite at epoch {epoch}")
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


def _check_seed(seed: int) -> None:
    """The rule for every seed of the package: an integer in 0..2^64 - 1."""
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings.

    Weights start i.i.d. uniform in [-INIT_SCALE, INIT_SCALE] drawn from
    ``seed``; the iterate is rescaled back onto the ball of ``radius``
    whenever it leaves it, which at the default infinite radius is never.
    """

    alpha: Alpha
    learning_rate: float
    epochs: int
    seed: int
    radius: float = math.inf

    def __post_init__(self):
        rate, epochs = self.learning_rate, self.epochs
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"learning_rate must be finite and nonnegative, got {rate!r}")
        if operator.index(epochs) < 1:
            raise ValueError(f"epochs must be a positive integer, got {epochs!r}")
        if epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be at most {MAX_EPOCHS}, got {epochs!r}")
        _check_seed(self.seed)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")


@dataclass(frozen=True)
class TrainReport:
    final_model: LinearModel
    empirical_risk_trace: np.ndarray
    train_accuracy: float


def _point_score(model: LinearModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.dim},)")
    return float(model.weights @ x)


def sample_loss(alpha: Alpha, model: LinearModel, x: np.ndarray, y: int) -> float:
    """Loss of the model's belief on one labeled sample, via the margin form."""
    score = _point_score(model, x)
    return margin_alpha_loss(alpha, check_label(y) * score)


def empirical_risk(alpha: Alpha, model: LinearModel, data: LabeledDataset) -> float:
    """Mean per-sample loss over the dataset."""
    _check_dims(model, data)
    return _mean_loss(alpha, data.features @ model.weights, data.labels)


def risk_and_accuracy(
    alpha: Alpha, model: LinearModel, data: LabeledDataset
) -> tuple[float, float]:
    """:func:`empirical_risk` and :func:`evaluate` of one model from one x @ w.

    The accuracy is counted from the scores before they become the margins.
    """
    _check_dims(model, data)
    scores = data.features @ model.weights
    accuracy = _accuracy(scores, data.labels)
    return _mean_loss(alpha, scores, data.labels), accuracy


def _mean_loss(alpha: Alpha, scores: np.ndarray, labels: np.ndarray) -> float:
    # the margins and then the losses overwrite the scores, and the loss tail
    # is built one block at a time, so the call holds one n-vector and a
    # block; each loss has the bits of one margin_losses call on all margins
    scores *= labels
    tail = np.empty(min(LOSS_BLOCK, scores.size))
    for start in range(0, scores.size, LOSS_BLOCK):
        block = scores[start : start + LOSS_BLOCK]
        block_tail = margin_loss_tail(alpha, block, tail[: block.size])
        margin_losses(alpha, block, out=block, tail=block_tail)
    return float(np.mean(scores))


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
    w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=data.dim)
    x = data.features
    n = data.n
    # every per-sample array is allocated once and rewritten in place each epoch
    y = data.labels
    scores = np.empty(n)
    margins = np.empty(n)
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
            # y * slopes over the slopes, which the next epoch rewrites
            np.matmul(x.T, np.multiply(y, slopes, out=slopes), out=grad)
            grad /= n
            w -= config.learning_rate * grad
            norm = math.sqrt(float(w @ w))
            if not math.isfinite(norm):
                # w @ w overflows past |w| ~ 1.3e154; max|w| is infinite or NaN
                # only when w is, and such a w never reaches x @ w
                peak = float(np.abs(w).max())
                if not math.isfinite(peak):
                    raise TrainingDiverged(epoch, config)
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
                raise TrainingDiverged(epoch, config)
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


# The solve's records are namedtuples, which cost a tenth of a dataclass to
# create when the package is imported.
class BallSolution(
    collections.namedtuple("BallSolution", "model risk residual multiplier newton_step steps")
):
    """Where :func:`solve_on_ball` stopped: a model, its risk and its KKT terms.

    On the sphere ``multiplier`` is lambda = max(-w . grad / |w|, 0), and 0
    inside it; ``residual`` is |grad + lambda * w / |w||.  ``newton_step`` is
    the length of the Newton step from the model, on the sphere's tangent
    space where the ball binds, and inf where that Hessian is not positive
    definite.  ``steps`` counts the steps taken.
    """

    __slots__ = ()

    @property
    def converged(self) -> bool:
        return _certified(self.residual, self.newton_step, self.model.weights)


def _certified(residual: float, newton_step: float, weights: np.ndarray) -> bool:
    # a small residual alone also holds far out on a flat tail, where the
    # Newton step is of order 1
    scale = max(1.0, float(row_norms(weights[None, :])[0]))
    return residual <= KKT_TOL and newton_step <= NEWTON_STEP_TOL * scale


# One point of a solve.
_Iterate = collections.namedtuple("_Iterate", "weights norm risk grad multiplier residual")


class _BallRisk:
    """The empirical risk of one dataset and its KKT terms on one ball.

    Every evaluation rewrites the same per-sample buffers, as in :func:`train`:
    the margins, a :func:`_margin_workspace` and the curvatures.
    """

    def __init__(self, alpha: Alpha, data: LabeledDataset, radius: float):
        self.alpha, self.data, self.radius = alpha, data, radius
        self.margins = np.empty(data.n)
        self.work = _margin_workspace(data.n)
        self.curvature = np.empty(data.n)

    def at(self, w: np.ndarray) -> _Iterate:
        x, y, n = self.data.features, self.data.labels, self.data.n
        # the margins, losses and risk of train's loop, so the risk has the
        # bits empirical_risk gives
        margins = np.matmul(x, w, out=self.margins)
        margins *= y
        losses, slopes = _margin_terms(self.alpha, margins, self.work, self.curvature)
        risk = float(losses.sum() / n)
        grad = x.T @ np.multiply(y, slopes, out=slopes)
        grad /= n
        norm = float(row_norms(w[None, :])[0])
        pull = -float(w @ grad) / norm if norm >= self.radius * (1.0 - SPHERE_TOL) else 0.0
        multiplier = max(pull, 0.0)
        kkt = grad + (multiplier / norm) * w if multiplier > 0.0 else grad
        return _Iterate(w, norm, risk, grad, multiplier, float(np.linalg.norm(kkt)))

    def hessian(self) -> np.ndarray:
        """The Hessian X' diag(L'') X / n at the point of the last :meth:`at`.

        Summed over blocks of LOSS_BLOCK // d rows (at least one), each
        X_b' (L''_b * X_b), so that no temporary is larger than one block or
        the Hessian.
        """
        x, d = self.data.features, self.data.dim
        rows = max(1, LOSS_BLOCK // d)
        hessian = np.zeros((d, d))
        for start in range(0, self.data.n, rows):
            block = x[start : start + rows]
            hessian += block.T @ (self.curvature[start : start + rows, None] * block)
        hessian /= self.data.n
        return hessian


def _newton_step(point: _Iterate, hessian: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The gradient a step follows and Newton's step, or None where its Hessian is not positive definite.

    Where the ball binds (lambda > 0) both lie in the sphere's tangent space:
    with u = w / |w|, P = I - u u' and mu = lambda / |w|, the gradient is P g
    and the Hessian is that of the Lagrangian on the tangent space,
    P (H + mu I) P, with eigenvalue 1 along u, so that it is positive definite
    exactly where the reduced Hessian is and its step stays tangent.
    """
    grad = point.grad
    if point.multiplier > 0.0:
        u = point.weights / point.norm
        mu = point.multiplier / point.norm
        grad = grad - (u @ grad) * u
        hu = hessian @ u
        hessian = hessian - np.outer(u, hu) - np.outer(hu, u)
        hessian += (u @ hu + 1.0 - mu) * np.outer(u, u)
        hessian[np.diag_indices_from(hessian)] += mu
    return grad, _solve_positive_definite(hessian, grad)


def _solve_positive_definite(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a^-1 b through the Cholesky factor of a, or None where a is not positive definite.

    Written out column by column on dot products, because each LAPACK routine
    numpy would call pages its code into the process: the factor, the solve
    and a QR of the tangent space took about 1.5 MB of resident memory.  The
    loops are d long and the factor costs d^3 / 3 flops.
    """
    d = b.size
    low = np.zeros((d, d))
    for j in range(d):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        # also false for a NaN pivot
        if not pivot > 0.0:
            return None
        low[j, j] = math.sqrt(pivot)
        low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    x = np.empty(d)
    for j in range(d):
        x[j] = (b[j] - low[j, :j] @ x[:j]) / low[j, j]
    for j in reversed(range(d)):
        x[j] = (x[j] - low[j + 1 :, j] @ x[j + 1 :]) / low[j, j]
    return x


def _check_hessian_size(dim: int) -> None:
    """The rule for the solve's d x d Hessian: at most ``MAX_SAMPLE_FLOATS`` floats."""
    if dim * dim > MAX_SAMPLE_FLOATS:
        raise ValueError(
            f"dim {dim} needs a {dim} x {dim} Hessian, {dim * dim} floats,"
            f" above the {MAX_SAMPLE_FLOATS} allowed"
        )


def _line_search(problem: _BallRisk, point: _Iterate, direction: np.ndarray) -> _Iterate | None:
    """The first of w + t * direction, t = 1, 1/2, ..., kept on the ball, that is accepted.

    A point on the sphere that the ball binds is kept on it; elsewhere a point
    outside the ball is scaled back onto it.  Armijo accepts a risk at most
    R(w) + ARMIJO_FRACTION * grad . (w_t - w); a risk within RISK_ROUNDING of
    R(w) is also accepted where the residual falls.  None when the search
    gives up, or when a step is not finite.  The accepted point is the last
    one evaluated, so ``problem.hessian()`` is its Hessian.
    """
    w, t = point.weights, 1.0
    for _ in range(MAX_HALVINGS):
        trial = w + t * direction
        norm = float(row_norms(trial[None, :])[0])
        if not math.isfinite(norm):
            return None
        if point.multiplier > 0.0 or norm > problem.radius:
            trial *= problem.radius / norm
        candidate = problem.at(trial)
        if not math.isfinite(candidate.risk):
            return None
        predicted = float(point.grad @ (trial - w))
        if predicted < 0.0 and candidate.risk <= point.risk + ARMIJO_FRACTION * predicted:
            return candidate
        if (candidate.residual < point.residual
                and candidate.risk <= point.risk + RISK_ROUNDING * abs(point.risk)):
            return candidate
        t /= 2.0
    return None


def solve_on_ball(
    alpha: Alpha, model: LinearModel, data: LabeledDataset, radius: float, max_steps: int
) -> BallSolution:
    """Take ``model`` to a KKT point of min R(w) subject to |w| <= radius.

    Each step is Newton's where the Hessian is positive definite: inside the
    ball on the full Hessian, and on the sphere, where the ball binds with
    multiplier lambda = -w . grad / |w| > 0, in the sphere's tangent space on
    the Lagrangian's reduced Hessian.  Where that Hessian is not positive
    definite, or Newton's step finds no descent, the step follows the
    (tangential) gradient instead.  Either is backtracked by halving until
    accepted (see ``_line_search``).  The Hessian, n * d^2 flops, is formed
    only at accepted points, and its d x d floats may be at most
    ``MAX_SAMPLE_FLOATS``, the largest sample.

    A point is certified once its KKT residual is at most ``KKT_TOL`` and
    its Hessian is positive definite with a Newton step of at most
    ``NEWTON_STEP_TOL`` times max(1, |w|).  The solve stops there, after
    ``max_steps`` steps, or when no step is accepted or one is not finite.
    It never raises on the way: an unconverged solve returns the iterate of
    least residual.
    """
    _check_dims(model, data)
    _check_hessian_size(data.dim)
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if operator.index(max_steps) < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps!r}")
    problem = _BallRisk(alpha, data, radius)
    best, steps = None, 0
    # an overflow or a NaN ends the search through the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        point = problem.at(model.weights.copy())
        while True:
            grad, newton = _newton_step(point, problem.hessian())
            length = math.inf if newton is None else float(np.linalg.norm(newton))
            certified = _certified(point.residual, length, point.weights)
            if best is None or certified or point.residual < best[0].residual:
                best = point, length
            if certified or steps == max_steps:
                break
            for direction in ([] if newton is None else [-newton]) + [-grad]:
                accepted = _line_search(problem, point, direction)
                if accepted is not None:
                    break
            else:
                break
            point, steps = accepted, steps + 1
    point, length = best
    return BallSolution(
        LinearModel(point.weights), point.risk, point.residual, point.multiplier, length, steps
    )


def evaluate(model: LinearModel, data: LabeledDataset) -> float:
    """Fraction of samples with sign(w . x) = y, counting sign(0) as +1."""
    _check_dims(model, data)
    return _accuracy(data.features @ model.weights, data.labels)


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    # count / n is correctly rounded, as the mean of the 0/1 matches is; a
    # zero score predicts +1 and a NaN score -1
    return float(np.count_nonzero((scores >= 0.0) == (labels > 0)) / scores.size)
