"""Closed forms of the tunable alpha-loss family for binary classification.

The family is driven by a single parameter alpha in [1, inf].  alpha = 1 is
log-loss, alpha = inf is sigmoid loss (whose expectation is the probability of
error), and finite alpha in between interpolates continuously.  Every function
here is a pure function of its scalar inputs.  The array kernels at the end,
:func:`margin_losses` for the grid searches and risks and ``_margin_terms``
for the training loop's losses and slopes (and, for the KKT solver, the
curvatures), share one e = exp(-|m|) and one copy of each alpha branch, in
the construction :func:`margin_losses` gives.

Conventions: labels live in {-1, +1}, beliefs are probabilities of the event
{Y = +1}, margins are y * f(x) on the extended real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Raw alpha values closer to 1 than this collapse to the log-loss branch: the
# alpha/(alpha-1) prefactor amplifies rounding noise catastrophically below it.
LOG_LOSS_GAP = 1e-9


@dataclass(frozen=True)
class Alpha:
    """The tuning parameter alpha in [1, inf], from a float or a CLI token.

    ``Alpha(1.0)`` is the log-loss endpoint, ``Alpha(math.inf)`` or
    ``Alpha("inf")`` the sigmoid (probability-of-error) endpoint.  Values below
    1 and NaN are rejected; values within ``LOG_LOSS_GAP`` of 1 are snapped to
    exactly 1.  The derived fields are set once, left out of equality, hashing
    and ``repr``: the two branch flags, the belief power ``exponent`` =
    1 - 1/alpha (1.0 at the infinite endpoint) and the prefactor ``scale`` =
    alpha/(alpha - 1), also the loss supremum for alpha > 1.
    """

    value: float
    is_log: bool = field(init=False, repr=False, compare=False)
    is_infinite: bool = field(init=False, repr=False, compare=False)
    exponent: float = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("alpha must not be NaN")
        if abs(v - 1.0) <= LOG_LOSS_GAP:
            v = 1.0
        if v < 1.0:
            raise ValueError(f"alpha must lie in [1, inf], got {v!r}")
        infinite = math.isinf(v)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "is_log", v == 1.0)
        object.__setattr__(self, "is_infinite", infinite)
        # v - 1 is exact for v below 2^53, so the quotient is correctly rounded
        object.__setattr__(self, "exponent", 1.0 if infinite else (v - 1.0) / v)
        scale = math.inf if v == 1.0 else 1.0 if infinite else v / (v - 1.0)
        object.__setattr__(self, "scale", scale)

    def __str__(self) -> str:
        """The shortest text that reads back as the value, without a trailing ".0"."""
        return repr(self.value).removesuffix(".0")


def check_belief(p: float) -> float:
    """Validate a probability in [0, 1].  No clamping: out of range is an error."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"belief must be a probability in [0, 1], got {p!r}")
    return p


def check_posterior(eta: float) -> float:
    """Validate a posterior strictly inside (0, 1); the endpoints diverge under logit."""
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError(f"posterior must lie strictly in (0, 1), got {eta!r}")
    return eta


def check_label(y: int) -> int:
    """Validate a binary label in {-1, +1}."""
    iy = int(y)
    if iy != y or iy not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    return iy


def check_margin(z: float) -> float:
    """Validate a margin on the extended real line (+-inf allowed, NaN rejected)."""
    z = float(z)
    if math.isnan(z):
        raise ValueError("margin must not be NaN")
    return z


def _split_sigmoid(z: float) -> tuple[float, float, float, float]:
    """log sigmoid(+-z) and sigmoid(+-z) from one exp(-|z|), split at z = 0."""
    z = check_margin(z)
    e = math.exp(-abs(z))
    log1p_e = math.log1p(e)
    if z >= 0:
        return -log1p_e, -z - log1p_e, 1.0 / (1.0 + e), e / (1.0 + e)
    return z - log1p_e, -log1p_e, e / (1.0 + e), 1.0 / (1.0 + e)


def _loss(alpha: Alpha, log_p: float, miss: float) -> float:
    """The loss of belief p in the true label, from log p and 1 - p."""
    if alpha.is_log:
        return -log_p
    if alpha.is_infinite:
        return miss
    # 1 - p^c via expm1 keeps full precision as alpha -> 1 (c -> 0).
    return -alpha.scale * math.expm1(alpha.exponent * log_p)


def sigmoid(z: float) -> float:
    """1 / (1 + exp(-z)) on the extended reals; sigmoid(+-inf) = 1, 0."""
    return _split_sigmoid(z)[2]


def logit(p: float) -> float:
    """Inverse sigmoid log(p / (1 - p)); the endpoints map to +-inf."""
    p = check_belief(p)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


def alpha_loss(alpha: Alpha, y: int, belief_in_label: float) -> float:
    """Loss of assigning probability ``belief_in_label`` to the true label ``y``.

    Branches: -log p at alpha = 1, (alpha/(alpha-1)) * (1 - p^(1-1/alpha)) for
    finite alpha > 1, and 1 - p at alpha = inf.  p = 0 under log-loss yields
    +inf, not an error.
    """
    check_label(y)
    p = check_belief(belief_in_label)
    return _loss(alpha, math.log(p) if p > 0.0 else -math.inf, 1.0 - p)


def margin_alpha_loss(alpha: Alpha, z: float) -> float:
    """Margin form of the loss: the same family evaluated at belief sigmoid(z).

    Monotone nonincreasing in z; equals ``alpha_loss`` of the matching belief
    when z = y * logit(belief of +1).
    """
    log_sz, _, _, smz = _split_sigmoid(z)
    return _loss(alpha, log_sz, smz)


def margin_alpha_loss_d1(alpha: Alpha, z: float) -> float:
    """First z-derivative of the margin loss; strictly negative for finite z.

    Equals -sigmoid(z)^(1-1/alpha) * sigmoid(-z).
    """
    log_sz, _, _, smz = _split_sigmoid(z)
    if alpha.is_log:
        return -smz
    return -math.exp(alpha.exponent * log_sz) * smz


def margin_alpha_loss_d2(alpha: Alpha, z: float) -> float:
    """Second z-derivative of the margin loss.

    Equals sigmoid(z)^(1-1/alpha) * sigmoid(-z) * (sigmoid(z) - (1-1/alpha) *
    sigmoid(-z)); nonnegative everywhere iff alpha = 1, with a sign change at
    z = log((alpha-1)/alpha) for alpha > 1.
    """
    log_sz, _, sz, smz = _split_sigmoid(z)
    c = alpha.exponent
    power = 1.0 if alpha.is_log else math.exp(c * log_sz)
    return power * smz * (sz - c * smz)


def margin_alpha_loss_d3(alpha: Alpha, z: float) -> float:
    """Third z-derivative of the margin loss; |value| <= 2.

    Equals -sigmoid(z)^(1-1/alpha) * sigmoid(-z) * (sigmoid(z)^2 - (3c+1) *
    sigmoid(z) * sigmoid(-z) + c^2 * sigmoid(-z)^2) with c = 1-1/alpha.
    """
    log_sz, _, sz, smz = _split_sigmoid(z)
    c = alpha.exponent
    power = 1.0 if alpha.is_log else math.exp(c * log_sz)
    return -power * smz * (sz * sz - (3.0 * c + 1.0) * sz * smz + c * c * smz * smz)


def second_deriv_sign_change(alpha: Alpha) -> float:
    """The margin below which the second derivative is negative, log((a-1)/a).

    That is the log of ``alpha.exponent``, 0 in the infinite limit.
    """
    if alpha.is_log:
        raise ValueError("the log-loss margin form is convex: no sign change")
    return math.log(alpha.exponent)


def conditional_risk(alpha: Alpha, eta: float, f: float) -> float:
    """Pointwise risk eta * loss(f) + (1 - eta) * loss(-f) at posterior eta."""
    eta = check_posterior(eta)
    log_sf, log_smf, sf, smf = _split_sigmoid(f)
    return eta * _loss(alpha, log_sf, smf) + (1.0 - eta) * _loss(alpha, log_smf, sf)


def optimal_classifier(alpha: Alpha, eta: float) -> float:
    """Minimizer of the conditional risk over classification values f.

    alpha * logit(eta) for alpha < inf; degenerate +-inf at the infinite
    endpoint (0 by convention at eta = 1/2, where any value is optimal).
    """
    eta = check_posterior(eta)
    if alpha.is_infinite:
        if eta == 0.5:
            return 0.0
        return math.copysign(math.inf, eta - 0.5)
    return alpha.value * logit(eta)


def min_conditional_risk(alpha: Alpha, eta: float) -> float:
    """Conditional risk at the optimal classifier.

    Binary entropy at alpha = 1, min(eta, 1 - eta) at alpha = inf, and
    (alpha/(alpha-1)) * (1 - (eta^alpha + (1-eta)^alpha)^(1/alpha)) for finite
    alpha > 1.  Symmetric in eta <-> 1 - eta and concave in eta.
    """
    eta = check_posterior(eta)
    if alpha.is_log:
        return -(eta * math.log(eta) + (1.0 - eta) * math.log1p(-eta))
    if alpha.is_infinite:
        return min(eta, 1.0 - eta)
    a = alpha.value
    lo = min(eta, 1.0 - eta)
    ratio = lo / (1.0 - lo)
    # 1 - (1 - lo) * (1 + ratio^a)^(1/a) as -expm1 of its log: stable for large
    # alpha, where ratio^a underflows, and free of cancellation as lo -> 0.
    return alpha.scale * -math.expm1(math.log1p(-lo) + math.log1p(ratio**a) / a)


def _exp_and_tail(alpha: Alpha, m: np.ndarray, e: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """e = exp(-|m|) into ``e`` and the loss tail into ``tail``, which may be ``e``."""
    # not copysign(m, -1): numpy's copysign loop is slower than abs and negative together
    np.abs(m, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if alpha.is_infinite:
        return np.add(1.0, e, out=tail)
    return np.log1p(e, out=tail)


def margin_loss_tail(alpha: Alpha, margins: np.ndarray, out=None) -> np.ndarray:
    """The alpha-free part of :func:`margin_losses`, a function of |m| alone.

    With e = exp(-|m|): log1p(e) for finite alpha and 1 + e at alpha = inf.
    Since |-m| = |m| exactly, the tail of m is also the tail of -m.  Only the
    kind of alpha, finite or infinite, matters.  ``out`` is a float array of
    the margins' shape to write it into, or None to allocate one.
    """
    m = np.asarray(margins, dtype=float)
    # an explicit buffer keeps a 0-d input an array through the in-place steps
    e = np.empty(m.shape) if out is None else out
    return _exp_and_tail(alpha, m, e, e)


def _finite_losses(alpha: Alpha, m: np.ndarray, tail: np.ndarray, out, scaled) -> np.ndarray:
    """Finite-alpha losses into ``out``, via log sigmoid(m) (times c if alpha > 1) in ``scaled``."""
    np.minimum(m, -0.0, out=scaled)
    scaled -= tail
    if alpha.is_log:
        return np.negative(scaled, out=out)
    scaled *= alpha.exponent
    np.expm1(scaled, out=out)
    out *= -alpha.scale
    return out


def margin_losses(alpha: Alpha, margins: np.ndarray, *, out=None, tail=None) -> np.ndarray:
    """Vectorized :func:`margin_alpha_loss` over an array of margins.

    The construction, shared with ``_margin_terms`` (the training loop's
    losses and slopes), builds e = exp(-|m|) in one place and uses no
    boolean masks, which are slow on mixed signs.  log sigmoid(m) =
    min(m, -0) - log1p(e) gives the finite-alpha losses in one shared step,
    and sigmoid(-m) = exp(-max(m, 0)) / (1 + e) is the infinite-alpha loss.
    The slope -sigmoid(m)^c * sigmoid(-m) takes that numerator from e as
    max(e, [m < 0]) and folds its sign into the denominator -(1 + e).
    sigmoid(m)^c is exp(c * log sigmoid(m)): a pow of sigmoid(m) loses bits
    where it is subnormal, below m = -708.  At alpha = inf, where c = 1,
    sigmoid(m) and sigmoid(-m) swap at m = 0, so the slope is
    -(1 / (1 + e)) * (e / (1 + e)) on both sides, with no select.  The losses
    equal :func:`margin_alpha_loss` within rounding (numpy's exp and log1p
    are not the math module's).

    ``tail`` is the :func:`margin_loss_tail` of the margins, or of their
    negation, for an alpha of the same kind; without it the tail is computed
    here, in the same operations, so the result has the same bits either way.
    ``out`` is a float array of the margins' shape that receives the result,
    overwritten by the next call that shares it; it may be the margins, which
    are read only before it is first written.  Without ``out`` the result is
    allocated.
    """
    m = np.asarray(margins, dtype=float)
    if tail is None:
        tail = margin_loss_tail(alpha, m)
    if out is None:
        out = np.empty(m.shape)
    if not alpha.is_infinite:
        return _finite_losses(alpha, m, tail, out, out)
    np.maximum(m, 0.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= tail
    return out


def _sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sigmoid`: the infinite-alpha loss of the negated margin."""
    return margin_losses(Alpha(math.inf), -np.asarray(z, dtype=float))


def _margin_workspace(shape) -> tuple[np.ndarray, ...]:
    """Buffers for :func:`_margin_terms` over margins of the given shape."""
    return tuple(np.empty(shape) for _ in range(4))


def _margin_terms(
    alpha: Alpha, margins: np.ndarray, work=None, curvature=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and margin derivatives -sigmoid(m)^c * sigmoid(-m).

    Built as :func:`margin_losses` describes, with its losses bit for bit.
    ``work`` is a :func:`_margin_workspace` of the margins' shape; the results
    are two of its arrays, overwritten by the next call that shares it.

    ``curvature``, a float array of the margins' shape, receives the second
    derivative -slope * (sigmoid(m) - c * sigmoid(-m)) when given; the
    losses and slopes keep their bits either way.  Its factor is
    (1 + c) * sigmoid(m) - c for finite alpha, with sigmoid(m) =
    max(e, [m >= 0]) / (1 + e), and sign(m) * (1 - 2 * sigmoid(-|m|)) at
    alpha = inf.
    """
    e, tail, scaled, losses = work if work is not None else _margin_workspace(margins.shape)
    _exp_and_tail(alpha, margins, e, tail)
    if alpha.is_infinite:
        margin_losses(alpha, margins, out=losses, tail=tail)
        # the select-free slope -(1 / (1 + e)) * (e / (1 + e))
        np.divide(e, tail, out=e)
        np.divide(-1.0, tail, out=tail)
        tail *= e
        if curvature is not None:
            np.multiply(e, -2.0, out=curvature)
            curvature += 1.0
            np.copysign(curvature, margins, out=curvature)
            curvature *= tail
            np.negative(curvature, out=curvature)
        return losses, tail
    _finite_losses(alpha, margins, tail, losses, scaled)
    if curvature is not None:
        np.greater_equal(margins, 0.0, out=curvature)
        np.maximum(e, curvature, out=curvature)
    # -sigmoid(-m) = max(e, [m < 0]) / -(1 + e)
    np.less(margins, 0.0, out=tail)
    np.maximum(e, tail, out=tail)
    np.subtract(-1.0, e, out=e)
    tail /= e
    if curvature is not None:
        # -sigmoid(m), then -((1 + c) * sigmoid(m) - c)
        curvature /= e
        if not alpha.is_log:
            curvature *= 1.0 + alpha.exponent
            curvature += alpha.exponent
    if not alpha.is_log:
        tail *= np.exp(scaled, out=scaled)
    if curvature is not None:
        curvature *= tail
    return losses, tail
