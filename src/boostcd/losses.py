"""Loss family for boosting: exponential and logistic losses.

Losses here follow the margin convention in which the label is already
folded into the instance matrix, so every loss g is increasing, strictly
convex, positive everywhere, and vanishes at -infinity.  The empirical
risk is the coordinate-wise sum f(x) = sum_i g(x_i); its Fenchel
conjugate f*(psi) = sum_i g*(psi_i) prices nonnegative example
weightings and drives the dual certificates in :mod:`boostcd.structure`.

Both losses additionally satisfy the curvature inequality that the
closed-form step relies on, g'' <= g on all of R (see :func:`make_loss`),
so no constant of either loss depends on the sample size.
No step rule evaluates g'' itself, so it stays internal (``_gpp``).
``_g`` and ``_gp`` take float64 arrays and convert nothing: the descent
loop runs them on margins it built itself, and the risk at an iterate
is its ``IterateState.objective``.

The kernels are numpy alone: exp, softplus ln(1 + e^x), and the
logistic g'(x) = 1 / (1 + e^-x), which ``_logistic_gp_of_neg`` forms in
place from -x, in a buffer its caller owns.  Where e^-x overflows
(x < -709.78) that gives 0 for a true value below 1e-308, so its callers
ignore overflow.  ``_gp`` calls it on a negated copy of its argument.
``_gp_on_ray`` gives g' at the trial margins base + step * col of a line
search, forming -x from the ray so that its weights at the accepted step
are those ``_gp`` gives at the step's margins, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exp"
LOGISTIC = "logistic"
KINDS = (EXPONENTIAL, LOGISTIC)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class LossSpec:
    """A loss kind: EXPONENTIAL or LOGISTIC.  Any other raises ValueError:
    every kernel reads a kind that is not EXPONENTIAL as LOGISTIC."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {KINDS}")


def make_loss(kind: str, m=None) -> LossSpec:
    """The loss of the given kind.  ``m``, a sample size, is accepted and
    ignored: no constant of either loss depends on it.

    Both losses satisfy g'' <= g on all of R.  The exponential loss is a
    fixed point of differentiation.  For the logistic loss, with u = e^x,
    g'' = u / (1+u)^2 <= u / (1+u) <= ln(1+u) = g, and g''/g tends to 1
    as x -> -inf, so no smaller constant holds.
    """
    return LossSpec(kind)


# ---------------------------------------------------------------------------
# pointwise loss, derivatives, conjugate (array-friendly internals)

def _softplus(x):
    # ln(1 + e^x) without overflow on either tail
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _g(kind, x):
    if kind == EXPONENTIAL:
        return np.exp(x)
    return _softplus(x)


def _logistic_gp_of_neg(u):
    """The logistic g'(-u) = 1 / (1 + e^u), in place in the float64 array
    ``u``, which it returns.  Where e^u overflows (u > 709.78) the result
    is 0; the caller decides how overflow is reported."""
    np.exp(u, out=u)
    u += 1.0
    return np.divide(1.0, u, out=u)


def _gp(kind, x):
    """g'(x) in a new array; ``x`` is not written."""
    if kind == EXPONENTIAL:
        return np.exp(x)
    with np.errstate(over="ignore"):
        return _logistic_gp_of_neg(np.negative(x, out=np.empty(np.shape(x))))


def _gp_on_ray(kind, col, step, base):
    """g'(base + step * col) in a new array, bit for bit ``_gp`` of the
    margins ``base + step * col``.  The logistic kernel forms their
    negation as ``col * (-step) - base``, which rounds to exactly that;
    the caller ignores overflow."""
    if kind == EXPONENTIAL:
        w = col * step
        w += base
        return np.exp(w, out=w)
    w = col * (-step)
    w -= base
    return _logistic_gp_of_neg(w)


def _gpp(kind, x):
    if kind == EXPONENTIAL:
        return np.exp(x)
    s = _gp(kind, np.asarray(x, dtype=float))
    return s * (1.0 - s)


def _xlogx(p):
    # p ln p, and 0 at p = 0
    return p * np.log(p, out=np.zeros_like(p), where=p > 0)


def _gstar(kind, phi):
    """Fenchel conjugate g*(phi), extended-real valued (+inf off-domain).

    exp:      phi ln phi - phi on [0, inf), with g*(0) = 0, and +inf at
              +inf and wherever phi ln phi overflows.
    logistic: phi ln phi + (1-phi) ln(1-phi) on [0, 1], zero at both ends.
    Negative (resp. out-of-unit-interval) arguments give +inf.
    """
    phi = np.asarray(phi, dtype=float)
    if kind == EXPONENTIAL:
        inside = (phi >= 0) & (phi < np.inf)
        safe = np.where(inside, phi, 0.0)
        with np.errstate(over="ignore"):
            val = _xlogx(safe) - safe
    else:
        inside = (phi >= 0) & (phi <= 1)
        safe = np.where(inside, phi, 0.5)
        val = _xlogx(safe) + _xlogx(1.0 - safe)
    return np.where(inside, val, np.inf)


# ---------------------------------------------------------------------------
# public scalar operations

def _as_finite_scalar(x, name="x"):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def loss_eval(loss: LossSpec, x: float) -> float:
    """g(x); always positive."""
    return float(_g(loss.kind, _as_finite_scalar(x)))


def loss_grad(loss: LossSpec, x: float) -> float:
    """g'(x); always positive."""
    return float(_gp(loss.kind, _as_finite_scalar(x)))


def conj_eval(loss: LossSpec, phi: float) -> float:
    """g*(phi) as an extended real: +inf outside the conjugate domain."""
    return float(_gstar(loss.kind, float(phi)))


def conj_grad(loss: LossSpec, phi: float) -> float:
    """(g*)'(phi) on the interior of the conjugate domain.

    Inverts g': for the exponential loss this is ln(phi) on (0, inf),
    for the logistic loss the logit on (0, 1).  Boundary or exterior
    arguments raise, since the derivative is unbounded there.
    """
    phi = float(phi)
    lo, hi = (0.0, math.inf) if loss.kind == EXPONENTIAL else (0.0, 1.0)
    if not (lo < phi < hi):
        raise ValueError(
            f"conjugate derivative undefined at phi={phi}; "
            f"need phi strictly inside ({lo}, {hi})"
        )
    if loss.kind == EXPONENTIAL:
        return math.log(phi)
    return math.log(phi) - math.log1p(-phi)

