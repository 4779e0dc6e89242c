"""Loss family for boosting: exponential and logistic losses.

Losses here follow the margin convention in which the label is already
folded into the instance matrix, so every loss g is increasing, strictly
convex, positive everywhere, and vanishes at -infinity.  The empirical
risk is the coordinate-wise sum f(x) = sum_i g(x_i); its Fenchel
conjugate f*(psi) = sum_i g*(psi_i) prices nonnegative example
weightings and drives the dual certificates in :mod:`boostcd.structure`.

Both losses additionally satisfy the level-set inequality that the
step-size rules rely on: g'' <= eta * g, valid on the initial sublevel
set {x : g(x) <= m * g(0)}.  For the exponential loss eta = 1 exactly;
for the logistic loss it grows with the sample size m and is
deliberately conservative.  No step rule evaluates g'' itself, so it
stays internal (``_gpp``).  RiskFunction is the checked entry for
outside margins.  ``_g`` and ``_gp`` take float64 arrays and convert
nothing: the descent loop runs them on margins it built itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit, xlogy

EXPONENTIAL = "exp"
LOGISTIC = "logistic"
KINDS = (EXPONENTIAL, LOGISTIC)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class LossSpec:
    """A loss kind together with its sample-size-dependent constant."""

    kind: str
    eta: float
    sample_size_m: int


def make_loss(kind: str, m: int) -> LossSpec:
    """The loss with its level-set curvature constant eta for a sample of
    size m: eta bounds g''/g on the initial sublevel set.

    The exponential loss is a fixed point of differentiation, so eta = 1.
    For the logistic loss the initial level set reaches margins up to
    m*ln 2 and eta = 2^m / (m ln 2).  When 2^m overflows a double eta is
    +inf, which leaves closed-form steps unusable.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {KINDS}")
    m = int(m)
    if m < 1:
        raise ValueError("sample size m must be >= 1")
    if kind == EXPONENTIAL:
        return LossSpec(kind, 1.0, m)
    try:
        eta = 2.0 ** m / (m * LN2)
    except OverflowError:
        eta = math.inf
    return LossSpec(kind, eta, m)


# ---------------------------------------------------------------------------
# pointwise loss, derivatives, conjugate (array-friendly internals)

def _softplus(x):
    # ln(1 + e^x) without overflow on either tail
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _g(kind, x):
    if kind == EXPONENTIAL:
        return np.exp(x)
    return _softplus(x)


def _gp(kind, x):
    if kind == EXPONENTIAL:
        return np.exp(x)
    return expit(x)


def _gpp(kind, x):
    if kind == EXPONENTIAL:
        return np.exp(x)
    s = expit(np.asarray(x, dtype=float))
    return s * (1.0 - s)


def _gstar(kind, phi):
    """Fenchel conjugate g*(phi), extended-real valued (+inf off-domain).

    exp:      phi ln phi - phi on [0, inf), with g*(0) = 0.
    logistic: phi ln phi + (1-phi) ln(1-phi) on [0, 1], zero at both ends.
    Negative (resp. out-of-unit-interval) arguments give +inf.
    """
    phi = np.asarray(phi, dtype=float)
    if kind == EXPONENTIAL:
        inside = phi >= 0
        safe = np.where(inside, phi, 0.0)
        val = xlogy(safe, safe) - safe
    else:
        inside = (phi >= 0) & (phi <= 1)
        safe = np.where(inside, phi, 0.5)
        val = xlogy(safe, safe) + xlogy(1.0 - safe, 1.0 - safe)
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
    return float(logit(phi))


# ---------------------------------------------------------------------------
# empirical risk over margin vectors

@dataclass(frozen=True)
class RiskFunction:
    """Separable empirical risk f(x) = sum_i g(x_i) over m checked margins."""

    loss: LossSpec
    m: int

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be >= 1")
        if self.loss.sample_size_m != self.m:
            raise ValueError(
                f"loss constants were built for m={self.loss.sample_size_m}, "
                f"risk has m={self.m}"
            )

    def _vec(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"{name} must have shape ({self.m},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
        return v

    def value(self, margins) -> float:
        """f(margins) as a plain sum."""
        x = self._vec(margins, "margins")
        return float(np.sum(_g(self.loss.kind, x)))

    def grad(self, margins) -> np.ndarray:
        """Coordinate-wise g'(margins): the current dual example weights."""
        x = self._vec(margins, "margins")
        return _gp(self.loss.kind, x)

    def conj(self, psi) -> float:
        """f*(psi) = sum_i g*(psi_i), +inf if any coordinate is off-domain."""
        p = np.asarray(psi, dtype=float)
        if p.shape != (self.m,):
            raise ValueError(f"psi must have shape ({self.m},), got {p.shape}")
        if np.any(np.isnan(p)):
            raise ValueError("psi must not contain NaN")
        return float(np.sum(_gstar(self.loss.kind, p)))
