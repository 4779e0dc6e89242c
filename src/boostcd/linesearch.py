"""Step-size selection along a descent ray.

Three modes, all operating on the one-dimensional restriction
phi(alpha) = f(x + alpha * v) of a convex objective:

* ``wolfe_search``   bracketing/bisection for the sufficient-decrease and
                     curvature conditions,
* ``closed_form_step``  a conservative explicit step from the level-set
                     curvature constant eta,
* ``exact_search``   Illinois regula falsi on phi' to a near-stationary
                     point, used by the convergence experiments.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

WOLFE = "wolfe"
CLOSED_FORM = "closed"
EXACT = "exact"


# Half-width of the roundoff band around phi(0), in units of eps * |phi(0)|;
# see wolfe_search.
ROUNDOFF_BAND = 64.0

# Budgets shared by both searches: doublings of the upper bracket end, and
# refinements of the bracket (bisections or secant steps) after it.
MAX_DOUBLINGS = 200
MAX_REFINEMENTS = 200


class NotDescentDirectionError(ValueError):
    """phi'(0) >= 0: the ray does not descend."""


class RayUnboundedError(RuntimeError):
    """phi' stayed negative past the bracketing cap."""


class LineSearchBudgetError(RuntimeError):
    """Iteration budget exhausted; ``interval`` holds the last bracket."""

    def __init__(self, message, interval):
        super().__init__(f"{message} (last interval {interval[0]!r}..{interval[1]!r})")
        self.interval = tuple(interval)


@dataclass(frozen=True)
class WolfeParams:
    """The decrease (c1) and curvature (c2) constants of wolfe_search,
    with 0 < c1 < c2 < 1."""

    c1: float = 1.0 / 3.0
    c2: float = 1.0 / 2.0

    def __post_init__(self):
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class StepResult:
    alpha: float
    evals: int


def wolfe_search(phi, dphi, params: WolfeParams | None = None, *,
                 phi0: float | None = None, dphi0: float | None = None) -> StepResult:
    """Find a step satisfying both progress conditions

        (1)  phi(alpha) <= phi(0) + alpha * c1 * phi'(0)     (decrease)
        (2)  phi'(alpha) >= c2 * phi'(0)                     (curvature)

    by doubling an upper bracket while (1) still holds there, then
    bisecting: a midpoint violating (1) becomes the new upper end,
    one satisfying (1) but not (2) the new lower end.  Requires
    phi'(0) < 0 and phi bounded below; termination on such functions
    is guaranteed in exact arithmetic, and the budgets MAX_DOUBLINGS
    and MAX_REFINEMENTS (bisections) guard against floating-point
    stalls: running out of either raises LineSearchBudgetError.

    Near a minimizer the decrease (1) asks for can fall below the
    roundoff of phi itself: then every midpoint fails (1), or passes it
    by a rounding accident however far it overshoots.  So a midpoint
    with phi(alpha) within ROUNDOFF_BAND * eps * |phi(0)| of phi(0),
    where (1) cannot be resolved, is judged by phi' alone, on the
    approximate Wolfe conditions of Hager & Zhang (2005):

        c2 * phi'(0) <= phi'(alpha) <= (2 c1 - 1) * phi'(0),

    which for a quadratic phi are (1) and (2); one that fails them
    moves the end that phi' points away from.  The band's width: phi is
    a sum of m loss terms, each correct to a few ulps, which numpy adds
    pairwise with an error of order log2(m) ulps of the sum (under 40
    for any m that fits in memory); and phi(0) is often passed in from
    the iterate's margins A @ lam rather than computed from the ray's
    base + alpha * col, which moves it by a few ulps more (1-2 on planted
    50 x 20 instances).  A band of 64 eps |phi(0)| covers both.  A
    search whose midpoints all change phi by more than the band takes
    the same steps as without it.

    ``phi0``/``dphi0`` may pass along already-computed values of
    phi(0) and phi'(0).
    """
    p = params if params is not None else WolfeParams()
    evals = 0
    if phi0 is None:
        phi0 = float(phi(0.0))
        evals += 1
    if dphi0 is None:
        dphi0 = float(dphi(0.0))
        evals += 1
    if not dphi0 < 0.0:
        raise NotDescentDirectionError(f"phi'(0) = {dphi0!r} is not negative")
    band = ROUNDOFF_BAND * sys.float_info.epsilon * abs(phi0)

    def decreased(alpha, value):
        return value <= phi0 + alpha * p.c1 * dphi0

    hi = 1.0
    f_hi = float(phi(hi))
    evals += 1
    doublings = 0
    while decreased(hi, f_hi):
        if doublings >= MAX_DOUBLINGS:
            raise LineSearchBudgetError("bracketing budget exhausted", (0.0, hi))
        hi *= 2.0
        doublings += 1
        f_hi = float(phi(hi))
        evals += 1

    lo = 0.0
    alpha = hi / 2.0
    for _ in range(MAX_REFINEMENTS):
        value = float(phi(alpha))
        evals += 1
        if abs(value - phi0) <= band:
            slope = float(dphi(alpha))
            evals += 1
            if p.c2 * dphi0 <= slope <= (2.0 * p.c1 - 1.0) * dphi0:
                return StepResult(alpha, evals)
            if slope < p.c2 * dphi0:
                lo = alpha
            else:
                hi = alpha
        elif decreased(alpha, value):
            slope = float(dphi(alpha))
            evals += 1
            if slope >= p.c2 * dphi0:
                return StepResult(alpha, evals)
            lo = alpha
        else:
            hi = alpha
        alpha = (lo + hi) / 2.0
    raise LineSearchBudgetError("bisection budget exhausted", (lo, hi))


def closed_form_step(grad_inf_norm: float, objective: float, eta: float) -> float:
    """The explicit step ||grad||_inf / (eta * f).

    Conservative but line-search free; valid whenever the loss satisfies
    g'' <= eta * g on the current level set.
    """
    grad_inf_norm = float(grad_inf_norm)
    objective = float(objective)
    eta = float(eta)
    if not objective > 0.0:
        raise ValueError(f"objective must be positive, got {objective!r}")
    if grad_inf_norm < 0.0:
        raise ValueError("gradient norm must be nonnegative")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    return grad_inf_norm / (eta * objective)


def exact_search(dphi, tol: float = 1e-12, *, dphi0: float | None = None) -> StepResult:
    """Near-stationary step: alpha > 0 with |phi'(alpha)| <= tol.

    Doubles an upper end until the derivative is decisively positive
    (> tol), then shrinks the bracket [lo, hi] with the Illinois variant
    of regula falsi (Dowell & Jarratt 1971): each refinement evaluates
    phi' once, at the secant point of phi' through both ends, and
    replaces the end whose derivative has the same sign.  When the same
    end is replaced twice in a row, the stored derivative at the other
    end is halved, which keeps the secant from creeping in from one side
    and gives superlinear convergence on smooth phi'.  A secant point
    that is not finite or not strictly inside (lo, hi), as when phi'
    overflows to +inf at the upper end, is replaced by the midpoint.
    MAX_REFINEMENTS caps the number of refinement evaluations.

    The absolute ``tol`` can sit below the roundoff of phi' (a sum over m
    terms at large m), so the root may lie between two adjacent doubles
    at both of which |phi'| > tol.  When no double is left strictly
    inside (lo, hi), the end with the smaller |phi'| is returned; phi' is
    evaluated again at both ends for this, since the stored values may
    have been halved.

    If the derivative never turns positive within MAX_DOUBLINGS doublings
    the infimum is not attained along the ray and ``RayUnboundedError``
    is raised.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    evals = 0
    if dphi0 is None:
        dphi0 = float(dphi(0.0))
        evals += 1
    if not dphi0 < 0.0:
        raise NotDescentDirectionError(f"phi'(0) = {dphi0!r} is not negative")

    lo, hi = 0.0, 1.0
    d_lo = dphi0
    d_hi = float(dphi(hi))
    evals += 1
    doublings = 0
    while d_hi <= tol:
        if doublings >= MAX_DOUBLINGS:
            raise RayUnboundedError("infimum not attained along ray")
        lo, d_lo = hi, d_hi
        hi *= 2.0
        doublings += 1
        d_hi = float(dphi(hi))
        evals += 1

    replaced = 0  # +1 if the last refinement moved hi, -1 if lo
    for _ in range(MAX_REFINEMENTS):
        alpha = hi - d_hi * (hi - lo) / (d_hi - d_lo)
        if not lo < alpha < hi:  # also false for nan
            alpha = (lo + hi) / 2.0
            if not lo < alpha < hi:  # lo and hi are adjacent doubles
                alpha = min((lo, hi), key=lambda a: abs(float(dphi(a))))
                return StepResult(alpha, evals + 2)
        d = float(dphi(alpha))
        evals += 1
        if abs(d) <= tol:
            return StepResult(alpha, evals)
        if d > 0.0:
            hi, d_hi = alpha, d
            if replaced == 1:
                d_lo /= 2.0
            replaced = 1
        else:
            lo, d_lo = alpha, d
            if replaced == -1:
                d_hi /= 2.0
            replaced = -1
    raise LineSearchBudgetError("derivative search budget exhausted", (lo, hi))
