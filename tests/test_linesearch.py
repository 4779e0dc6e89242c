"""Line searches on hand-solvable one-dimensional restrictions."""

import math

import pytest
from scipy.optimize import brentq

from boostcd import linesearch
from boostcd.linesearch import (
    LineSearchBudgetError,
    NotDescentDirectionError,
    RayUnboundedError,
    StepResult,
    exact_search,
    wolfe_search,
)


def _wolfe(phi, dphi):
    return wolfe_search(phi, dphi, phi0=phi(0.0), dphi0=dphi(0.0))


def _wolfe_trials(phi, dphi):
    """The search's result and the points where it evaluated phi."""
    seen = []
    res = wolfe_search(lambda a: seen.append(a) or phi(a), dphi,
                       phi0=phi(0.0), dphi0=dphi(0.0))
    return res, seen


def _exact(dphi):
    return exact_search(dphi, dphi0=dphi(0.0))


def _conditions(phi, dphi, alpha):
    decrease = phi(alpha) <= phi(0.0) + alpha * linesearch.C1 * dphi(0.0)
    curvature = dphi(alpha) >= linesearch.C2 * dphi(0.0)
    return decrease, curvature


def test_wolfe_on_shifted_quadratic():
    # phi(a) = (a-1)^2: with c1=1/3, c2=1/2 the admissible set is
    # [1/2, 4/3]; the bracket 1 -> 2 then midpoint 1 lands dead center.
    phi = lambda a: (a - 1.0) ** 2
    dphi = lambda a: 2.0 * (a - 1.0)
    res, seen = _wolfe_trials(phi, dphi)
    assert res.alpha == 1.0
    # the midpoint 1 was the first bracket end: phi is not evaluated again
    assert seen == [1.0, 2.0] and res.evals == 3
    assert 0.5 <= res.alpha <= 4.0 / 3.0
    assert all(_conditions(phi, dphi, res.alpha))


def test_wolfe_on_decaying_exponential():
    # phi(a) = e^-a: admissible set is [ln 2, a*] with a* solving
    # e^-a = 1 - a/3; bracketing doubles 1 -> 2 -> 4, bisection accepts 2.
    phi = lambda a: math.exp(-a)
    dphi = lambda a: -math.exp(-a)
    res, seen = _wolfe_trials(phi, dphi)
    assert seen == [1.0, 2.0, 4.0] and res.evals == 4
    upper = brentq(lambda a: math.exp(-a) - (1.0 - a / 3.0), 2.0, 3.0, xtol=1e-13)
    assert upper == pytest.approx(2.8214393721220787, rel=1e-12)
    assert res.alpha == 2.0
    assert math.log(2.0) <= res.alpha <= upper
    assert all(_conditions(phi, dphi, res.alpha))


def test_wolfe_rejects_non_descent():
    with pytest.raises(NotDescentDirectionError):
        _wolfe(lambda a: a, lambda a: 1.0)
    # -0.0 is not a descent slope either
    with pytest.raises(NotDescentDirectionError):
        _wolfe(lambda a: 0.0, lambda a: -0.0)


def test_wolfe_bracketing_budget(monkeypatch):
    # linear descent: the decrease condition holds at every doubling
    monkeypatch.setattr(linesearch, "MAX_DOUBLINGS", 5)
    with pytest.raises(LineSearchBudgetError) as err:
        _wolfe(lambda a: -a, lambda a: -1.0)
    lo, hi = err.value.interval
    assert lo == 0.0 and hi == 2.0 ** 5


def test_wolfe_bisection_budget_carries_interval(monkeypatch):
    # minimum crowded against 0: every early midpoint fails the
    # decrease test, so the budget runs out shrinking toward it
    phi = lambda a: 10.0 * (a - 0.1) ** 2
    dphi = lambda a: 20.0 * (a - 0.1)
    monkeypatch.setattr(linesearch, "MAX_REFINEMENTS", 1)
    with pytest.raises(LineSearchBudgetError) as err:
        _wolfe(phi, dphi)
    lo, hi = err.value.interval
    assert lo == 0.0 and hi == 0.5


def test_exact_search_finds_stationary_point():
    # phi(a) = (a - ln 2)^2 / 2
    dphi = lambda a: a - math.log(2.0)
    res = _exact(dphi)
    assert abs(res.alpha - math.log(2.0)) <= 1e-12
    assert abs(dphi(res.alpha)) <= 1e-12


def test_exact_search_rejects_non_descent():
    with pytest.raises(NotDescentDirectionError):
        _exact(lambda a: 0.5)
    with pytest.raises(NotDescentDirectionError):
        _exact(lambda a: -0.0)


def test_exact_search_unbounded_ray():
    # derivative never turns positive: the infimum is approached, not
    # attained.  Far out, -e^-a underflows to -0.0, which must still
    # count as "not decisively positive" rather than as a stationary
    # point (IEEE: -0.0 >= 0.0 is true).
    with pytest.raises(RayUnboundedError):
        _exact(lambda a: -math.exp(-a))


def test_exact_search_budget(monkeypatch):
    # curved, so no refinement lands on the root exactly; tol 1e-18 is
    # below the roundoff of phi' there
    monkeypatch.setattr(linesearch, "MAX_REFINEMENTS", 3)
    monkeypatch.setattr(linesearch, "EXACT_TOL", 1e-18)
    with pytest.raises(LineSearchBudgetError):
        _exact(lambda a: math.expm1(a) - 1.0)


def test_exact_search_returns_an_end_of_a_collapsed_bracket():
    # phi' = 1e4 (a^2 - 2) changes by about 6e-12 between adjacent
    # doubles near sqrt(2), more than tol, so no double meets |phi'| <=
    # tol; the bracket shrinks to two adjacent doubles around the root
    dphi = lambda a: 1e4 * (a * a - 2.0)
    res = _exact(dphi)
    assert abs(res.alpha - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    ends = (math.nextafter(res.alpha, 0.0), math.nextafter(res.alpha, 2.0))
    assert abs(dphi(res.alpha)) <= min(abs(dphi(a)) for a in ends)


def test_exact_search_solves_a_linear_derivative_in_one_refinement():
    # the bracket [0, 1] from doubling, then the secant of a linear phi'
    # through its ends is the root
    dphi = lambda a: a - math.log(2.0)
    res = exact_search(dphi, dphi0=dphi(0.0))
    assert res.evals == 2  # phi'(1), then the secant point
    assert abs(res.alpha - math.log(2.0)) <= 1e-15


def test_exact_search_falls_back_to_the_midpoint_on_infinite_derivatives():
    # phi' overflows to +inf past 3, as an exponential loss does at a
    # huge trial step: doubling brackets the root ln 12 in [2, 4] with
    # phi'(4) = inf, where the secant point is nan; midpoints shrink the
    # bracket until its upper end is finite, then secant steps converge
    calls = []

    def dphi(a):
        calls.append(a)
        return math.inf if a >= 3.0 else math.expm1(a) - 11.0

    res = _exact(dphi)
    assert calls[:6] == [0.0, 1.0, 2.0, 4.0, 3.0, 2.5]
    # every call but phi'(0), which the caller made; bisecting [2, 4] down
    # to tol would take about 40 more
    assert res.evals == len(calls) - 1 <= 15
    assert abs(dphi(res.alpha)) <= 1e-12
    assert abs(res.alpha - math.log(12.0)) <= 1e-12


def test_exact_search_beats_bisection_on_a_curved_derivative():
    # phi(a) = e^a - 2a: bisection from [0, 1] would need about 40
    # evaluations for tol 1e-12; Illinois converges superlinearly
    dphi = lambda a: math.expm1(a) - 1.0
    res = _exact(dphi)
    assert abs(dphi(res.alpha)) <= 1e-12
    assert res.evals <= 10


def test_step_result_is_plain_data():
    res = StepResult(1.5, 7)
    assert (res.alpha, res.evals) == (1.5, 7)


def test_wolfe_judges_steps_inside_the_roundoff_band_by_the_derivative():
    # phi(a) = 1000 + a (a - 2 a*) with a* = 2^-24: the whole decrease,
    # a*^2 = 3.6e-15, is below an ulp of phi (1.1e-13), and phi(0) is
    # handed in 2 ulps low, as when it comes from other margins.  Every
    # midpoint then fails the decrease test by roundoff alone; judged by
    # the derivative, a* itself is accepted.
    a_star = 2.0 ** -24
    phi = lambda a: 1000.0 + a * (a - 2.0 * a_star)
    dphi = lambda a: 2.0 * (a - a_star)
    phi0 = 1000.0 - 2.0 * math.ulp(1000.0)
    res = wolfe_search(phi, dphi, phi0=phi0, dphi0=dphi(0.0))
    assert res.alpha == a_star
    # handed in exactly, phi(0) rounds equal to phi(4 a*), so the
    # decrease test passes there by rounding although the step overshoots
    # the minimizer fourfold; the derivative there, 3 |phi'(0)|, rejects it
    res = _wolfe(phi, dphi)
    assert res.alpha == a_star


def test_wolfe_raises_the_lower_end_past_too_steep_midpoints():
    # phi' = -1 up to 1.5, then rises steeply: the midpoints 1 and 1.5
    # pass the decrease test but are still too steep, so each becomes the
    # lower end; 1.75 and 1.625 overshoot, and 1.5625 passes both tests
    shape = lambda a: -a + 100.0 * max(0.0, a - 1.5) ** 2
    slope = lambda a: -1.0 + 200.0 * max(0.0, a - 1.5)
    res = _wolfe(shape, slope)
    assert res.alpha == 1.5625
    assert all(_conditions(shape, slope, res.alpha))
    # scaled by 1e-12 onto 1000, every midpoint changes phi by less than
    # the roundoff band (1.4e-11), so phi' alone decides, moving the lower
    # end at 1 and 1.5 as before, until the approximate conditions hold
    res = _wolfe(lambda a: 1000.0 + 1e-12 * shape(a), lambda a: 1e-12 * slope(a))
    assert res.alpha == 1.50390625
    assert -0.5 <= slope(res.alpha) <= 1.0 / 3.0
