"""Loss family: scalar values, derivatives, conjugates, risk sums.

Frozen decimals come from a 40-digit mpmath evaluation of the same
formulas; they pin the implementation to the mathematical definitions
rather than to itself.
"""

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcd.losses import (
    EXPONENTIAL,
    LOGISTIC,
    KINDS,
    LossSpec,
    _g,
    _gp,
    _gp_on_ray,
    _gpp,
    _gstar,
    conj_eval,
    conj_grad,
    loss_eval,
    loss_grad,
    make_loss,
)

EXP3 = make_loss(EXPONENTIAL, 3)
LOG3 = make_loss(LOGISTIC, 3)


def test_a_loss_is_its_kind():
    # g'' <= g on all of R for both losses, so no constant depends on the
    # sample size: make_loss accepts an m, past m = 1023 too, where 2^m
    # overflows binary64, and ignores it
    assert [f.name for f in dataclasses.fields(LossSpec)] == ["kind"]
    for kind in KINDS:
        for m in (None, 1, 1100):
            assert make_loss(kind, m) == LossSpec(kind)
        assert make_loss(kind) == LossSpec(kind)


def test_constants_validation():
    with pytest.raises(ValueError):
        make_loss("hinge", 3)


def test_an_unknown_kind_is_refused_by_the_spec_itself():
    # every kernel's else branch is the logistic loss, so an unchecked
    # LossSpec("exponential") ran the logistic loss under another name
    for kind in ("exponential", "bogus"):
        with pytest.raises(ValueError, match="unknown loss kind"):
            LossSpec(kind)


def test_scalar_values_frozen():
    assert loss_eval(EXP3, 0.0) == 1.0
    assert loss_eval(EXP3, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert loss_eval(LOG3, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert loss_eval(LOG3, 1.5) == pytest.approx(1.7014132779827524, rel=1e-15)
    # softplus saturates to the identity without overflowing
    assert loss_eval(LOG3, 1000.0) == 1000.0
    assert loss_eval(LOG3, -1000.0) >= 0.0


def test_scalar_derivatives_frozen():
    assert loss_grad(EXP3, 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert loss_grad(LOG3, 0.0) == 0.5
    assert loss_grad(LOG3, -2.0) == pytest.approx(0.11920292202211756, rel=1e-14)
    assert _gpp(LOGISTIC, 0.0) == 0.25
    assert _gpp(LOGISTIC, 0.5) == pytest.approx(0.2350037122015945, rel=1e-14)
    assert _gpp(EXPONENTIAL, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_logistic_derivative_kernel_is_within_2_ulp():
    # 1 / (1 + e^-x) against a 40-digit reference, correctly rounded; past
    # -709.78 e^-x overflows and the kernel gives 0, within 1e-308 of the
    # true value, with no warning
    x = np.concatenate([np.linspace(-709.78, 800.0, 8001), np.linspace(-40.0, 40.0, 8001)])
    with localcontext() as ctx:
        ctx.prec = 40
        ref = np.array([float(1 / (1 + (-Decimal(v)).exp())) for v in x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _gp(LOGISTIC, x)
        below = _gp(LOGISTIC, np.linspace(-800.0, -709.79, 1001))
    assert np.max(np.abs(got.view(np.int64) - ref.view(np.int64))) <= 2
    assert np.all((below >= 0.0) & (below <= 1e-308))



def test_ray_kernel_matches_the_margin_kernel_bit_for_bit():
    # the line searches' weights at base + step * col are the ones _gp
    # gives at those margins, down to the logistic overflow tail
    rng = np.random.default_rng(7)
    col = rng.choice([-1.0, 1.0], 400) * rng.uniform(0.0, 1.0, 400)
    base = rng.uniform(-30.0, 30.0, 400)
    for kind in KINDS:
        for step in (0.0, 1e-3, -0.7, 3.25, -900.0, 900.0):
            with np.errstate(over="ignore"):
                got = _gp_on_ray(kind, col, step, base)
                want = _gp(kind, base + step * col)
            assert got.tobytes() == want.tobytes()

def test_scalar_input_validation():
    for fn in (loss_eval, loss_grad):
        with pytest.raises(ValueError):
            fn(EXP3, math.inf)
        with pytest.raises(ValueError):
            fn(LOG3, math.nan)


@pytest.mark.parametrize("loss", [EXP3, LOG3])
@given(x=st.floats(min_value=-30.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_derivatives_match_finite_differences(loss, x):
    h = 1e-6 * max(1.0, abs(x))
    fd_grad = (loss_eval(loss, x + h) - loss_eval(loss, x - h)) / (2 * h)
    fd_hess = (loss_grad(loss, x + h) - loss_grad(loss, x - h)) / (2 * h)
    scale = max(1e-12, abs(loss_grad(loss, x)))
    assert abs(fd_grad - loss_grad(loss, x)) <= 1e-4 * scale
    hess = _gpp(loss.kind, x)
    assert abs(fd_hess - hess) <= 1e-3 * max(1e-12, hess)


def test_conjugate_values_frozen():
    assert conj_eval(EXP3, 1.0) == -1.0
    assert conj_eval(EXP3, 0.0) == 0.0
    assert conj_eval(EXP3, math.e) == pytest.approx(0.0, abs=1e-15)
    assert conj_eval(EXP3, 2.5) == pytest.approx(-0.20927317031461234, rel=1e-14)
    assert conj_eval(LOG3, 0.5) == pytest.approx(-math.log(2.0), rel=1e-15)
    assert conj_eval(LOG3, 0.0) == 0.0
    assert conj_eval(LOG3, 1.0) == 0.0
    assert conj_eval(LOG3, 0.25) == pytest.approx(-0.5623351446188084, rel=1e-14)


def test_conjugate_off_domain_is_infinite():
    assert conj_eval(EXP3, -0.1) == math.inf
    assert conj_eval(LOG3, -1e-9) == math.inf
    assert conj_eval(LOG3, 1.0 + 1e-9) == math.inf


def test_exponential_conjugate_at_and_near_infinity():
    # phi ln phi - phi is +inf at phi = +inf (not inf - inf = NaN) and where
    # phi ln phi overflows, with no warning; finite values keep the formula
    phis = np.array([0.0, 1e-300, 0.5, 2.5, 1e300, 2.5e305])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conj_eval(EXP3, math.inf) == math.inf
        assert conj_eval(EXP3, 1.7e308) == math.inf
        assert np.sum(_gstar(EXPONENTIAL, np.array([math.inf, 0.0]))) == math.inf
        got = [conj_eval(EXP3, p) for p in phis]
        want = phis * np.log(phis, out=np.zeros_like(phis), where=phis > 0) - phis
    assert got == want.tolist() and all(map(math.isfinite, got))


def test_conjugate_gradient_inverts_loss_gradient():
    assert conj_grad(EXP3, 1.0) == 0.0
    assert conj_grad(EXP3, math.e) == pytest.approx(1.0, rel=1e-15)
    assert conj_grad(LOG3, 0.5) == 0.0
    for loss in (EXP3, LOG3):
        for x in (-7.3, -1.0, 0.0, 0.4, 1.7):
            back = conj_grad(loss, loss_grad(loss, x))
            assert abs(back - x) <= 1e-10 * max(1.0, abs(x))


def test_conjugate_gradient_rejects_boundary():
    with pytest.raises(ValueError):
        conj_grad(EXP3, 0.0)
    with pytest.raises(ValueError):
        conj_grad(EXP3, -1.0)
    with pytest.raises(ValueError):
        conj_grad(LOG3, 0.0)
    with pytest.raises(ValueError):
        conj_grad(LOG3, 1.0)


@pytest.mark.parametrize("loss", [EXP3, LOG3])
@given(x=st.floats(min_value=-30.0, max_value=5.0))
@settings(max_examples=300, deadline=None)
def test_fenchel_young_equality_at_gradient_pairs(loss, x):
    # g(x) + g*(g'(x)) = x g'(x) holds with equality when phi = g'(x)
    phi = loss_grad(loss, x)
    lhs = loss_eval(loss, x) + conj_eval(loss, phi)
    assert abs(lhs - x * phi) <= 1e-9


@pytest.mark.parametrize("loss", [EXP3, LOG3])
@given(x=st.floats(min_value=-30.0, max_value=5.0),
       phi=st.floats(min_value=1e-6, max_value=0.999999))
@settings(max_examples=200, deadline=None)
def test_fenchel_young_inequality(loss, x, phi):
    # for arbitrary (x, phi) pairs the inequality direction must hold
    assert loss_eval(loss, x) + conj_eval(loss, phi) >= x * phi - 1e-9


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_level_set_inequalities(kind, m):
    # g'' <= g on the initial sublevel set {x : g(x) <= m g(0)}; its
    # right edge for the logistic loss is ln(2^m - 1), for the
    # exponential loss ln m.
    loss = make_loss(kind, m)
    if kind == EXPONENTIAL:
        edge = math.log(m)
    else:
        edge = math.log(2.0 ** m - 1.0)
    for x in np.linspace(-40.0, edge, 400):
        g = loss_eval(loss, x)
        assert _gpp(kind, x) <= g * (1 + 1e-12)


def test_risk_values_and_gradient():
    # the risk is a plain sum of the kernel's values
    assert np.sum(_g(LOGISTIC, np.zeros(3))) == pytest.approx(3 * math.log(2.0), rel=1e-15)
    np.testing.assert_allclose(_gp(LOGISTIC, np.zeros(3)), 0.5, rtol=1e-15)
    assert np.sum(_g(EXPONENTIAL, np.zeros(3))) == 3.0
    # large-margin exponential sums stay a plain sum, accurate to roundoff
    big = np.sum(_g(EXPONENTIAL, np.array([40.0, 0.0, -3.0])))
    assert big == pytest.approx(2.3538526683702e17, rel=1e-13)
    huge = np.sum(_g(EXPONENTIAL, np.full(4, 400.0)))
    assert huge == pytest.approx(4 * math.exp(400.0), rel=1e-15)


def test_risk_gradient_leaves_its_input_unchanged():
    # the descent loop hands _gp the float64 margins it keeps, so _gp
    # forms g' in a buffer of its own and never writes its argument
    for kind in KINDS:
        x = np.array([-800.0, 0.5, 3.0])
        w = _gp(kind, x)
        assert x.tolist() == [-800.0, 0.5, 3.0]
        assert w is not x and not np.shares_memory(w, x)


def test_risk_conjugate():
    # f*(psi) is the sum of g*(psi_i): +inf if any coordinate is off-domain
    half = np.sum(_gstar(LOGISTIC, np.full(3, 0.5)))
    assert half == pytest.approx(-3 * math.log(2.0), rel=1e-15)
    assert np.sum(_gstar(LOGISTIC, np.array([0.5, 0.5, 1.5]))) == math.inf
    assert np.sum(_gstar(LOGISTIC, np.zeros(3))) == 0.0
