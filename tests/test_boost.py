"""Coordinate descent driver: selection rule, stopping precedence,
per-step guarantees, and trace round-trips."""

import dataclasses
import math

import numpy as np
import pytest

from boostcd import boost, fixtures
from boostcd.boost import (
    GRADIENT_BELOW_TOL,
    MAX_ITERS,
    TARGET_REACHED,
    ApproxSelector,
    RunConfig,
    StationaryGradientError,
    boost_step,
    initial_state,
    lam_from_steps,
    run,
    select_coordinate,
)
from boostcd.instance import make_instance
from boostcd.losses import LOGISTIC, RiskFunction, make_loss


def test_select_coordinate_picks_largest_magnitude():
    assert select_coordinate([-3.0, 2.0]) == (0, 1)
    assert select_coordinate([2.0, -3.0]) == (1, 1)
    assert select_coordinate([2.0, 2.0]) == (0, -1)  # sign opposes the gradient


def test_select_coordinate_ties_go_to_lowest_index():
    assert select_coordinate([-1.0, -1.0, -1.0]) == (0, 1)
    assert select_coordinate([1.0, -1.0]) == (0, -1)


def test_select_coordinate_rejects_bad_input():
    with pytest.raises(StationaryGradientError):
        select_coordinate([0.0, 0.0])
    with pytest.raises(ValueError):
        select_coordinate([1.0, math.nan])
    with pytest.raises(ValueError):
        select_coordinate([[1.0]])
    with pytest.raises(ValueError):
        select_coordinate([])
    with pytest.raises(ValueError):
        select_coordinate([1.0], selector="greedy")
    with pytest.raises(ValueError):
        select_coordinate([1.0], selector=0.5)


def test_approx_selector_validation():
    for c0 in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ApproxSelector(c0)
    assert ApproxSelector(1.0).pick is None


def test_approx_selector_pick_admissibility():
    g = np.array([-3.0, 2.0])
    # without a pick it falls back to the best coordinate
    assert select_coordinate(g, ApproxSelector(0.5)) == (0, 1)
    # (1, -1) has directional derivative 2 >= 0.5 * 3: admissible
    assert select_coordinate(g, ApproxSelector(0.5, lambda _: (1, -1))) == (1, -1)
    # (1, +1) ascends; rejected no matter the factor
    with pytest.raises(ValueError):
        select_coordinate(g, ApproxSelector(0.5, lambda _: (1, 1)))
    # below the admissibility factor
    with pytest.raises(ValueError):
        select_coordinate(g, ApproxSelector(0.9, lambda _: (1, -1)))
    with pytest.raises(ValueError):
        select_coordinate(g, ApproxSelector(0.5, lambda _: (2, -1)))
    with pytest.raises(ValueError):
        select_coordinate(g, ApproxSelector(0.5, lambda _: (0, 0)))


def test_initial_state_values():
    inst = fixtures.mixed_3x2()
    rf = RiskFunction(make_loss(LOGISTIC, inst.m), inst.m)
    st = initial_state(inst, rf)
    assert st.t == 0
    assert st.objective == 3 * math.log(2)
    assert np.array_equal(st.lam, np.zeros(2))
    assert np.array_equal(st.margins, np.zeros(3))
    assert np.array_equal(st.dual_weights, np.full(3, 0.5))
    assert np.array_equal(st.grad, [-0.5, -0.5])
    with pytest.raises(ValueError):
        st.lam[0] = 1.0


def test_first_exact_step_on_mixed_instance():
    inst = fixtures.mixed_3x2()
    rf = RiskFunction(make_loss(LOGISTIC, inst.m), inst.m)
    out = boost_step(inst, rf, initial_state(inst, rf),
                     RunConfig(line_search="exact"))
    assert (out.j, out.sign) == (0, 1)
    assert abs(out.alpha - math.log(2)) <= 1e-10
    assert out.state.t == 1
    assert out.state.objective < 3 * math.log(2)


def test_boost_step_requires_nonstationary_state():
    inst = fixtures.attainable_pair()
    rf = RiskFunction(make_loss(LOGISTIC, inst.m), inst.m)
    with pytest.raises(StationaryGradientError):
        boost_step(inst, rf, initial_state(inst, rf), RunConfig())


def test_run_already_stationary_at_zero():
    trace = run(fixtures.attainable_pair(), make_loss(LOGISTIC, 2))
    assert trace.status == GRADIENT_BELOW_TOL
    assert trace.records == []
    assert trace.initial_objective == 2 * math.log(2)
    assert trace.initial_grad_inf == 0.0
    assert trace.final_state.t == 0
    assert np.array_equal(trace.objectives(), [2 * math.log(2)])


def test_stopping_precedence():
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    # target beats gradient tolerance beats the cap
    trace = run(inst, loss, RunConfig(grad_tol=10.0, max_iters=0,
                                      target_objective=10.0))
    assert trace.status == TARGET_REACHED and trace.records == []
    trace = run(inst, loss, RunConfig(grad_tol=10.0, max_iters=0))
    assert trace.status == GRADIENT_BELOW_TOL and trace.records == []
    trace = run(inst, loss, RunConfig(max_iters=0))
    assert trace.status == MAX_ITERS and trace.records == []


def test_run_state_is_consistent_with_lam():
    inst = fixtures.attainable_slow()
    loss = make_loss(LOGISTIC, inst.m)
    trace = run(inst, loss, RunConfig(grad_tol=1e-6, max_iters=200))
    assert trace.status == GRADIENT_BELOW_TOL
    st = trace.final_state
    rf = RiskFunction(loss, inst.m)
    assert np.array_equal(st.margins, inst.a @ st.lam)
    assert np.array_equal(st.dual_weights, rf.grad(st.margins))
    assert np.array_equal(st.grad, inst.a.T @ st.dual_weights)
    assert np.max(np.abs(st.grad)) <= 1e-6


def test_objectives_strictly_decrease():
    inst = fixtures.mixed_3x2()
    trace = run(inst, make_loss(LOGISTIC, inst.m),
                RunConfig(grad_tol=1e-6, max_iters=80))
    fs = trace.objectives()
    assert len(fs) == len(trace.records) + 1
    assert np.all(np.diff(fs) < 0)


def test_trace_bookkeeping():
    inst = fixtures.weaklearn_3x3()
    trace = run(inst, make_loss("exp", inst.m),
                RunConfig(grad_tol=1e-6, max_iters=50))
    assert [r.t for r in trace.records] == list(range(1, len(trace.records) + 1))
    assert all(r.wall_time >= 0.0 for r in trace.records)
    assert all(r.sign in (-1, 1) for r in trace.records)
    # grad_inf is the pre-step norm, so the first record carries the
    # starting gradient
    assert trace.records[0].grad_inf == trace.initial_grad_inf


def test_trace_csv_round_trip_and_determinism():
    inst = fixtures.mixed_3x2()
    cfg = RunConfig(grad_tol=1e-6, max_iters=80)
    loss = make_loss(LOGISTIC, inst.m)
    a, b = run(inst, loss, cfg), run(inst, loss, cfg)
    assert a.to_csv() == b.to_csv()
    lines = a.to_csv().strip().split("\n")
    assert lines[0] == "t,objective,grad_inf,j,sign,alpha"
    steps = []
    for line in lines[1:]:
        t, obj, gi, j, sign, alpha = line.split(",")
        steps.append((int(j), int(sign), float(alpha)))
    assert np.array_equal(lam_from_steps(inst.n, steps), a.final_state.lam)


def test_lam_from_steps():
    lam = lam_from_steps(3, [(0, 1, 0.5), (2, -1, 0.25), (0, 1, 0.25)])
    assert np.array_equal(lam, [0.75, 0.0, -0.25])
    assert np.array_equal(lam_from_steps(2, []), [0.0, 0.0])


def test_closed_form_rejects_overflowed_curvature():
    # at m = 1100 the logistic curvature constant overflows to inf and
    # closed-form steps would be zero; the step must refuse instead
    inst = make_instance(np.full((1100, 1), -1.0))
    loss = make_loss(LOGISTIC, inst.m)
    assert not np.isfinite(loss.eta)
    rf = RiskFunction(loss, inst.m)
    with pytest.raises(ValueError, match="closed-form"):
        boost_step(inst, rf, initial_state(inst, rf), RunConfig(line_search="closed"))


def test_approx_selector_degraded_descent_guarantee():
    # adversarial pick: the weakest coordinate still admissible at c0
    c0 = 0.5

    def weakest(g):
        best = np.max(np.abs(g))
        j = min((k for k in range(g.size) if abs(g[k]) >= c0 * best),
                key=lambda k: (abs(g[k]), k))
        return j, (-1 if g[j] > 0 else 1)

    inst = fixtures.confidence_4x3()
    loss = make_loss(LOGISTIC, inst.m)
    cfg = RunConfig(grad_tol=1e-6, max_iters=30,
                    selector=ApproxSelector(c0, weakest))
    trace = run(inst, loss, cfg)
    baseline = run(inst, loss, RunConfig(grad_tol=1e-6, max_iters=30))
    # the adversary must actually deviate from the greedy choice
    assert [r.j for r in trace.records] != [r.j for r in baseline.records]
    fs = trace.objectives()
    for i, r in enumerate(trace.records):
        decrement = fs[i] - fs[i + 1]
        floor = (c0 * r.grad_inf) ** 2 / (6.0 * loss.eta * fs[i])
        assert decrement >= floor - 1e-12


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(line_search="newton")
    with pytest.raises(ValueError):
        RunConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        RunConfig(max_iters=-1)
    with pytest.raises(ValueError):
        RunConfig(grad_tol=math.nan)
    with pytest.raises(ValueError):
        RunConfig(target_objective=math.nan)


def _planted_attainable(m, n, seed):
    # rows orthogonal to a positive psi: psi > 0 is in ker(A^T), so the
    # hard core is every row and the risk attains its minimum
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.1, 1.0, size=m)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    a -= np.outer(psi, psi @ a) / (psi @ psi)
    return make_instance(a / np.max(np.abs(a)))


@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_wolfe_runs_past_the_roundoff_floor_to_the_gradient_tolerance(kind):
    # Near the optimum the decrease the Wolfe test asks for drops below
    # the roundoff of the objective (about 1e-14 here, at gradients near
    # 3e-7); the search must still find steps down to grad_tol 1e-10
    # instead of exhausting its bisection budget.
    inst = _planted_attainable(50, 20, 0)
    loss = make_loss(kind, inst.m)
    trace = run(inst, loss, RunConfig())
    assert trace.status == boost.GRADIENT_BELOW_TOL
    exact = run(inst, loss, RunConfig(line_search="exact"))
    assert exact.status == boost.GRADIENT_BELOW_TOL
    assert abs(trace.final_state.objective - exact.final_state.objective) <= 1e-12


def test_trace_records_line_search_evaluations():
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    trace = run(inst, loss, RunConfig(line_search="exact", grad_tol=1e-8, max_iters=200))
    evals = [r.evals for r in trace.records]
    # each exact step evaluates phi' at least at the bracket's upper end
    # and once inside; derivative bisection needs about 40
    assert len(evals) > 50 and min(evals) >= 2
    assert sum(evals) / len(evals) <= 12
    closed = run(inst, loss, RunConfig(line_search="closed", max_iters=5))
    assert [r.evals for r in closed.records] == [0] * 5
    assert closed.to_csv().startswith(boost.CSV_HEADER + "\n")


def test_run_across_refresh_periods_ends_on_margins_from_lam():
    inst = fixtures.mixed_3x2()
    iters = 3 * boost.REFRESH_EVERY + 5
    trace = run(inst, make_loss(LOGISTIC, inst.m),
                RunConfig(line_search="exact", grad_tol=0.0, max_iters=iters))
    assert trace.status == MAX_ITERS
    st = trace.final_state
    assert st.t == iters
    assert np.array_equal(st.margins, inst.a @ st.lam)
    assert trace.records[-1].objective == st.objective


def test_refresh_step_raises_on_drifted_margins():
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    rf = RiskFunction(loss, inst.m)
    cfg = RunConfig(line_search="exact", grad_tol=0.0)
    st = run(inst, loss, dataclasses.replace(cfg, max_iters=boost.REFRESH_EVERY - 1)).final_state
    assert boost_step(inst, rf, st, cfg).state.t == boost.REFRESH_EVERY
    drifted = dataclasses.replace(st, margins=st.margins + 1e-6)
    with pytest.raises(boost.MarginDriftError):
        boost_step(inst, rf, drifted, cfg)


@pytest.mark.parametrize("name", ["mixed-3x2", "attainable-slow"])
@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_long_exact_run_objectives_never_rise(name, kind):
    inst = fixtures.FIXTURES[name]()
    trace = run(inst, make_loss(kind, inst.m),
                RunConfig(line_search="exact", grad_tol=0.0, max_iters=8 * boost.REFRESH_EVERY))
    assert trace.status == MAX_ITERS
    fs = trace.objectives()
    assert np.all(fs[1:] <= fs[:-1] * (1.0 + 1e-12))
