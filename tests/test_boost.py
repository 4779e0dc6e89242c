"""Coordinate descent driver: selection rule, stopping precedence,
per-step guarantees, and trace round-trips."""

import collections
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from boostcd import boost, cli, fixtures, structure
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
)
from boostcd.instance import make_instance, write_instance
from boostcd.linesearch import RayUnboundedError
from boostcd.losses import LOGISTIC, _g, _gp, make_loss
from references import planted


def _step_along(grad, selector=None):
    """(j, sign) of a closed-form boost_step from confidence_4x3's start
    with its gradient replaced by ``grad``; the closed form takes the
    step without a line search along the made-up gradient."""
    inst = fixtures.confidence_4x3()
    loss = make_loss(LOGISTIC, inst.m)
    grad = np.array(grad, dtype=float)
    state = dataclasses.replace(initial_state(inst, loss), grad=grad,
                                grad_inf=float(np.max(np.abs(grad))))
    out = boost_step(inst, loss, state, RunConfig(line_search="closed", selector=selector))
    assert out.state.lam[out.j] == out.sign * out.alpha
    return out.j, out.sign


@pytest.mark.parametrize("selector", [None, ApproxSelector(0.5)])
def test_step_picks_the_largest_magnitude_against_the_gradient(selector):
    assert _step_along([-3.0, 2.0, 0.0], selector) == (0, 1)
    assert _step_along([2.0, -3.0, 1.0], selector) == (1, 1)
    assert _step_along([0.0, 2.0, 2.0], selector) == (1, -1)  # sign opposes the gradient


def test_step_ties_go_to_the_lowest_index():
    assert _step_along([-1.0, -1.0, -1.0]) == (0, 1)
    assert _step_along([1.0, -1.0, 0.5]) == (0, -1)


def test_approx_selector_validation():
    for c0 in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ApproxSelector(c0)
    assert ApproxSelector(1.0).pick is None


def test_approx_selector_pick_admissibility():
    g = [-3.0, 2.0, 0.0]
    # (1, -1) has directional derivative 2 >= 0.5 * 3: admissible
    assert _step_along(g, ApproxSelector(0.5, lambda _: (1, -1))) == (1, -1)
    # (1, +1) ascends; rejected no matter the factor
    with pytest.raises(ValueError, match="violates the c0 admissibility bound"):
        _step_along(g, ApproxSelector(0.5, lambda _: (1, 1)))
    # below the admissibility factor
    with pytest.raises(ValueError, match="violates the c0 admissibility bound"):
        _step_along(g, ApproxSelector(0.9, lambda _: (1, -1)))
    for bad in ((3, -1), (-1, 1), (0, 0)):
        with pytest.raises(ValueError, match="selector returned invalid pair"):
            _step_along(g, ApproxSelector(0.5, lambda _, bad=bad: bad))


def test_initial_state_values():
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    st = initial_state(inst, loss)
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
    loss = make_loss(LOGISTIC, inst.m)
    out = boost_step(inst, loss, initial_state(inst, loss),
                     RunConfig(line_search="exact"))
    assert (out.j, out.sign) == (0, 1)
    assert abs(out.alpha - math.log(2)) <= 1e-10
    assert out.state.t == 1
    assert out.state.objective < 3 * math.log(2)


def test_boost_step_requires_nonstationary_state():
    inst = fixtures.attainable_pair()
    loss = make_loss(LOGISTIC, inst.m)
    with pytest.raises(StationaryGradientError):
        boost_step(inst, loss, initial_state(inst, loss), RunConfig())


def test_run_already_stationary_at_zero():
    trace = run(fixtures.attainable_pair(), make_loss(LOGISTIC, 2))
    assert trace.status == GRADIENT_BELOW_TOL
    assert trace.records == []
    assert trace.initial_objective == 2 * math.log(2)
    assert trace.final_state.grad_inf == 0.0
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
    assert np.array_equal(st.margins, inst.a @ st.lam)
    assert np.array_equal(st.dual_weights, _gp(loss.kind, st.margins))
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
    assert trace.records[0].grad_inf == initial_state(inst, make_loss("exp", inst.m)).grad_inf


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
    # integral numbers of any type and CSV text are column indices
    lam = lam_from_steps(2, [(1.0, 1, 0.5), (np.int64(0), -1.0, 0.25), ("1", "-1", "0.125")])
    assert np.array_equal(lam, [-0.25, 0.375])


@pytest.mark.parametrize("bad", [
    ("-1", "1", "0.5"),  # would wrap to the last column
    ("2", "1", "0.5"),
    ("0", "0", "0.5"),
    ("0", "2", "0.5"),
    ("0", "1", "nan"),
    ("0", "-1", "inf"),
    ("0", "1", None),  # a short CSV row
    ("x", "1", "0.5"),
    (1.5, 1, 0.25),  # would truncate to column 1
    (True, -1, 0.5),  # a boolean is not a column index
    (np.True_, 1, 0.5),
    (1, True, 0.5),  # nor a sign
    (math.inf, 1, 0.5),
])
def test_lam_from_steps_rejects_malformed_steps(bad):
    with pytest.raises(ValueError, match="step row 2: "):
        lam_from_steps(2, [("1", "1", "0.25"), bad])


def test_first_closed_form_step_on_mixed_instance():
    # grad_inf 1/2 and f = 3 ln 2: the step ||grad||_inf / f, safe since
    # g'' <= g, is 1 / (6 ln 2)
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    start = initial_state(inst, loss)
    out = boost_step(inst, loss, start, RunConfig(line_search="closed"))
    assert (out.j, out.sign, out.evals) == (0, 1, 0)
    assert start.grad_inf == 0.5
    assert out.alpha == 0.5 / start.objective
    assert out.alpha == pytest.approx(1.0 / (6.0 * math.log(2)), rel=1e-15)
    assert out.state.objective < 3 * math.log(2)


def test_closed_form_descends_at_large_m():
    # at m = 1100, where a curvature constant 2^m / (m ln 2) would
    # overflow, g'' <= g still holds: every closed-form step descends, the
    # first by ||grad||_inf / f = (m / 2) / (m ln 2)
    inst = make_instance(np.full((1100, 1), -1.0))
    loss = make_loss(LOGISTIC, inst.m)
    trace = run(inst, loss, RunConfig(line_search="closed", max_iters=30))
    assert trace.status == MAX_ITERS
    assert trace.records[0].alpha == pytest.approx(0.5 / math.log(2), rel=1e-14)
    fs = trace.objectives()
    assert np.all(np.diff(fs) < 0.0)
    assert fs[-1] < 1e-3 * fs[0]


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
        floor = (c0 * r.grad_inf) ** 2 / (6.0 * fs[i])
        assert decrement >= floor - 1e-12


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(line_search="newton")
    with pytest.raises(ValueError):
        RunConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        RunConfig(max_iters=-1)
    for not_int in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            RunConfig(max_iters=not_int)
    assert RunConfig(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        RunConfig(grad_tol=math.nan)
    with pytest.raises(ValueError):
        RunConfig(target_objective=math.nan)
    for not_selector in (0.5, "greedy", (lambda g: (0, 1))):
        with pytest.raises(ValueError, match="selector must be None or an ApproxSelector"):
            RunConfig(selector=not_selector)


def test_every_step_selects_through_one_rule(monkeypatch):
    # With or without a selector, each step picks its coordinate by one
    # call of boost._select; a selector without a pick steps as none does.
    calls = []
    select = boost._select

    def counting(g, best, selector):
        calls.append(selector)
        return select(g, best, selector)

    monkeypatch.setattr(boost, "_select", counting)
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    greedy = run(inst, loss, RunConfig(grad_tol=0.0, max_iters=20))
    assert calls == [None] * 20
    selector = ApproxSelector(0.5)
    approx = run(inst, loss, RunConfig(grad_tol=0.0, max_iters=20, selector=selector))
    assert calls == [None] * 20 + [selector] * 20
    assert approx.to_csv() == greedy.to_csv()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boost_step_rejects_a_non_finite_gradient(bad):
    inst = fixtures.confidence_4x3()
    loss = make_loss(LOGISTIC, inst.m)
    state = initial_state(inst, loss)
    grad = np.array(state.grad)
    grad[1] = bad
    state = dataclasses.replace(state, grad=grad, grad_inf=float(np.max(np.abs(grad))))
    for cfg in (RunConfig(), RunConfig(selector=ApproxSelector(0.5))):
        with pytest.raises(ValueError, match="grad must be finite"):
            boost_step(inst, loss, state, cfg)


def test_run_rejects_an_inadmissible_selector_pick():
    def ascending(g):  # the best coordinate, but stepped uphill
        j = int(np.argmax(np.abs(g)))
        return j, (1 if g[j] > 0 else -1)

    inst = fixtures.confidence_4x3()
    cfg = RunConfig(max_iters=5, selector=ApproxSelector(0.5, ascending))
    with pytest.raises(ValueError, match="violates the c0 admissibility bound"):
        run(inst, make_loss(LOGISTIC, inst.m), cfg)


@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_wolfe_runs_past_the_roundoff_floor_to_the_gradient_tolerance(kind):
    # Near the optimum the decrease the Wolfe test asks for drops below
    # the roundoff of the objective (about 1e-14 here, at gradients near
    # 3e-7); the search must still find steps down to grad_tol 1e-10
    # instead of exhausting its bisection budget.
    inst = planted("attainable", 50, 20, 0)
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


# Caps on line-search evaluations, as (most in one step, most in one run),
# over 200-step runs with grad_tol = 0 on ``planted`` 50x20 seeds 0-2 with
# both losses: the largest value seen plus one, since roundoff can move
# the counts.  Seen: Wolfe 5/626 weakly learnable, 7/1104 mixed, 18/2579
# attainable; exact 15/1103, 10/1429 and 8/1230.
EVAL_CAPS = {
    ("wolfe", "weak_learnable"): (6, 627), ("wolfe", "mixed"): (8, 1105),
    ("wolfe", "attainable"): (19, 2580), ("exact", "weak_learnable"): (16, 1104),
    ("exact", "mixed"): (11, 1430), ("exact", "attainable"): (9, 1231),
}


@pytest.mark.parametrize("line_search, regime", sorted(EVAL_CAPS))
def test_line_search_evaluations_stay_within_their_caps(line_search, regime):
    step_cap, run_cap = EVAL_CAPS[line_search, regime]
    for kind in ("logistic", "exp"):
        for seed in range(3):
            inst = planted(regime, 50, 20, seed)
            trace = run(inst, make_loss(kind, inst.m),
                        RunConfig(line_search=line_search, grad_tol=0.0, max_iters=200))
            evals = [r.evals for r in trace.records]
            assert len(evals) == 200
            assert max(evals) <= step_cap and sum(evals) <= run_cap, (kind, seed)


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
    cfg = RunConfig(line_search="exact", grad_tol=0.0)
    st = run(inst, loss, dataclasses.replace(cfg, max_iters=boost.REFRESH_EVERY - 1)).final_state
    assert boost_step(inst, loss, st, cfg).state.t == boost.REFRESH_EVERY
    drifted = dataclasses.replace(st, margins=st.margins + 1e-6)
    with pytest.raises(boost.MarginDriftError):
        boost_step(inst, loss, drifted, cfg)


@pytest.mark.parametrize("name", ["mixed-3x2", "attainable-slow"])
@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_long_exact_run_objectives_never_rise(name, kind):
    inst = fixtures.FIXTURES[name]()
    trace = run(inst, make_loss(kind, inst.m),
                RunConfig(line_search="exact", grad_tol=0.0, max_iters=8 * boost.REFRESH_EVERY))
    assert trace.status == MAX_ITERS
    fs = trace.objectives()
    assert np.all(fs[1:] <= fs[:-1] * (1.0 + 1e-12))


@pytest.mark.parametrize("line_search", boost.LINE_SEARCHES)
@pytest.mark.parametrize("kind", ["logistic", "exp"])
@pytest.mark.parametrize("regime, m, n", [("weak_learnable", 200, 60),
                                          ("mixed", 120, 40), ("attainable", 80, 30)])
def test_every_record_replays_to_its_objective_from_a_at_lam(regime, m, n, kind, line_search):
    # The objective each record carries comes from margins the loop updated
    # along one column; rebuilt from the trace alone it is sum g(A @ lam) to
    # within roundoff, however BLAS orders its sums.
    inst = planted(regime, m, n, 0)
    assert structure.regime_of(len(structure.hard_core(inst)), m) == regime
    loss = make_loss(kind, m)
    trace = run(inst, loss, RunConfig(line_search=line_search, grad_tol=0.0,
                                      max_iters=2 * boost.REFRESH_EVERY + 10))
    assert len(trace.records) == 2 * boost.REFRESH_EVERY + 10
    steps = [(r.j, r.sign, r.alpha) for r in trace.records]
    for r in trace.records:
        expected = float(np.sum(_g(kind, inst.a @ lam_from_steps(n, steps[:r.t]))))
        assert abs(r.objective - expected) <= 1e-12 * expected, (r.t, r.objective, expected)


@pytest.mark.parametrize("line_search", boost.LINE_SEARCHES)
@pytest.mark.parametrize("kind", ["logistic", "exp"])
@pytest.mark.parametrize("regime, m, n", [("weak_learnable", 120, 40),
                                          ("mixed", 120, 40), ("attainable", 80, 30)])
def test_every_step_state_matches_the_checked_loss_entry(regime, m, n, kind, line_search):
    # The loop runs the kernels on margins it built itself; every state
    # boost_step returns, the running-margin ones included, carries the
    # numbers the kernels give on its margins, with one plain sum.
    inst = planted(regime, m, n, 1)
    loss = make_loss(kind, m)
    cfg = RunConfig(line_search=line_search, grad_tol=0.0)
    state = initial_state(inst, loss)
    for t in range(1, boost.REFRESH_EVERY + 11):
        state = boost_step(inst, loss, state, cfg).state
        assert state.t == t
        weights = _gp(kind, state.margins)
        assert state.objective == float(np.sum(_g(kind, state.margins))), t
        assert state.dual_weights.tobytes() == weights.tobytes(), t
        assert state.grad_inf == float(np.max(np.abs(inst.a.T @ weights))), t


def test_a_column_permutation_relabels_the_descent():
    # a metamorphic relation: permuting A's columns only renames the weak
    # learners, so each step selects the image of the original's column
    # and the objectives agree to roundoff (BLAS sums A @ lam in another
    # order; planted instances have no ties in the gradient)
    perm = np.random.default_rng(5).permutation(20)
    for regime in ("weak_learnable", "attainable", "mixed"):
        inst = planted(regime, 50, 20, 0)
        permuted = make_instance(inst.a[:, perm])
        for kind in ("logistic", "exp"):
            loss = make_loss(kind, inst.m)
            for line_search in (boost.linesearch.WOLFE, boost.linesearch.EXACT):
                cfg = RunConfig(line_search=line_search, grad_tol=0.0, max_iters=150)
                ref, out = run(inst, loss, cfg).records, run(permuted, loss, cfg).records
                assert len(ref) == len(out) == 150
                assert [r.j for r in ref] == [perm[r.j] for r in out]
                assert [r.sign for r in ref] == [r.sign for r in out]
                for r, o in zip(ref, out):
                    assert abs(r.objective - o.objective) <= 1e-12 * r.objective


@pytest.mark.parametrize("line_search", [boost.linesearch.WOLFE, boost.linesearch.EXACT])
@pytest.mark.parametrize("kind", ["logistic", "exp"])
@pytest.mark.parametrize("m, n", [(50, 20), (600, 60)])
def test_states_reuse_the_last_search_evaluation_bit_for_bit(m, n, kind, line_search,
                                                             monkeypatch):
    # A state takes its weights, and after a Wolfe search its objective,
    # from the search's last evaluation when that is at the accepted step;
    # they equal the kernels at the state's margins bit for bit.  Every
    # search here ends at its accepted step, so g' is computed only by
    # the rebuild at t = REFRESH_EVERY.
    kernel_calls = []

    def counting(kind_, x):
        kernel_calls.append(1)
        return _gp(kind_, x)

    monkeypatch.setattr(boost, "_gp", counting)
    steps = boost.REFRESH_EVERY + 16
    for regime in ("weak_learnable", "attainable", "mixed"):
        inst = planted(regime, m, n, 0)
        loss = make_loss(kind, m)
        cfg = RunConfig(line_search=line_search, grad_tol=0.0)
        state = initial_state(inst, loss)
        kernel_calls.clear()
        for t in range(1, steps + 1):
            state = boost_step(inst, loss, state, cfg).state
            assert state.dual_weights.tobytes() == _gp(kind, state.margins).tobytes(), t
            assert state.objective == float(np.add.reduce(_g(kind, state.margins))), t
        assert len(kernel_calls) == steps // boost.REFRESH_EVERY, regime


def test_logistic_exact_step_along_a_column_that_beats_every_row():
    # the margins along column 0 fall without bound, so the logistic
    # weights' e^-x overflows; the search ignores that and raises
    inst = make_instance([[-1.0, 0.5], [-0.5, -1.0], [-1.0, 0.0]])
    loss = make_loss(LOGISTIC, inst.m)
    state = initial_state(inst, loss)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RayUnboundedError):
            boost_step(inst, loss, state, RunConfig(line_search="exact"))


def _count_products(inst):
    """Put on ``inst`` a view of A that counts the 2-D matrix products it is
    the left operand of, by its shape: (m, n) for A @ lam, (n, m) for
    A.T @ w.  Products come back as plain arrays, so the count does not
    follow them through the loop."""
    counts = collections.Counter()

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__" and np.ndim(inputs[0]) == 2:
                counts[np.shape(inputs[0])] += 1
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    object.__setattr__(inst, "a", inst.a.view(Counting))
    return counts


@pytest.mark.parametrize("kind, line_search", [(LOGISTIC, "wolfe"), ("exp", "exact")])
@pytest.mark.parametrize("steps", [100, 2 * boost.REFRESH_EVERY, 130])
def test_a_capped_run_passes_over_a_once_per_step(steps, kind, line_search):
    # Each state forms A.T @ w once.  A @ lam is formed at the start and at
    # every REFRESH_EVERY-th step; a last step off that period is rebuilt
    # from A @ lam too, as the cap holds there, at one more A.T @ w.
    inst = planted("mixed", 50, 20, 0)
    counts = _count_products(inst)
    trace = run(inst, make_loss(kind), RunConfig(line_search=line_search, grad_tol=0.0,
                                                 max_iters=steps))
    assert trace.status == MAX_ITERS
    tail = int(steps % boost.REFRESH_EVERY != 0)
    assert counts == {(20, 50): 1 + steps + tail,
                      (50, 20): 1 + steps // boost.REFRESH_EVERY + tail}


@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_one_loss_argument_runs_the_whole_descent_api(kind, tmp_path, capsys):
    inst = planted("attainable", 50, 20, 0)
    loss = make_loss(kind)
    cfg = RunConfig(grad_tol=0.0, max_iters=70)
    trace = run(inst, loss, cfg)
    # a loss made for a sample size, as the benchmark makes it, is this one
    assert run(inst, make_loss(kind, inst.m), cfg).to_csv() == trace.to_csv()
    state = initial_state(inst, loss)
    while state.t < cfg.max_iters:
        state = boost_step(inst, loss, state, cfg).state
    assert state.lam.tobytes() == trace.final_state.lam.tobytes()
    assert state.objective == trace.final_state.objective
    cert = structure.dual_certificate(inst, loss, trace.final_state)
    assert cert is not None
    path, trace_path = tmp_path / "inst.json", tmp_path / "trace.csv"
    write_instance(inst, path)
    trace_path.write_text(trace.to_csv())
    assert cli.main(["certify", str(path), "--loss", kind, "--trace", str(trace_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"psi": cert.psi.tolist(), "dual_value": cert.dual_value,
                       "gap_bound": cert.gap_bound}


def _ladder(top, rows, up):
    """2 * rows powers of two from ``top``: down by halvings or up by doublings."""
    return [math.ldexp(top, k if up else -k) for k in range(2 * rows)]


@pytest.mark.parametrize("kind", ["logistic", "exp"])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 50, boost._LADDER_ENTRIES // 4,
                               boost._LADDER_ENTRIES // 4 + 1, boost._LADDER_ENTRIES - 1,
                               boost._LADDER_ENTRIES])
def test_ladder_rows_are_the_single_evaluations_bit_for_bit(m, kind):
    # phi's ladder passes must give each point the bits of its own pass
    # (the single evaluation), on ladders down from 1 and up from 2, with
    # margins of +-900 where the exp rows overflow to +inf: under the
    # step's errstate, and with no RuntimeWarning
    rng = np.random.default_rng(m)
    col = rng.uniform(-1.0, 1.0, m)
    base = rng.choice([-900.0, 900.0], m) + rng.uniform(-1.0, 1.0, m)
    rows = boost._LADDER_ROWS
    for s in (1.0, -1.0):
        for alphas in (_ladder(1.0, rows, False), _ladder(2.0, rows, True)):
            with warnings.catch_warnings(), np.errstate(over="ignore"):
                warnings.simplefilter("error")
                ladder, values = boost._ray_phi(kind, col, base, s, rows)
                single = boost._ray_phi(kind, col, base, s, 1)[0]
                got = [ladder(a) for a in alphas]
                want = [single(a) for a in alphas]
            assert len(values) == len(alphas)  # two passes served every request
            assert np.array(got).tobytes() == np.array(want).tobytes(), (s, alphas[0])
            if kind == "exp" and base.max() > 0:
                assert math.inf in got


@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_one_row_ladders_leave_every_run_output_unchanged(kind, monkeypatch):
    # the rows per pass are a speed setting only: with every pass one row,
    # each point's single evaluation, a Wolfe run writes the same CSV and
    # evaluation counts and ends at the same bits; a numpy whose 2-D
    # kernels or row sums round differently fails here
    insts = [f() for f in fixtures.FIXTURES.values()] + [planted("mixed", 50, 20, 0)]
    assert len(insts) == 9
    cfg = RunConfig(max_iters=300)

    def outputs():
        out = []
        for inst in insts:
            trace = run(inst, make_loss(kind), cfg)
            st = trace.final_state
            out.append((trace.to_csv(), [r.evals for r in trace.records], st.lam.tobytes(),
                        st.dual_weights.tobytes(), st.objective))
        return out

    ladders = outputs()
    monkeypatch.setattr(boost, "_LADDER_ENTRIES", 0)
    assert boost._ladder_rows(1) == 1
    assert outputs() == ladders


# boost._g calls over 200-step Wolfe runs with grad_tol = 0, as (logistic,
# exp): the counts seen plus 2% for roundoff.  Seen 235/205 on
# attainable-slow (m = 3) and 217/211 on planted mixed 50x20; with one row
# per pass they are 2203/1996 and 800/877.
G_CALL_CAPS = {"attainable-slow": (240, 210), "mixed-50x20": (222, 216)}


def _count_loss_passes(monkeypatch):
    """Count boost._g calls, 2-D (ladder) ones among them, and g' evaluations on the ray."""
    counts = collections.Counter()
    g, gp_on_ray = boost._g, boost._gp_on_ray

    def counting_g(kind, x):
        counts["g"] += 1
        counts["ladder"] += np.ndim(x) == 2
        return g(kind, x)

    def counting_gp(*args):
        counts["dphi"] += 1
        return gp_on_ray(*args)

    monkeypatch.setattr(boost, "_g", counting_g)
    monkeypatch.setattr(boost, "_gp_on_ray", counting_gp)
    return counts


@pytest.mark.parametrize("name", sorted(G_CALL_CAPS))
def test_wolfe_loss_passes_stay_within_their_pins(name, monkeypatch):
    counts = _count_loss_passes(monkeypatch)
    inst = (fixtures.attainable_slow() if name == "attainable-slow"
            else planted("mixed", 50, 20, 0))
    for kind, cap in zip(("logistic", "exp"), G_CALL_CAPS[name]):
        counts.clear()
        trace = run(inst, make_loss(kind), RunConfig(grad_tol=0.0, max_iters=200))
        assert len(trace.records) == 200
        assert counts["g"] <= cap, (kind, counts)


@pytest.mark.parametrize("kind", ["logistic", "exp"])
def test_above_the_ladder_budget_phi_computes_no_speculative_rows(kind, monkeypatch):
    # at m = 600 every pass is one row: the kernels run once per phi
    # evaluation, plus once for the start and for each rebuild from A @ lam
    assert [boost._ladder_rows(m) for m in (3, 50, 128, 129, 600)] == [16, 10, 4, 1, 1]
    counts = _count_loss_passes(monkeypatch)
    inst = planted("mixed", 600, 60, 0)
    steps = 200
    trace = run(inst, make_loss(kind), RunConfig(grad_tol=0.0, max_iters=steps))
    assert len(trace.records) == steps
    phi_evals = sum(r.evals for r in trace.records) - counts["dphi"]
    rebuilds = 1 + steps // boost.REFRESH_EVERY + int(steps % boost.REFRESH_EVERY != 0)
    assert counts["ladder"] == 0
    assert counts["g"] == phi_evals + rebuilds
