"""Dense simplex solver: textbook cases, degeneracy, and random
cross-checks against scipy's HiGHS backend."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from boostcd import fixtures
from boostcd.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    residuals,
    solve,
)


def test_single_variable_box():
    out = solve(LinearProgram([1.0], [[1.0]], [LE], [3.0], maximize=True))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-12)
    assert out.x[0] == pytest.approx(3.0, abs=1e-12)


def test_default_bounds_are_nonnegative():
    # min x with no explicit bounds: x >= 0 binds at 0
    out = solve(LinearProgram([1.0], [[1.0]], [LE], [3.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-12)


def test_infeasible():
    out = solve(LinearProgram([0.0], [[1.0]], [LE], [-1.0]))
    assert out.status == INFEASIBLE
    assert out.x is None


def test_unbounded_free_variables():
    lp = LinearProgram([1.0, 1.0], np.zeros((0, 2)), [], [],
                       bounds=[(-math.inf, math.inf)] * 2, maximize=True)
    assert solve(lp).status == UNBOUNDED


def test_equality_rows_via_artificials():
    # min x1 + 2 x2 s.t. x1 + x2 = 1
    out = solve(LinearProgram([1.0, 2.0], [[1.0, 1.0]], [EQ], [1.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.x, [1.0, 0.0], atol=1e-12)


def test_redundant_equality_rows_are_dropped():
    # the last row is twice the third; after phase 1 one of their
    # artificials cannot leave the basis, and its own row must go with it
    lp = LinearProgram([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                       [LE, LE, EQ, EQ], [5.0, 5.0, 1.0, 2.0])
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert residuals(lp, out.x) <= 1e-12
    # min c@x, x >= 0: the <= rows take duals <= 0, lhs^T y <= c, b@y = value
    y = out.duals
    assert y.shape == (4,) and np.all(y[:2] <= 1e-12)
    assert np.all(np.asarray(lp.lhs).T @ y <= np.asarray(lp.objective) + 1e-12)
    assert np.asarray(lp.rhs) @ y == pytest.approx(1.0, abs=1e-12)


def test_ge_rows():
    # min x s.t. x >= 2.5
    out = solve(LinearProgram([1.0], [[1.0]], [GE], [2.5]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.5, abs=1e-12)


def test_bound_substitutions():
    # free variable
    out = solve(LinearProgram([1.0], [[1.0]], [GE], [-5.0],
                              bounds=[(-math.inf, math.inf)]))
    assert out.value == pytest.approx(-5.0, abs=1e-12)
    # shifted lower bound
    out = solve(LinearProgram([1.0], np.zeros((0, 1)), [], [],
                              bounds=[(-2.0, 7.0)]))
    assert out.value == pytest.approx(-2.0, abs=1e-12)
    # upper bound only
    out = solve(LinearProgram([1.0], np.zeros((0, 1)), [], [],
                              bounds=[(-math.inf, 2.0)], maximize=True))
    assert out.value == pytest.approx(2.0, abs=1e-12)
    # crossed bounds are infeasible, not an error
    assert solve(LinearProgram([1.0], np.zeros((0, 1)), [], [],
                               bounds=[(1.0, 0.0)])).status == INFEASIBLE


def test_negative_rhs_rows_are_normalized():
    # -x <= -2  (i.e. x >= 2), optimum at 2
    out = solve(LinearProgram([1.0], [[-1.0]], [LE], [-2.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-12)


def test_beale_degenerate_cycling_example():
    # the classic tableau on which greedy pivoting cycles; Bland's rule
    # must terminate at -1/20
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    out = solve(LinearProgram(c, a, [LE, LE, LE], [0.0, 0.0, 1.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-12)
    np.testing.assert_allclose(out.x, [0.04, 0.0, 1.0, 0.0], atol=1e-10)


def test_input_validation():
    with pytest.raises(ValueError):
        solve(LinearProgram([1.0], [[1.0, 2.0]], [LE], [1.0]))
    with pytest.raises(ValueError):
        solve(LinearProgram([1.0], [[1.0]], ["<"], [1.0]))
    with pytest.raises(ValueError):
        solve(LinearProgram([math.inf], [[1.0]], [LE], [1.0]))
    with pytest.raises(ValueError):
        solve(LinearProgram([1.0], [[1.0]], [LE], [1.0], bounds=[(0.0, 1.0)] * 2))
    with pytest.raises(ValueError):
        solve(LinearProgram([1.0], [[1.0]], [LE, LE], [1.0]))


def test_residuals_helper():
    lp = LinearProgram([0.0, 0.0], [[1.0, 1.0]], [LE], [1.0])
    assert residuals(lp, [0.25, 0.25]) == 0.0
    assert residuals(lp, [1.0, 1.0]) == pytest.approx(1.0)
    assert residuals(lp, [-0.5, 0.0]) == pytest.approx(0.5)  # bound violation


def test_random_lps_against_highs_and_duals():
    # max c@x s.t. Ax <= b, x >= 0 with b > 0, so x = 0 is feasible and
    # the LP is optimal or unbounded.  Optimal cases must agree with
    # HiGHS and with our own solve of the dual min b@y, A^T y >= c,
    # y >= 0 (strong duality); claimed-unbounded cases are certified by
    # growth under an enlarging box (HiGHS itself sometimes labels
    # these "infeasible" in presolve, so its status is not the oracle).
    rng = np.random.default_rng(7)
    n_opt = n_unb = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.uniform(-2.0, 2.0, size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)
        c = rng.uniform(-2.0, 2.0, size=n)
        primal = LinearProgram(c, a, [LE] * m, b, maximize=True)
        mine = solve(primal)
        assert mine.status != INFEASIBLE
        if mine.status == OPTIMAL:
            n_opt += 1
            scale = 1.0 + abs(mine.value)
            ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n,
                          method="highs")
            assert ref.status == 0
            assert abs(mine.value - (-ref.fun)) <= 1e-6 * scale
            assert residuals(primal, mine.x) <= 1e-8
            y = mine.duals
            assert y.shape == (m,) and np.all(y >= -1e-9)
            assert np.all(a.T @ y >= c - 1e-9)
            assert abs(b @ y - mine.value) <= 1e-6 * scale
            dual = solve(LinearProgram(b, a.T, [GE] * n, c))
            assert dual.status == OPTIMAL
            assert abs(dual.value - mine.value) <= 1e-6 * scale
            assert residuals(LinearProgram(b, a.T, [GE] * n, c), dual.x) <= 1e-8
        else:
            n_unb += 1
            boxed = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, 1e9)] * n,
                            method="highs")
            assert boxed.status == 0 and -boxed.fun >= 1e5
    # the draw should exercise both outcomes
    assert n_opt >= 100 and n_unb >= 10


def test_degenerate_ratio_ties():
    # two rows tie at ratio 0; Bland's tie-break must still terminate
    out = solve(LinearProgram([-1.0], [[1.0], [2.0]], [LE, LE], [0.0, 0.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-12)


def test_outcome_dataclass_defaults():
    out = LpOutcome(INFEASIBLE)
    assert out.x is None and out.value is None


def test_refreshed_tableau_solves_hard_core_lp_on_sign_draw():
    # max sum t s.t. A^T psi = 0, psi >= t, 0 <= t <= 1, psi >= 0 on the
    # third sign draw of rng(5), a 50x20 attainable instance.  Without
    # refreshing the tableau from the original rows, roundoff makes the
    # solver report this bounded LP as unbounded.
    rng = np.random.default_rng(5)
    for m, n in ((30, 12), (40, 16), (50, 20)):
        inst = fixtures.random_instance(rng, m, n, "sign")
    a = inst.a
    lhs = np.block([[a.T, np.zeros((n, m))], [np.eye(m), -np.eye(m)]])
    obj = np.concatenate([np.zeros(m), np.ones(m)])
    lp = LinearProgram(obj, lhs, [EQ] * n + [GE] * m, np.zeros(n + m),
                       bounds=[(0.0, math.inf)] * m + [(0.0, 1.0)] * m, maximize=True)
    out = solve(lp)
    ref = linprog(-obj, A_eq=lhs[:n], b_eq=np.zeros(n), A_ub=-lhs[n:], b_ub=np.zeros(m),
                  bounds=lp.bounds, method="highs")
    assert ref.status == 0 and -ref.fun == pytest.approx(50.0, abs=1e-7)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(50.0, abs=1e-7)
    assert residuals(lp, out.x) <= 1e-8
