"""Interior-point solver: textbook and degenerate cases, the strictly
complementary limit, the failure mode, and random cross-checks against
scipy's HiGHS backend."""

import numpy as np
import pytest
from scipy.optimize import linprog

from boostcd import lp
from boostcd.lp import NotConvergedError, RankDeficientError, solve

INF = np.inf


def _solve(g, h, c, upper):
    return solve(*(np.array(a, dtype=float) for a in (g, h, c, upper)))


def test_single_variable_box():
    # max x s.t. x + s = 3
    x, _ = _solve([[1.0, 1.0]], [3.0], [-1.0, 0.0], [INF, INF])
    assert x[0] == pytest.approx(3.0, abs=1e-8)


def test_default_bounds_are_nonnegative():
    # min x with x + s = 3: the bound x >= 0 binds at 0
    x, _ = _solve([[1.0, 1.0]], [3.0], [1.0, 0.0], [INF, INF])
    assert 0.0 < x[0] <= 1e-8


def test_ge_rows():
    # min x s.t. x >= 2.5, written x - s = 2.5 with a surplus s >= 0
    x, y = _solve([[1.0, -1.0]], [2.5], [1.0, 0.0], [INF, INF])
    assert x[0] == pytest.approx(2.5, abs=1e-8)
    assert y[0] == pytest.approx(1.0, abs=1e-8)


def test_degenerate_ratio_ties():
    # min -x s.t. x + s1 = 0, 2x + s2 = 0: the feasible set is the single
    # point 0, where both rows are tight, so it has no interior at all
    x, _ = _solve([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]], [0.0, 0.0], [-1.0, 0.0, 0.0],
                  [INF, INF, INF])
    assert np.max(x) <= 1e-8


def test_beale_degenerate_cycling_example():
    # the classic degenerate LP on which greedy simplex pivoting cycles,
    # with slacks on its three <= rows; the optimum -1/20 is unique
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    g = [[0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
         [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]
    x, _ = _solve(g, [0.0, 0.0, 1.0], c, [INF] * 7)
    assert np.array(c) @ x == pytest.approx(-0.05, abs=1e-9)
    np.testing.assert_allclose(x[:4], [0.04, 0.0, 1.0, 0.0], atol=1e-8)


def test_limit_is_strictly_complementary():
    # min x3 s.t. x1 + x2 + x3 = 1: every point of the edge x3 = 0 is
    # optimal.  A vertex method returns an end of it; the central path
    # ends inside it, with x1 and x2 both bounded away from zero.
    x, y = _solve([[1.0, 1.0, 1.0]], [1.0], [0.0, 0.0, 1.0], [INF, 1.0, INF])
    assert min(x[0], x[1]) > 0.25 and x[2] <= 1e-8
    assert abs(y[0]) <= 1e-8


def _count_factorizations(monkeypatch):
    calls = []
    factor = lp._factor

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(lp, "_factor", counting)
    return calls


def test_infeasible(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    for g, h, upper in (([[1.0, 1.0]], [-1.0], [INF, 1.0]),   # x >= 0 sums to -1
                        ([[1.0]], [2.0], [1.0])):             # x <= 1 equals 2
        calls.clear()
        with pytest.raises(NotConvergedError):
            _solve(g, h, np.zeros(len(upper)), upper)
        assert len(calls) <= lp.MAX_ITERS


def test_unbounded_free_variables(monkeypatch):
    # max x1 - x2, a free variable split in two, next to a row x3 = 1
    calls = _count_factorizations(monkeypatch)
    with pytest.raises(NotConvergedError):
        _solve([[0.0, 0.0, 1.0]], [1.0], [-1.0, 1.0, 0.0], [INF, INF, INF])
    assert len(calls) <= lp.MAX_ITERS


def test_rank_deficient_rows_raise_before_iterating(monkeypatch):
    # two equal rows with different right-hand sides, the same rows
    # consistent, a zero row, and more rows than variables: each is
    # named on the first factorization, not reported as divergence
    calls = _count_factorizations(monkeypatch)
    for g, h in (([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0]),
                 ([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0]),
                 ([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),
                 ([[1.0], [2.0]], [1.0, 2.0])):
        calls.clear()
        with pytest.raises(RankDeficientError):
            _solve(g, h, np.zeros(len(g[0])), [INF] * len(g[0]))
        assert len(calls) == 1


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_a_nonzero_lapack_info_raises(routine, monkeypatch):
    # info < 0 names an illegal argument: the solve stops with the
    # routine's name rather than iterating on whatever it returned
    call = getattr(lp, routine)
    monkeypatch.setattr(lp, routine, lambda *a, **k: (*call(*a, **k)[:-1], -1))
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        _solve([[1.0, 1.0]], [3.0], [-1.0, 0.0], [INF, INF])


def test_bad_upper_bounds_raise_up_front():
    # a NaN bound was read as no bound (x = 1 came back), and a negative
    # or zero one leaves no interior to start from, which showed as a
    # rank or convergence failure on a G of full row rank
    for g, c, upper in (([[1.0]], [1.0], [np.nan]),
                        ([[1.0, 1.0]], [0.0, 0.0], [-1.0, INF]),
                        ([[1.0, 1.0]], [0.0, 0.0], [0.0, INF]),
                        ([[1.0, 1.0]], [0.0, 0.0], [-INF, INF])):
        with pytest.raises(ValueError, match="upper bounds") as exc:
            _solve(g, [1.0], c, upper)
        assert exc.type is ValueError


def test_permuted_columns_permute_x_and_keep_y():
    # finite and infinite bounds interleaved: the solver gathers the
    # finite ones into a block of their own and must return x in the
    # caller's order, whatever that order is
    rng = np.random.default_rng(11)
    g = rng.uniform(-1.0, 1.0, size=(3, 8))
    upper = np.array([1.5, INF, 2.0, INF, INF, 0.8, INF, 2.5])
    fin = np.isfinite(upper)
    h = g @ (rng.uniform(0.0, 1.0, 8) * np.where(fin, upper, 2.0))
    c = g.T @ rng.uniform(-1.0, 1.0, 3) + rng.uniform(0.0, 1.0, 8)
    c[fin] -= rng.uniform(0.0, 2.0, int(fin.sum()))
    x, y = solve(g, h, c, upper)
    for _ in range(3):
        perm = rng.permutation(8)
        x_p, y_p = solve(g[:, perm], h, c[perm], upper[perm])
        np.testing.assert_allclose(x_p, x[perm], rtol=0.0, atol=1e-7)
        np.testing.assert_allclose(y_p, y, rtol=0.0, atol=1e-7)


def test_random_lps_against_highs_and_duals():
    # min c@x s.t. G x = h, 0 <= x <= upper with about half the bounds
    # infinite.  h comes from an interior point, so the LP is feasible,
    # and c = G^T y0 + z0 with z0 >= 0 off the finite bounds, so it is
    # bounded.  The returned y must be the optimal multipliers:
    # c - G^T y >= 0 where x has no upper bound, and the dual value
    # h@y + upper@min(0, c - G^T y) equal to the optimum.
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        nvar = k + int(rng.integers(1, 9))
        g = rng.uniform(-1.0, 1.0, size=(k, nvar))
        upper = np.where(rng.random(nvar) < 0.5, rng.uniform(0.5, 3.0, nvar), INF)
        fin = np.isfinite(upper)
        x0 = rng.uniform(0.0, 1.0, nvar) * np.where(fin, upper, 2.0)
        h = g @ x0
        c = g.T @ rng.uniform(-1.0, 1.0, k) + rng.uniform(0.0, 1.0, nvar)
        c[fin] -= rng.uniform(0.0, 2.0, int(fin.sum()))
        x, y = solve(g, h, c, upper)
        ref = linprog(c, A_eq=g, b_eq=h, method="highs",
                      bounds=[(0.0, u if np.isfinite(u) else None) for u in upper])
        assert ref.status == 0
        scale = 1.0 + abs(ref.fun)
        assert abs(c @ x - ref.fun) <= 1e-7 * scale
        assert np.max(np.abs(g @ x - h)) <= 1e-8
        assert np.all(x >= 0.0) and np.all(x <= upper)
        red = c - g.T @ y
        assert np.all(red[~fin] >= -1e-7)
        assert abs(h @ y + upper[fin] @ np.minimum(red[fin], 0.0) - ref.fun) <= 1e-7 * scale
