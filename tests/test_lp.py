"""Interior-point solver: textbook and degenerate cases, the strictly
complementary limit, the failure mode, and random cross-checks against
scipy's HiGHS backend."""

import numpy as np
import pytest
from scipy.optimize import linprog

from boostcd import lp
from boostcd.lp import NotConvergedError, RankDeficientError, solve

INF = np.inf


def _solve(g, h, c, u):
    return solve(*(np.array(a, dtype=float) for a in (g, h, c, u)))


def test_single_variable_box():
    # max x s.t. x + s = 3
    x, _ = _solve([[1.0, 1.0]], [3.0], [-1.0, 0.0], [])
    assert x[0] == pytest.approx(3.0, abs=1e-8)


def test_default_bounds_are_nonnegative():
    # min x with x + s = 3: the bound x >= 0 binds at 0
    x, _ = _solve([[1.0, 1.0]], [3.0], [1.0, 0.0], [])
    assert 0.0 < x[0] <= 1e-8


def test_ge_rows():
    # min x s.t. x >= 2.5, written x - s = 2.5 with a surplus s >= 0
    x, y = _solve([[1.0, -1.0]], [2.5], [1.0, 0.0], [])
    assert x[0] == pytest.approx(2.5, abs=1e-8)
    assert y[0] == pytest.approx(1.0, abs=1e-8)


def test_degenerate_ratio_ties():
    # min -x s.t. x + s1 = 0, 2x + s2 = 0: the feasible set is the single
    # point 0, where both rows are tight, so it has no interior at all
    x, _ = _solve([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]], [0.0, 0.0], [-1.0, 0.0, 0.0], [])
    assert np.max(x) <= 1e-8


def test_beale_degenerate_cycling_example():
    # the classic degenerate LP on which greedy simplex pivoting cycles,
    # with slacks on its three <= rows; the optimum -1/20 is unique
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    g = [[0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
         [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]
    x, _ = _solve(g, [0.0, 0.0, 1.0], c, [])
    assert np.array(c) @ x == pytest.approx(-0.05, abs=1e-9)
    np.testing.assert_allclose(x[:4], [0.04, 0.0, 1.0, 0.0], atol=1e-8)


def test_limit_is_strictly_complementary():
    # min x3 s.t. x1 + x2 + x3 = 1 and x1 <= 1: every point of the edge
    # x3 = 0 is optimal.  A vertex method returns an end of it; the
    # central path ends inside it, with x1 and x2 both bounded away from
    # zero.
    x, y = _solve([[1.0, 1.0, 1.0]], [1.0], [0.0, 0.0, 1.0], [1.0])
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
    for g, h, u in (([[1.0, 1.0]], [-1.0], [1.0]),   # x >= 0 sums to -1
                    ([[1.0]], [2.0], [1.0])):        # x <= 1 equals 2
        calls.clear()
        with pytest.raises(NotConvergedError):
            _solve(g, h, np.zeros(len(g[0])), u)
        assert len(calls) <= lp.MAX_ITERS


def test_unbounded_free_variables(monkeypatch):
    # max x1 - x2, a free variable split in two, next to a row x3 = 1
    calls = _count_factorizations(monkeypatch)
    with pytest.raises(NotConvergedError):
        _solve([[0.0, 0.0, 1.0]], [1.0], [-1.0, 1.0, 0.0], [])
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
            _solve(g, h, np.zeros(len(g[0])), [])
        assert len(calls) == 1


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
def test_a_nonzero_lapack_info_raises(routine, monkeypatch):
    # info < 0 names an illegal argument: the solve stops with the
    # routine's name rather than iterating on whatever it returned
    call = getattr(lp, routine)
    monkeypatch.setattr(lp, routine, lambda *a, **k: (*call(*a, **k)[:-1], -1))
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        _solve([[1.0, 1.0]], [3.0], [-1.0, 0.0], [])


def test_bad_upper_bounds_raise_up_front():
    # a NaN, zero or negative bound leaves no interior box to start from,
    # which showed as a rank or convergence failure on a G of full row
    # rank; a variable with no finite bound goes after the bounded ones,
    # not in u with an inf; and u may hold no more bounds than variables
    for g, c, u in (([[1.0]], [1.0], [np.nan]),
                    ([[1.0, 1.0]], [0.0, 0.0], [INF]),
                    ([[1.0, 1.0]], [0.0, 0.0], [-1.0]),
                    ([[1.0, 1.0]], [0.0, 0.0], [0.0]),
                    ([[1.0, 1.0]], [0.0, 0.0], [-INF]),
                    ([[1.0, 1.0]], [0.0, 0.0], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="bounds") as exc:
            _solve(g, [1.0], c, u)
        assert exc.type is ValueError


def test_a_g_with_no_rows_raises_up_front(capfd):
    # LAPACK refused the empty factor as an illegal argument, printed so
    # to stderr, and the solve went on to report divergence
    with pytest.raises(ValueError, match="no rows") as exc:
        _solve(np.zeros((0, 3)), np.zeros(0), [1.0, 0.0, 2.0], [1.0, 2.0])
    assert exc.type is ValueError
    assert "On entry to" not in capfd.readouterr().err


def test_permuted_columns_permute_x_and_keep_y():
    # columns reordered within the bounded block and within the free
    # block: x must follow them and y stay, whatever the order
    rng = np.random.default_rng(11)
    g = rng.uniform(-1.0, 1.0, size=(3, 8))
    u = np.array([1.5, 2.0, 0.8, 2.5])
    nf = u.size
    h = g @ (rng.uniform(0.0, 1.0, 8) * np.concatenate([u, np.full(8 - nf, 2.0)]))
    c = g.T @ rng.uniform(-1.0, 1.0, 3) + rng.uniform(0.0, 1.0, 8)
    c[:nf] -= rng.uniform(0.0, 2.0, nf)
    x, y = solve(g, h, c, u)
    for _ in range(3):
        perm = np.concatenate([rng.permutation(nf), nf + rng.permutation(8 - nf)])
        x_p, y_p = solve(g[:, perm], h, c[perm], u[perm[:nf]])
        np.testing.assert_allclose(x_p, x[perm], rtol=0.0, atol=1e-7)
        np.testing.assert_allclose(y_p, y, rtol=0.0, atol=1e-7)


def test_random_lps_against_highs_and_duals():
    # min c@x s.t. G x = h, 0 <= x[:nf] <= u, x[nf:] >= 0 with about half
    # the variables bounded.  h comes from an interior point, so the LP is
    # feasible, and c = G^T y0 + z0 with z0 >= 0 on the free variables, so
    # it is bounded.  The returned y must be the optimal multipliers:
    # c - G^T y >= 0 on the free variables, and the dual value
    # h@y + u@min(0, c - G^T y)[:nf] equal to the optimum.
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        nvar = k + int(rng.integers(1, 9))
        g = rng.uniform(-1.0, 1.0, size=(k, nvar))
        nf = int(np.count_nonzero(rng.random(nvar) < 0.5))
        u = rng.uniform(0.5, 3.0, nf)
        x0 = rng.uniform(0.0, 1.0, nvar) * np.concatenate([u, np.full(nvar - nf, 2.0)])
        h = g @ x0
        c = g.T @ rng.uniform(-1.0, 1.0, k) + rng.uniform(0.0, 1.0, nvar)
        c[:nf] -= rng.uniform(0.0, 2.0, nf)
        x, y = solve(g, h, c, u)
        ref = linprog(c, A_eq=g, b_eq=h, method="highs",
                      bounds=[(0.0, b) for b in u] + [(0.0, None)] * (nvar - nf))
        assert ref.status == 0
        scale = 1.0 + abs(ref.fun)
        assert abs(c @ x - ref.fun) <= 1e-7 * scale
        assert np.max(np.abs(g @ x - h)) <= 1e-8
        assert np.all(x >= 0.0) and np.all(x[:nf] <= u)
        red = c - g.T @ y
        assert np.all(red[nf:] >= -1e-7)
        assert abs(h @ y + u @ np.minimum(red[:nf], 0.0) - ref.fun) <= 1e-7 * scale
