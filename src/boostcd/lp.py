"""A small dense linear-programming solver.

Primal simplex on the full tableau with Bland's anti-cycling rule and a
two-phase start.  Problems here are small (up to a few hundred rows and
columns), so there are no factorization updates, no sparsity, and no
presolve; the aim is exact-ish vertex solutions with explicit
feasibility and pivot tolerances.  Pivoting a full tableau accumulates
roundoff, so every REFRESH_EVERY pivots, and before any status is
reported, the tableau is recomputed from the original rows by solving
with the current basis columns.

General form:  optimize c @ x subject to per-row senses
(<=, ==, >=) and per-variable bounds [lo, hi] with +-inf allowed.
Free and upper-bounded variables are substituted away so the working
problem has only nonnegative variables; >= and == rows get artificial
variables that phase 1 drives to zero.  At the optimal basis B the row
multipliers solve B^T y = c_B and are mapped back to the original rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

LE = "<="
EQ = "=="
GE = ">="
_SENSES = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10
# Pivots between two recomputations of the tableau from the original rows.
REFRESH_EVERY = 25


@dataclass
class LinearProgram:
    objective: Sequence[float]
    lhs: Sequence[Sequence[float]]
    senses: Sequence[str]
    rhs: Sequence[float]
    bounds: Optional[Sequence[tuple]] = None  # default: every x_i >= 0
    maximize: bool = False


@dataclass
class LpOutcome:
    """Result of :func:`solve`.  At OPTIMAL, ``duals`` has one multiplier
    per row of ``lhs``: the derivative of the optimal value with respect to
    the row's rhs at the optimal basis, 0 for a row dropped as redundant;
    variable bounds get none.  So a <= row's multiplier is >= 0 when
    maximizing and <= 0 when minimizing, and a >= row's the reverse."""

    status: str
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    duals: Optional[np.ndarray] = None


def _pivot(T, b, basis, r, e):
    piv = T[r, e]
    T[r] /= piv
    b[r] /= piv
    col = T[:, e].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    b -= col * b[r]
    T[:, e] = 0.0
    T[r, e] = 1.0
    basis[r] = e
    # roundoff can push basic values a hair below zero
    np.copyto(b, 0.0, where=(b < 0.0) & (b > -1e-11))


def _refresh(T, b, basis, T0, b0):
    """Recompute the tableau and the basic values in place from the
    original rows T0 u = b0, discarding the roundoff of earlier pivots."""
    sol = np.linalg.solve(T0[:, basis], np.column_stack([T0, b0]))
    T[:] = sol[:, :-1]
    T[:, basis] = np.eye(len(basis))
    b[:] = sol[:, -1]
    np.copyto(b, 0.0, where=(b < 0.0) & (b > -1e-11))


def _simplex(T, b, basis, cost, enterable, pivot_tol, max_pivots, T0, b0,
             floor=-math.inf):
    """Minimize cost @ u on the tableau in place.  Bland's rule: entering
    column is the lowest-index eligible one with negative reduced cost,
    leaving row breaks ratio ties by lowest basic index.  Stops as OPTIMAL
    once cost @ u reaches ``floor``, a known lower bound (0 in phase 1).
    The tableau is refreshed from (T0, b0) every REFRESH_EVERY pivots and
    re-examined after a refresh before OPTIMAL or UNBOUNDED is returned.

    Both the reduced-cost test and the ratio test's pivot cut are
    ``pivot_tol`` times max(1, max |T|): once the tableau's entries have
    grown, roundoff in a computed entry grows with them, and an entry that
    is exactly 0 can come out far above an absolute cut; pivoting on it
    makes the basis singular.  Returns the status."""
    stale = 0
    for _ in range(max_pivots):
        tol = pivot_tol * float(np.max(np.abs(T), initial=1.0))
        cbar = cost - cost[basis] @ T if len(basis) else cost.copy()
        eligible = np.flatnonzero(enterable & (cbar < -tol))
        status = OPTIMAL
        if eligible.size and float(cost[basis] @ b) > floor:
            e = int(eligible[0])
            colv = T[:, e]
            pos = colv > tol
            if np.any(pos):
                ratios = np.full(len(b), np.inf)
                ratios[pos] = b[pos] / colv[pos]
                rmin = float(ratios.min())
                ties = np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))
                r = int(ties[np.argmin(basis[ties])])
                _pivot(T, b, basis, r, e)
                stale += 1
                if stale == REFRESH_EVERY:
                    _refresh(T, b, basis, T0, b0)
                    stale = 0
                continue
            status = UNBOUNDED
        if not stale:
            return status
        _refresh(T, b, basis, T0, b0)
        stale = 0
    raise RuntimeError("simplex pivot budget exceeded")


def solve(lp: LinearProgram, feas_tol: float = FEAS_TOL,
          pivot_tol: float = PIVOT_TOL, max_pivots: int = 50000) -> LpOutcome:
    c0 = np.atleast_1d(np.asarray(lp.objective, dtype=float))
    nvar = c0.size
    a0 = np.asarray(lp.lhs, dtype=float)
    if a0.size == 0:
        a0 = np.zeros((len(list(lp.senses)), nvar))
    if a0.ndim != 2 or a0.shape[1] != nvar:
        raise ValueError(f"lhs must be (nrow, {nvar}), got shape {a0.shape}")
    b0 = np.atleast_1d(np.asarray(lp.rhs, dtype=float)) if np.size(lp.rhs) else np.zeros(0)
    senses0 = list(lp.senses)
    nrow = a0.shape[0]
    if b0.size != nrow or len(senses0) != nrow:
        raise ValueError("lhs, senses and rhs row counts disagree")
    for s in senses0:
        if s not in _SENSES:
            raise ValueError(f"unknown sense {s!r}")
    if not (np.all(np.isfinite(c0)) and np.all(np.isfinite(a0)) and np.all(np.isfinite(b0))):
        raise ValueError("objective, lhs and rhs must be finite")
    bounds = list(lp.bounds) if lp.bounds is not None else [(0.0, math.inf)] * nvar
    if len(bounds) != nvar:
        raise ValueError("bounds length must match the number of variables")

    cmin = -c0 if lp.maximize else c0

    # substitute variables so the working ones are all >= 0
    shift = np.zeros(nvar)
    cols = []      # (original var, scale): x_v = shift_v + scale * u
    ub_rows = []   # (u column, residual upper bound)
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            if lo > hi:
                return LpOutcome(INFEASIBLE)
            raise ValueError(f"bad bounds for variable {i}: ({lo}, {hi})")
        if lo == -math.inf and hi == math.inf:
            cols.append((i, 1.0))
            cols.append((i, -1.0))
        elif lo > -math.inf:
            shift[i] = lo
            cols.append((i, 1.0))
            if hi < math.inf:
                ub_rows.append((len(cols) - 1, hi - lo))
        else:
            shift[i] = hi
            cols.append((i, -1.0))
    ncols = len(cols)

    cu = np.array([cmin[v] * s for v, s in cols])
    body = np.empty((nrow, ncols))
    for k, (v, s) in enumerate(cols):
        body[:, k] = a0[:, v] * s
    A = np.vstack([body] + [
        np.eye(1, ncols, k) for k, _ in ub_rows
    ]) if ub_rows else body
    b = np.concatenate([b0 - a0 @ shift, [ub for _, ub in ub_rows]])
    senses = senses0 + [LE] * len(ub_rows)

    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] = -b[flip]
    senses = [
        (LE if s == GE else GE if s == LE else EQ) if f else s
        for s, f in zip(senses, flip)
    ]

    M = len(b)
    nslack = sum(1 for s in senses if s != EQ)
    nart = sum(1 for s in senses if s != LE)
    N = ncols + nslack + nart
    T = np.zeros((M, N))
    T[:, :ncols] = A
    basis = np.empty(M, dtype=int)
    art_cols = []
    js, ja = ncols, ncols + nslack
    for r, s in enumerate(senses):
        if s == LE:
            T[r, js] = 1.0
            basis[r] = js
            js += 1
        elif s == GE:
            T[r, js] = -1.0
            js += 1
            T[r, ja] = 1.0
            basis[r] = ja
            art_cols.append(ja)
            ja += 1
        else:
            T[r, ja] = 1.0
            basis[r] = ja
            art_cols.append(ja)
            ja += 1

    enterable = np.ones(N, dtype=bool)
    enterable[art_cols] = False  # artificials start basic and never re-enter

    T0, b0 = T.copy(), b.copy()
    rows = np.arange(M)  # working rows of T0 in the rows of A
    if art_cols:
        cost1 = np.zeros(N)
        cost1[art_cols] = 1.0
        status = _simplex(T, b, basis, cost1, enterable, pivot_tol, max_pivots, T0, b0,
                          floor=0.0)
        if status != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded")
        if float(cost1[basis] @ b) > feas_tol:
            return LpOutcome(INFEASIBLE)
        # pivot leftover artificials out on their largest entry; a row
        # with none is a combination of the others, so the original row
        # of its artificial is redundant and is dropped with it
        art_row = {a: int(np.argmax(T0[:, a])) for a in art_cols}
        N = ncols + nslack
        keep_tab = np.ones(M, dtype=bool)
        keep_orig = np.ones(M, dtype=bool)
        for r in range(M):
            if basis[r] not in art_row:
                continue
            row = np.abs(T[r, :N])
            if row.size and row.max() > pivot_tol:
                _pivot(T, b, basis, r, int(np.argmax(row)))
            else:
                keep_tab[r] = False
                keep_orig[art_row[basis[r]]] = False
        T, b, basis = T[keep_tab, :N], b[keep_tab], basis[keep_tab]
        T0, b0, rows = T0[keep_orig, :N], b0[keep_orig], rows[keep_orig]
        enterable = enterable[:N]
        _refresh(T, b, basis, T0, b0)

    cost2 = np.concatenate([cu, np.zeros(N - ncols)])
    status = _simplex(T, b, basis, cost2, enterable, pivot_tol, max_pivots, T0, b0)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    u = np.zeros(N)
    u[basis] = b
    x = shift.copy()
    for k, (v, s) in enumerate(cols):
        x[v] += s * u[k]
    # simplex multipliers of the working rows at the optimal basis, mapped
    # back to the rows of lhs: undo the flips and the minimize sign
    y = np.zeros(M)
    y[rows] = np.linalg.solve(T0[:, basis].T, cost2[basis])
    y[flip] *= -1.0
    duals = -y[:nrow] if lp.maximize else y[:nrow]
    return LpOutcome(OPTIMAL, x, float(c0 @ x), duals)


def residuals(lp: LinearProgram, x) -> float:
    """Largest constraint/bound violation of x; 0 means feasible."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(lp.lhs, dtype=float)
    if a.size == 0:
        a = np.zeros((0, x.size))
    b = np.atleast_1d(np.asarray(lp.rhs, dtype=float)) if np.size(lp.rhs) else np.zeros(0)
    ax = a @ x
    worst = 0.0
    for r, s in enumerate(lp.senses):
        if s == LE:
            worst = max(worst, ax[r] - b[r])
        elif s == GE:
            worst = max(worst, b[r] - ax[r])
        else:
            worst = max(worst, abs(ax[r] - b[r]))
    bounds = lp.bounds if lp.bounds is not None else [(0.0, math.inf)] * x.size
    for i, (lo, hi) in enumerate(bounds):
        worst = max(worst, lo - x[i], x[i] - hi)
    return float(worst)
