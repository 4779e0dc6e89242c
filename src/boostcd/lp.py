"""A dense primal-dual interior-point LP solver.

:func:`solve` minimizes ``c @ x`` subject to ``G x = h``,
``0 <= x[:nf] <= u`` and ``x[nf:] >= 0`` for ``nf = len(u)`` finite
positive bounds, by Mehrotra's predictor-corrector path following
(Mehrotra 1992) from an infeasible start.  Each iteration factors
``(G Theta^1/2)^T = Q R`` once, so the normal matrix
``G Theta G^T = R^T R`` is never formed: forming it squares a condition
number that the scaling ``Theta`` drives past 1e16 near the optimum.
``G`` must have full row rank; the first factorization checks it and
raises RankDeficientError otherwise.

:func:`_factor` calls LAPACK directly: ``dgeqrf`` factors the scaled
matrix in place, the rank check reads the diagonal of its result, R is
the upper triangle of its leading r x r block, copied once, and
``dorgqr`` then turns the same memory into the thin Q.  The three
triangular solves of an iteration, ``R^T p_p = r_p`` once and
``R dy = p`` in each direction, go to ``dtrtrs`` on that copy.

The iterates follow the central path, whose limit is a strictly
complementary solution (Guler & Ye 1993): every variable that is
positive at some optimum ends up bounded away from zero, and every one
that is zero at all optima goes to zero.  So a caller can read the
optimal face's support off ``x`` with no crossover to a vertex.

On the small LPs of the structure analysis an iteration's time goes to
the fixed cost of each array call more than to arithmetic, so the
layout keeps the number of calls low.  The bounded variables come
first, so each of their slices is a view.  The complementary pairs are
stored stacked: ``xw = (x, w)`` with ``w = u - x[:nf]``,
and ``zv = (z, v)`` with their multipliers.  The gap, the ratio tests,
``mu_aff`` and the updates then take one call each.  The stopping test
checks the duality gap first, so the residual maxima are formed only
near the optimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr, dtrtrs

# Relative primal residual, dual residual and duality gap at which the
# iteration stops, and the iteration cap past which it raises.
TOL = 1e-9
MAX_ITERS = 100


class NotConvergedError(RuntimeError):
    """The interior-point iteration did not reach TOL within MAX_ITERS
    iterations, as on an infeasible or unbounded LP."""


class RankDeficientError(ValueError):
    """``G`` does not have full row rank: it has more rows than columns,
    or the first R has a diagonal entry at or below
    ``G.shape[1] * eps * max |diag R|``."""


def _factor(a, check_rank):
    """Thin QR of the n x r Fortran-ordered ``a``, which it overwrites:
    returns ``(q, R)`` with q's r orthonormal columns in a's memory and R
    an r x r copy of the factor's leading block.  R's strict lower
    triangle holds Householder vectors, which ``dtrtrs`` does not read.
    With ``check_rank`` it raises RankDeficientError, before forming q,
    when n < r (``dorgqr`` needs n >= r) or a diagonal entry of R is at
    or below ``n * eps * max |diag R|``."""
    n, r = a.shape
    # The wrappers' default workspace of 3 r shrinks LAPACK's blocks to 3
    # columns once r passes its crossover of 128, which nearly doubled a
    # 5500 x 500 factor.  The optimal one, r times the block size, serves
    # dorgqr too; the query takes no r of 0.
    lwork = int(dgeqrf_lwork(n, max(r, 1))[0])
    qr, tau, _, info = dgeqrf(a, lwork=lwork, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf: illegal argument {-info}")
    if check_rank:
        diag = np.abs(np.diagonal(qr))
        if diag.size < r or not np.all(
                diag > n * np.finfo(float).eps * diag.max(initial=0.0)):
            raise RankDeficientError(
                f"G ({r} x {n}) does not have full row rank")
    R = qr[:r, :r].copy(order="F")
    q, _, info = dorgqr(qr, tau, lwork=lwork, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dorgqr: illegal argument {-info}")
    return q, R


def _max_step(vals, dirs):
    """Largest alpha <= 1 with vals + alpha dirs >= 0, given vals > 0."""
    return 1.0 / max(1.0, -float((dirs / vals).min(initial=0.0)))


# A diverging iteration overflows or underflows; that shows as a duality
# gap that is not finite or a singular R, on which the solve raises.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve(G, h, c, u):
    """Minimize c @ x s.t. G x = h, 0 <= x[:nf] <= u and x[nf:] >= 0, for
    nf = len(u); returns (x, y) with y the multipliers of the rows of G:
    G^T y <= c on the variables at their lower bound, = c on those
    strictly between, >= c at the upper.  Every entry of ``u`` must be
    finite and positive, at most one per variable: the iteration starts
    inside the box.  Raises ValueError otherwise or when G has no rows,
    RankDeficientError if G does not have full row rank and
    NotConvergedError if the iteration does not converge."""
    G = np.asarray(G, dtype=float)
    h, c, u = (np.asarray(a, dtype=float) for a in (h, c, u))
    n, nf = c.size, u.size
    if nf > n or not np.all((u > 0.0) & (u < np.inf)):
        raise ValueError(f"u must be at most {n} finite positive bounds, got {u[:5].tolist()}")
    if not G.shape[0]:
        raise ValueError("G has no rows, and LAPACK factors no empty matrix")
    # xw = (x, w) and zv = (z, v): w = u - x[:nf] is the slack of the
    # bounds, v its multiplier, z the multiplier of x >= 0
    xw = np.concatenate([u, np.full(n - nf, 2.0), u]) / 2
    zv = np.ones_like(xw)
    x, w = xw[:n], xw[n:]
    z, v = zv[:n], zv[n:]
    y = np.zeros(G.shape[0])
    # (G Theta^1/2)^T, Fortran-ordered so that LAPACK factors it in place
    gs = np.empty((n, G.shape[0]), order="F")
    ncomp = xw.size
    scale_h = np.abs(h).max(initial=0.0)
    scale_d = 1.0 + np.abs(c).max(initial=0.0)
    for it in range(MAX_ITERS):
        r_p = h - G @ x
        r_u = u - x[:nf] - w
        r_d = c - G.T @ y - z
        r_d[:nf] += v
        xz = xw * zv
        gap = xz.sum()
        if not math.isfinite(gap):
            break
        if (gap <= TOL * (1.0 + abs(c @ x))
                and max(np.abs(r_p).max(initial=0.0), np.abs(r_u).max(initial=0.0))
                <= TOL * (1.0 + max(scale_h, x.max()))
                and np.abs(r_d).max() <= TOL * scale_d):
            return x, y
        mu = gap / ncomp
        ratio = zv / xw
        d = ratio[:n]
        d[:nf] += ratio[n:]
        sq = 1.0 / np.sqrt(d)  # Theta^1/2
        np.multiply(G.T, sq[:, None], out=gs)
        q, R = _factor(gs, it == 0)
        # info > 0 flags an exact zero on R's diagonal; it is the same for
        # every solve with this R
        p_p, info = dtrtrs(R, r_p, trans=1)
        if info:
            break
        v_ru = v * r_u
        # Per column, dz - dv = r_d - G^T dy (no dv without an upper
        # bound), and x dz + z dx, w dv + v dw meet their targets.
        # Dividing by a primal value near 0 amplifies the roundoff in dx,
        # so the multiplier paired with the larger of x and w (of x and z
        # without an upper bound) comes from complementarity and the other
        # from the dual equation.
        by_x = x >= z
        by_x[:nf] = x[:nf] >= w
        by_e = ~by_x

        def direction(target):
            """Newton step towards xw zv = target + xw zv, pair by pair.
            With r the reduced dual residual, dy = (R^T R)^-1 (r_p + G Theta r)
            and dx = Theta (G^T dy - r), taken in the equal form
            Theta^1/2 (Q R^-T r_p - (I - Q Q^T) Theta^1/2 r), which meets
            G dx = r_p to roundoff however wide Theta's range is."""
            t = target.copy()
            t[n:] -= v_ru
            t /= xw
            r = r_d - t[:n]
            r[:nf] += t[n:]
            sr = sq * r
            p = q.T @ sr + p_p
            dy = dtrtrs(R, p)[0]
            dxw = np.empty(ncomp)
            np.multiply(sq, q @ p - sr, out=dxw[:n])
            np.subtract(r_u, dxw[:nf], out=dxw[n:])
            # every pair by complementarity, then the chosen half of each
            # from the dual equation
            dzv = (target - zv * dxw) / xw
            e = r_d - G.T @ dy
            e_dv = e.copy()
            e_dv[:nf] += dzv[n:]
            np.copyto(dzv[:n], e_dv, where=by_e)
            np.subtract(dzv[:nf], e[:nf], out=dzv[n:], where=by_x[:nf])
            return dxw, dy, dzv

        # predictor: the affine-scaling direction, aimed at mu = 0
        dxw, _, dzv = direction(-xz)
        a_p, a_d = _max_step(xw, dxw), _max_step(zv, dzv)
        mu_aff = (xw + a_p * dxw) @ (zv + a_d * dzv) / ncomp
        sigma = (mu_aff / mu) ** 3
        # corrector: centre on sigma mu and cancel the predictor's
        # second-order term
        dxw, dy, dzv = direction(sigma * mu - xz - dxw * dzv)
        # stop short of the boundary to stay interior
        xw += 0.99 * _max_step(xw, dxw) * dxw
        a_d = 0.99 * _max_step(zv, dzv)
        zv += a_d * dzv
        y += a_d * dy
    raise NotConvergedError(
        f"interior-point iteration diverged or hit its cap of {MAX_ITERS} steps")
