"""A dense primal-dual interior-point LP solver.

:func:`solve` minimizes ``c @ x`` subject to ``G x = h`` and
``0 <= x <= upper`` (entries of ``upper`` may be inf) by Mehrotra's
predictor-corrector path following (Mehrotra 1992) from an infeasible
start.  Each iteration factors ``(G Theta^1/2)^T = Q R`` once, so the
normal matrix ``G Theta G^T = R^T R`` is never formed: forming it
squares a condition number that the scaling ``Theta`` drives past 1e16
near the optimum.  ``G`` must have full row rank; the first
factorization checks it and raises RankDeficientError otherwise.

The iterates follow the central path, whose limit is a strictly
complementary solution (Guler & Ye 1993): every variable that is
positive at some optimum ends up bounded away from zero, and every one
that is zero at all optima goes to zero.  So a caller can read the
optimal face's support off ``x`` with no crossover to a vertex.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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


def _max_step(*pairs):
    """Largest alpha <= 1 with vals + alpha dirs >= 0 for every pair
    (vals, dirs), given vals > 0."""
    return 1.0 / max(1.0, *(float((-d / v).max(initial=0.0)) for v, d in pairs))


# A diverging iteration overflows or underflows; that shows as a duality
# gap that is not finite or a singular R, on which the solve raises.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve(G, h, c, upper):
    """Minimize c @ x s.t. G x = h, 0 <= x <= upper; returns (x, y) with
    y the multipliers of the rows of G: G^T y <= c on the variables at
    their lower bound, = c on those strictly between, >= c at the upper.
    Raises RankDeficientError if G does not have full row rank and
    NotConvergedError if the iteration does not converge."""
    G = np.asarray(G, dtype=float)
    h, c, upper = (np.asarray(a, dtype=float) for a in (h, c, upper))
    fin = np.isfinite(upper)
    u = upper[fin]
    # the slack w = u - x[fin] and its multiplier v exist for the finite
    # bounds only; z is the multiplier of x >= 0
    x = np.where(fin, upper, 2.0) / 2
    w = u / 2
    z = np.ones_like(x)
    v = np.ones_like(w)
    y = np.zeros(G.shape[0])
    ncomp = x.size + w.size
    scale_d = 1.0 + np.abs(c).max(initial=0.0)
    for it in range(MAX_ITERS):
        r_p = h - G @ x
        r_u = u - x[fin] - w
        r_d = c - G.T @ y - z
        r_d[fin] += v
        gap = x @ z + w @ v
        if not np.isfinite(gap):
            break
        scale_p = 1.0 + max(np.abs(h).max(initial=0.0), x.max())
        if (max(np.abs(r_p).max(initial=0.0), np.abs(r_u).max(initial=0.0)) <= TOL * scale_p
                and np.abs(r_d).max() <= TOL * scale_d
                and gap <= TOL * (1.0 + abs(c @ x))):
            return x, y
        mu = gap / ncomp
        d = z / x
        d[fin] += v / w
        sq = 1.0 / np.sqrt(d)  # Theta^1/2
        q, R = np.linalg.qr(G.T * sq[:, None])
        diag = np.abs(np.diag(R))
        if it == 0 and (diag.size < G.shape[0] or not np.all(
                diag > G.shape[1] * np.finfo(float).eps * diag.max(initial=0.0))):
            raise RankDeficientError(
                f"G ({G.shape[0]} x {G.shape[1]}) does not have full row rank")
        if not np.all(diag > 0.0):
            break
        p_p = scipy.linalg.solve_triangular(R, r_p, trans="T", check_finite=False)
        # Per column, dz - dv = r_d - G^T dy (no dv without an upper
        # bound), and x dz + z dx, w dv + v dw meet their targets.
        # Dividing by a primal value near 0 amplifies the roundoff in dx,
        # so the multiplier paired with the larger of x and w (of x and z
        # without an upper bound) comes from complementarity and the other
        # from the dual equation.
        by_x = x >= z
        by_x[fin] = x[fin] >= w

        def direction(r_xz, r_wv):
            """Newton step towards x z = r_xz + x z and w v = r_wv + w v.
            With r the reduced dual residual, dy = (R^T R)^-1 (r_p + G Theta r)
            and dx = Theta (G^T dy - r), taken in the equal form
            Theta^1/2 (Q R^-T r_p - (I - Q Q^T) Theta^1/2 r), which meets
            G dx = r_p to roundoff however wide Theta's range is."""
            r = r_d - r_xz / x
            r[fin] += (r_wv - v * r_u) / w
            p = q.T @ (sq * r) + p_p
            dy = scipy.linalg.solve_triangular(R, p, check_finite=False)
            dx = sq * (q @ p - sq * r)
            dw = r_u - dx[fin]
            dv = (r_wv - v * dw) / w
            e = r_d - G.T @ dy
            e_dv = e.copy()
            e_dv[fin] += dv
            dz = np.where(by_x, (r_xz - z * dx) / x, e_dv)
            dv = np.where(by_x[fin], dz[fin] - e[fin], dv)
            return dx, dw, dy, dz, dv

        # predictor: the affine-scaling direction, aimed at mu = 0
        dx, dw, _, dz, dv = direction(-x * z, -w * v)
        a_p, a_d = _max_step((x, dx), (w, dw)), _max_step((z, dz), (v, dv))
        mu_aff = ((x + a_p * dx) @ (z + a_d * dz) + (w + a_p * dw) @ (v + a_d * dv)) / ncomp
        sigma = (mu_aff / mu) ** 3
        # corrector: centre on sigma mu and cancel the predictor's
        # second-order term
        dx, dw, dy, dz, dv = direction(sigma * mu - x * z - dx * dz,
                                       sigma * mu - w * v - dw * dv)
        # stop short of the boundary to stay interior
        a_p = 0.99 * _max_step((x, dx), (w, dw))
        a_d = 0.99 * _max_step((z, dz), (v, dv))
        x, w = x + a_p * dx, w + a_p * dw
        y, z, v = y + a_d * dy, z + a_d * dz, v + a_d * dv
    raise NotConvergedError(
        f"interior-point iteration diverged or hit its cap of {MAX_ITERS} steps")
