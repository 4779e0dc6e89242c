"""Independent references for the structure tests.

Each structural fact `boostcd.structure` derives from its one verified
core LP is computed here a second, independent way: the direct tests of
Gordan's and Stiemke's alternatives and the hard core by its definition
on HiGHS (`scipy.optimize.linprog`), and the kernel basis of A^T by an
SVD (`scipy.linalg.null_space`) rather than the library's pivoted QR.
The tests compare the library against these; the library never imports
this module.  :func:`planted` draws instances of a stated regime at
sizes where rejection sampling finds none.
"""

from typing import Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from boostcd.instance import BoostInstance, make_instance
from boostcd.structure import FEAS_TOL


def weak_learnable(inst: BoostInstance) -> Tuple[bool, Optional[np.ndarray]]:
    """Is there lam with A @ lam < 0 (every example strictly beaten)?

    The direct test of Gordan's alternative, solved by HiGHS as the
    feasibility LP {A @ lam <= -1}; returns the witness.
    """
    out = linprog(np.zeros(inst.n), A_ub=inst.a, b_ub=-np.ones(inst.m),
                  bounds=(None, None), method="highs")
    if out.status == 0:
        return True, out.x
    if out.status == 2:
        return False, None
    raise RuntimeError(f"unexpected HiGHS status {out.status} in weak_learnable")


def attainable(inst: BoostInstance) -> Tuple[bool, Optional[np.ndarray]]:
    """Is there a strictly positive dual vector (psi > 0, A^T psi = 0)?

    The direct test of Stiemke's alternative, solved by HiGHS as
    max tau s.t. A^T psi = 0, psi >= tau * 1, 0 <= psi <= 1, which is
    scale-free; attainable iff the optimum exceeds tolerance.
    """
    m, n = inst.m, inst.n
    # variables: psi_1..psi_m, tau
    obj = np.zeros(m + 1)
    obj[m] = -1.0
    out = linprog(obj, A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.hstack([inst.a.T, np.zeros((n, 1))]), b_eq=np.zeros(n),
                  bounds=(0.0, 1.0), method="highs")
    if out.status != 0:
        raise RuntimeError(f"unexpected HiGHS status {out.status} in attainable")
    if -out.fun > FEAS_TOL:
        return True, out.x[:m]
    return False, None


def _nonpositive_nonzero_ray(inst: BoostInstance) -> Tuple[bool, Optional[np.ndarray]]:
    """Is there lam with A @ lam <= 0 and A @ lam != 0?

    This is the primal side of Stiemke's alternative (its failure for all
    lam is equivalent to attainability).  Solved by HiGHS on a unit box so
    the LP stays bounded: max sum(-A @ lam) s.t. A @ lam <= 0,
    -1 <= lam <= 1.
    """
    out = linprog(np.sum(inst.a, axis=0), A_ub=inst.a, b_ub=np.zeros(inst.m),
                  bounds=(-1.0, 1.0), method="highs")
    if out.status != 0:
        raise RuntimeError(f"unexpected HiGHS status {out.status} in ray search")
    if -out.fun > FEAS_TOL:
        return True, out.x
    return False, None


def _highs_hard_core(a):
    """1-based hard core from HiGHS, by definition: the union of the
    supports of dual cone vectors, grown one LP at a time by maximizing
    the weight on rows not yet known to be in it."""
    m, n = a.shape
    core = np.zeros(m, dtype=bool)
    while not core.all():
        ref = linprog(-(~core).astype(float), A_eq=a.T, b_eq=np.zeros(n),
                      bounds=[(0.0, 1.0)] * m, method="highs")
        assert ref.status == 0
        grown = ~core & (ref.x > 1e-7)
        if not grown.any():
            break
        core |= grown
    return [int(i) + 1 for i in np.flatnonzero(core)]


def _unit_columns(a):
    """A with each nonzero column rescaled to max-abs 1.  Positive column
    scaling leaves the dual cone's support, the hard core, unchanged, and
    it keeps HiGHS's absolute tolerances meaningful."""
    peak = np.max(np.abs(a), axis=0)
    return a / np.where(peak > 0.0, peak, 1.0)


def kernel_basis(inst: BoostInstance) -> np.ndarray:
    """Orthonormal basis (m x k) of ker(A^T), the span of the dual cone,
    from an SVD of A^T: independent of the pivoted QR that
    `boostcd.structure` projects through."""
    return scipy.linalg.null_space(inst.a.T)


def planted(regime, m, n, seed) -> BoostInstance:
    """An m x n instance of the given regime drawn from ``seed``.

    The core rows are orthogonal to a positive psi, so psi > 0 is in
    ker(A_core^T) and every core row is in the hard core.  Off-core rows
    have a_i . u <= -|u| / 4 for a u orthogonal to every core row, which
    keeps them off it (Motzkin).  Attainable: every row is a core row, and
    the risk attains its minimum; weakly learnable: none is; mixed: the
    first m // 2 rows are.
    """
    rng = np.random.default_rng(seed)
    k = {"attainable": m, "mixed": m // 2, "weak_learnable": 0}[regime]
    psi = rng.uniform(0.1, 1.0, size=k)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    if k < m:
        u = rng.standard_normal(n)
        a[:k] -= np.outer(a[:k] @ u, u) / (u @ u)
        a[k:] *= -np.sign(a[k:] @ u)[:, None]
        a[k:] -= 0.25 * u / np.linalg.norm(u)
    a[:k] -= np.outer(psi, psi @ a[:k]) / (psi @ psi)
    return make_instance(a / np.max(np.abs(a)))
