"""Structural classification of boosting instances.

The dual feasible set of an instance A is the polyhedral cone of
nonnegative example weightings orthogonal to every weak-learner column:
Phi = ker(A^T) & R+^m.  Its support pattern -- the *hard core*, the set
of examples some dual vector weights positively -- splits the sample
into a weakly learnable part (off the core) and an attainable part (the
core), and determines which convergence regime coordinate descent is in:

* empty core          -> weak learnable: some lam has A @ lam < 0 and the
                         infimum of the risk is 0 (Gordan's alternative);
* core = all examples -> attainable: the risk is 0-coercive and its
                         minimum is attained (Stiemke's alternative);
* otherwise           -> mixed, with a halfspace witness strict on the
                         off-core rows and null on the core (Motzkin).

The hard core comes from one LP (Goldman-Tucker strict complementarity:
the cone has a vector positive on its whole support), solved by the
interior-point method of :mod:`boostcd.lp`, whose limit is strictly
complementary, so the core is read off its solution with no crossover.
That solution is the dual witness and its row multipliers give the
primal one.  Each row block is factored once (:func:`_dual_core`), by a
column-pivoted QR A P = Q R (:func:`_pivoted_qr`, the one function that
knows a tall block is factored in two stages), and Q is never formed or
kept.  One identity serves every use of range(A): with B the first rank
pivot columns of A and R11 R's leading triangle, B = Q_r R11 for the
first rank columns Q_r of Q.  So the core LP's rows Q_r^T are R11^-T B^T,
one triangular solve; the primal witness is R11^-1 of the LP's
multipliers on the pivots; and every orthogonal projection onto a kernel
of A^T, of the dual witness onto the core's and of the iterate's weights
in :func:`dual_certificate` onto A's, is w - B R11^-1 R11^-T B^T w
(:func:`_project_out`).  Every LAPACK call goes through :func:`_lapack`,
which raises on a nonzero info; the one BLAS call, the core LP's
triangular solve, has no info to check.  A certificate of a tall A
factors and projects with scipy's BLAS on one thread
(:func:`_kernel_projection`); other certificates and every analysis
leave the thread count alone.
For a weakly learnable instance only, :func:`analyze` solves one more
LP, for the rate gamma, with one row per weak learner
(:func:`_gamma_lp`), whose solution and multipliers bracket gamma from
both sides.  Strict inequalities are compiled to margin-1 form, which
the cone's scale invariance makes equivalent.  The LP solver is not
trusted on its own: :func:`analyze`, :func:`decompose` and
:func:`hard_core` all check their witnesses against A by
:func:`verify_witness`, gamma's bracket is checked against A too, and a
failed check raises.  This is the module's one path to
each structural fact; the independent references the tests compare it
with (the direct tests of Gordan's and Stiemke's alternatives on HiGHS,
an SVD kernel basis) live in ``tests/references.py``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import threading
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg

from .boost import IterateState
# the regime names are defined with the instances, which need no scipy
from .instance import ATTAINABLE, MIXED, REGIMES, WEAK_LEARNABLE, BoostInstance
from .losses import LossSpec, _gstar
from .lp import solve

FEAS_TOL = 1e-8
KERNEL_RANK_TOL = 1e-10
# A block at least TALL_RATIO times as tall as wide and with at least
# TALL_MIN_ENTRIES entries is first reduced to its n x n triangle by an
# unpivoted QR, and only that triangle is factored with column pivoting
TALL_RATIO = 2
TALL_MIN_ENTRIES = 1 << 15
# Witness equalities are checked relative to the witness's l1 norm: every
# entry of A has magnitude <= 1, so ||lam||_1 bounds each |a_i . lam| and
# ||psi||_1 bounds each |(A^T psi)_j|.
WITNESS_TOL = 1e-7


class InvariantViolationError(RuntimeError):
    """An internally certified structural fact failed to verify."""


def _dual_core(inst: BoostInstance) -> Tuple[list, np.ndarray, np.ndarray]:
    """0-based hard core, a dual cone vector positive on it, and a primal
    witness, all from one LP solved by :func:`boostcd.lp.solve`:

        min -1^T t  s.t.  Q_r^T (t + s) = 0,  0 <= t <= 1,  s >= 0,

    where Q_r, an orthonormal basis of range(A), is the first ``rank``
    columns of the Q of :func:`_pivoted_qr`.  Q is not formed: with B the
    first ``rank`` pivot columns of A and R11 R's leading triangle,
    B = Q_r R11 (:class:`_PivotedQR`), so Q_r^T = R11^-T B^T is one
    triangular solve (dtrsm).  B^T itself has the same kernel but R11's
    condition number: with near-copies of columns (cond(R11) 1e8) the
    interior-point iteration does not converge on it, while R11^-T B^T is
    orthonormal to about cond(R11) eps.
    Since ker(Q_r^T) = ker(A^T), this is the LP over A^T (t + s) = 0, but
    its rows are independent however A's columns repeat, as the
    interior-point method needs.  Every feasible t + s is in the dual
    cone, so t vanishes off the core; by Goldman-Tucker some cone vector
    is positive on the whole core, and scaled up it makes t = 1 on the
    core feasible.  So every optimal t is the core's 0/1 indicator.

    The optimal multipliers y satisfy Q_r y + z_s = 0 and
    Q_r y + z_t - v = -1 with z_s, z_t, v >= 0 complementary to s, t and
    1 - t.  The solver ends at a strictly complementary solution
    (s > 0 on the core), so Q_r y is 0 on the core and <= -1 off it, and
    lam solving A lam = Q_r y is the Gordan witness when the core is
    empty and the Motzkin one when it is proper.  The core is read as
    t > 1/2.  With no row off the core there is no primal witness, and
    lam is left zero.

    Each row block is factored once.  The pivoted QR A P = Q R that
    gives the LP its rows gives lam as the basic solution
    (P^T lam)[:rank] = R11^-1 y, so A lam = B R11^-1 y = Q_r y.
    A mixed instance factors its core rows once, A_core P_c = Q_c R_c,
    for both witnesses.  psi, t + s on the core, is projected onto
    ker(A_core^T) orthogonally through B_c = Q_c,r R_c11
    (:func:`_project_out`).
    lam, whose core residual is roundoff, is projected onto ker(A_core)
    obliquely by R_c: with u = P_c^T lam, u[:r] -= R_c11^-1 (R_c[:r] u)
    makes R_c[:r] u = 0, and R_c's rows below the rank r are below the
    rank tolerance, so A_core lam = Q_c R_c u is 0 to that tolerance.

    A zero row of A is in the core (psi = e_i) and would give s_i an
    unbounded ray, so zero rows are set aside before the solve.
    """
    a = inst.a
    nz = np.flatnonzero(np.any(a != 0.0, axis=1))
    core = np.ones(inst.m, dtype=bool)
    core[nz] = False
    psi = core.astype(float)
    lam = np.zeros(inst.n)
    if nz.size:
        b = a[nz]
        k = nz.size
        f = _pivoted_qr(b)
        rank = f.rank
        # R11: the triangular solves read only its upper triangle, not the
        # scratch below.  The rows come from BLAS's dtrsm, not LAPACK's
        # dtrtrs: scipy's OpenBLAS threads dtrtrs for any right-hand side of
        # two or more columns, however small, and its idle threads then
        # spin against numpy's BLAS (2 CPUs: 200-step 5000 x 500 runs after
        # a 30 x 12 analysis took 25-40% longer)
        r11 = f.qr[:rank, :rank]
        q_r_t = scipy.linalg.blas.dtrsm(1.0, r11, b[:, f.piv[:rank]].T, trans_a=1)
        # G holds it twice, and a third copy kept through the solve is A's bytes
        g = np.hstack([q_r_t, q_r_t])
        del q_r_t
        x, y = solve(g, np.zeros(rank),
                     np.concatenate([-np.ones(k), np.zeros(k)]), np.ones(k))
        in_core = x[:k] > 0.5
        core[nz[in_core]] = True
        if np.all(in_core):
            # the core block is b, whose factor is in hand
            psi[nz] = _project_out(b, f, x[:k] + x[k:])
        else:
            lam[f.piv[:rank]] = _lapack("dtrtrs", r11, y)[0]
            if np.any(in_core):
                bc = b[in_core]
                fc = _pivoted_qr(bc)
                psi[nz[in_core]] = _project_out(bc, fc, (x[:k] + x[k:])[in_core])
                rc = np.triu(fc.qr[:fc.rank])
                lam[fc.piv[:fc.rank]] -= _lapack("dtrtrs", rc[:, :fc.rank], rc @ lam[fc.piv])[0]
    return [int(i) for i in np.flatnonzero(core)], psi, lam


def regime_of(core_size: int, m: int) -> str:
    """The regime of an m-example instance with a hard core of ``core_size``."""
    return WEAK_LEARNABLE if core_size == 0 else ATTAINABLE if core_size == m else MIXED


def hard_core(inst: BoostInstance) -> list:
    """Hard core as sorted 1-based example ids, certified by the core
    LP's witnesses as in :func:`decompose`; a witness that fails to
    verify raises InvariantViolationError."""
    return [i + 1 for i in _certified_split(inst)[0]]


def verify_witness(inst: BoostInstance, core0, lam=None, psi=None) -> None:
    """Check witnesses against A on their own, for the 0-based core rows.

    Primal lam: A_off @ lam < 0 and |A_core @ lam| <= WITNESS_TOL ||lam||_1.
    Dual psi: psi >= 0, |A^T psi| <= WITNESS_TOL ||psi||_1 and psi > 0 on
    the core.  The equalities get WITNESS_TOL; the strict inequalities only
    a roundoff margin (eps times the length of the sum times the l1 norm),
    so a true witness with a tiny edge passes.  Raises
    InvariantViolationError naming the first relation that fails (NaN
    entries fail them all).  Each core id must be an integer in 0..m-1,
    as :meth:`BoostInstance.row_ids` checks; any other raises ValueError.
    """
    a = inst.a
    eps = float(np.finfo(float).eps)
    core = np.zeros(inst.m, dtype=bool)
    core[inst.row_ids(core0)] = True
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        norm = float(np.abs(lam).sum())
        margins = a @ lam
        if np.any(~core) and not float(np.max(margins[~core])) < -inst.n * eps * norm:
            raise InvariantViolationError("primal witness fails A_off @ lam < 0")
        if np.any(core) and not float(np.max(np.abs(margins[core]))) <= WITNESS_TOL * norm:
            raise InvariantViolationError("primal witness fails A_core @ lam = 0")
    if psi is not None:
        psi = np.asarray(psi, dtype=float)
        norm = float(np.abs(psi).sum())
        if not float(np.min(psi)) >= 0.0:
            raise InvariantViolationError("dual witness fails psi >= 0")
        if not float(np.max(np.abs(a.T @ psi))) <= WITNESS_TOL * norm:
            raise InvariantViolationError("dual witness fails A^T psi = 0")
        if np.any(core) and not float(np.min(psi[core])) > inst.m * eps * norm:
            raise InvariantViolationError("dual witness fails psi > 0 on the core")


@dataclass(frozen=True)
class Decomposition:
    """Row split by hard-core membership (1-based ids, ascending)."""

    rows_off_core: tuple
    rows_core: tuple
    off_core: Optional[BoostInstance]
    core: Optional[BoostInstance]


def decompose(inst: BoostInstance) -> Decomposition:
    """Split the instance into its off-core and core row blocks, certified
    by the analysis's verified witnesses from the one core LP: lam with
    A_off @ lam < 0 shows the off-core block has an empty hard core
    (Gordan), so it is weakly learnable, and psi > 0 on the core with
    A_core^T psi_core = 0 shows the core block is attainable (Stiemke).
    A witness that fails to verify raises InvariantViolationError."""
    core0, off0, _, _ = _certified_split(inst)
    return Decomposition(
        tuple(i + 1 for i in off0),
        tuple(i + 1 for i in core0),
        inst.row_subset(off0) if off0 else None,
        inst.row_subset(core0) if core0 else None,
    )


def gamma_classical(inst: BoostInstance) -> float:
    """Classical weak learning rate.

    gamma = min over probability weightings phi of max_j |(A^T phi)_j|:
    the edge the best weak learner is guaranteed against any example
    weighting, positive exactly on a weakly learnable instance.  This is
    the value :func:`analyze` reports and certifies.
    """
    return analyze(inst).gamma_classical


def _gamma_lp(inst: BoostInstance) -> float:
    """Classical rate of a weakly learnable instance from one n-row LP.

    By LP duality (the value of the boosting game),
    gamma = 1 / max{1^T phi : -1 <= A^T phi <= 1, phi >= 0}, solved by
    :func:`boostcd.lp.solve` with slacks s = A^T phi + 1 in [0, 2],
    listed first as the solver takes its bounded variables:

        min -1^T phi  s.t.  -s + A^T phi = -1,  0 <= s <= 2,  phi >= 0.

    G = [-I, A^T] always has full row rank.  The LP is unbounded, and
    the solve raises NotConvergedError, unless the instance is weakly
    learnable.  Both sides of gamma are read and checked against A: the
    edge ||A^T phi||_inf / 1^T phi of the solution is an upper bound and
    min_i -(A y)_i / ||y||_1 of the multipliers (A y <= -1) a lower one.
    The edge is returned; a lower bound more than WITNESS_TOL below it
    raises InvariantViolationError.
    """
    a = inst.a
    m, n = inst.m, inst.n
    # G built Fortran-ordered: a C-ordered one moves the mat-vecs' roundoff
    x, y = solve(np.vstack([-np.eye(n), a]).T, -np.ones(n),
                 np.concatenate([np.zeros(n), -np.ones(m)]), np.full(n, 2.0))
    phi = x[n:]
    edge = float(np.max(np.abs(a.T @ phi)) / np.sum(phi))
    if not float(np.min(-(a @ y))) >= (edge - WITNESS_TOL) * float(np.abs(y).sum()):
        raise InvariantViolationError(
            f"gamma's bracket: the multipliers' lower bound is more than "
            f"WITNESS_TOL below the edge {edge!r}")
    return edge


def _lapack(name: str, *args, **kwargs) -> list:
    """Call LAPACK's ``name`` through :mod:`scipy.linalg.lapack` and
    return its outputs before ``info``.  A nonzero info raises
    LinAlgError naming the routine, so a failed call returns no factor,
    solution or projection."""
    *out, info = getattr(scipy.linalg.lapack, name)(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info={info}")
    return out


class _PivotedQR(NamedTuple):
    """A P = Q R as :func:`_pivoted_qr` returns it.

    ``qr`` holds R on and above its diagonal (what lies below it is
    scratch), ``piv`` the column pivots (0-based) and ``rank`` A's
    numerical rank.  With B the first ``rank`` pivot columns of A and R11
    R's leading rank x rank triangle, B = Q_r R11, where Q_r, the first
    ``rank`` columns of Q, spans range(A): this is the one form in which
    the module uses range(A), and Q itself is never kept.
    """

    qr: np.ndarray
    piv: np.ndarray
    rank: int


def _is_tall(a: np.ndarray) -> bool:
    """Whether :func:`_pivoted_qr` factors ``a`` in two stages, dgeqrt
    first: at least TALL_RATIO times as tall as wide, with at least
    TALL_MIN_ENTRIES entries.  :func:`_kernel_projection` pins scipy's
    BLAS on the same blocks."""
    return a.size >= TALL_MIN_ENTRIES and a.shape[0] >= TALL_RATIO * a.shape[1]


def _pivoted_qr(a: np.ndarray) -> _PivotedQR:
    """Column-pivoted QR A P = Q R (Businger-Golub) by LAPACK's dgeqp3.

    A block at least TALL_RATIO times as tall as wide, with at least
    TALL_MIN_ENTRIES entries (:func:`_is_tall`), is first factored without
    pivoting, A = Q1 [R1; 0], by dgeqrt (compact WY, blocks of min(32, n)
    columns, all BLAS-3), and dgeqp3 factors only R1 P = Q2 R (Chan's QR
    preprocessing): A P = Q1 diag(Q2, I) [R; 0].  At 5000 x 500 that about
    halves the factor's time, since dgeqp3 does half its flops in BLAS-2;
    on small or square blocks the second stage costs more than it saves,
    and they keep the one dgeqp3 of A.  This is the only function that
    knows a factor may have two stages: both stages' reflectors are
    dropped, and what it returns is R and the pivots, which give range(A)
    as B = Q_r R11 on either path.

    The rank counts the |diag R| above KERNEL_RANK_TOL |R[0, 0]|.  dgeqp3
    pivots a column of largest norm first, and R1 has A's column norms,
    so |R[0, 0]| is A's largest column norm on either path.
    """
    if _is_tall(a):
        n = a.shape[1]
        a = np.triu(_lapack("dgeqrt", min(32, n), a)[0][:n])
    # the optimal workspace, queried first as scipy.linalg.qr queries it
    lwork = int(_lapack("dgeqp3", a, lwork=-1)[3][0])
    qr, piv, _, _ = _lapack("dgeqp3", a, lwork=lwork)
    piv -= 1
    diag = np.abs(np.diag(qr))
    return _PivotedQR(qr, piv, int(np.count_nonzero(diag > KERNEL_RANK_TOL * diag[0])))


@functools.cache
def _scipy_blas_threads():
    """``scipy_openblas_get_num_threads`` and ``..._set_num_threads`` of the
    OpenBLAS that scipy's LAPACK calls use, by ctypes: looked up through
    scipy's LAPACK extension, whose dependencies dlsym searches, on the
    first call (the first large certificate) and kept; () when the
    library or either symbol is missing."""
    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
        return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return ()


# The pin's nesting depth and the count its outermost entry found, both
# read and written under the lock (see _one_scipy_blas_thread)
_pin_lock = threading.Lock()
_pin_state = [0, 0]


@contextlib.contextmanager
def _one_scipy_blas_thread(get, put):
    """Hold scipy's OpenBLAS at one thread for the block, by the ``get``
    and ``put`` of :func:`_scipy_blas_threads`.

    The pin is shared by every thread of the process: only the outermost
    entry reads the count and sets one thread, and only the last exit
    restores what it read, a raise included, so concurrent certificates
    leave the count as they found it.  While any pin is held, all scipy
    BLAS and LAPACK work in the process runs on one thread, and a count
    set by another caller meanwhile is overwritten at the last exit.
    """
    with _pin_lock:
        if not _pin_state[0]:
            _pin_state[1] = get()
            put(1)
        _pin_state[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_state[0] -= 1
            if not _pin_state[0]:
                put(_pin_state[1])


def _kernel_projection(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection of w onto ker(A^T), by :func:`_project_out`
    through A's factor from :func:`_pivoted_qr`: O(m n^2) time and O(m n)
    memory, with Q never formed.

    On a tall block (:func:`_is_tall`), whose factor starts with BLAS-3
    dgeqrt, the factor and the projection run with scipy's OpenBLAS on
    one thread (:func:`_one_scipy_blas_thread`), and the thread count is
    restored after.  scipy bundles its own OpenBLAS beside numpy's, and a
    pool that has just worked keeps its threads spinning for a while
    (about 200 ms).  A certificate usually follows a run, whose mat-vecs
    leave numpy's pool spinning, and two scipy threads then fight it,
    while one never wakes scipy's workers and leaves no spin behind for
    the next run.  The pin costs a certificate with no BLAS work shortly
    before it, which two threads would factor faster.  Other blocks skip
    the pin, whose lookup and two calls would cost a small certificate a
    large share of its time, and make every call they made before it;
    square and wide blocks of TALL_MIN_ENTRIES entries or more were never
    timed under it.  The pin was measured on 2 vCPUs only: on a many-core
    machine one thread may be slower than the contended pool.
    """
    threads = _scipy_blas_threads() if _is_tall(a) else ()
    with _one_scipy_blas_thread(*threads) if threads else contextlib.nullcontext():
        return _project_out(a, _pivoted_qr(a), w)


def _project_out(a: np.ndarray, f: _PivotedQR, w: np.ndarray) -> np.ndarray:
    """w - Q_r Q_r^T w, the projection of w onto ker(A^T), from A and its
    factor ``f`` as :func:`_pivoted_qr` returns it.

    With B = Q_r R11, Q_r Q_r^T = B R11^-1 R11^-T B^T: each pass takes
    A^T w at the pivot entries, solves with R11^T and then R11 (dtrtrs),
    and subtracts A z for z the solution scattered onto the pivots:
    O(m n) for the two mat-vecs.  The second pass re-projects the first.

    Through R11 the result is accurate to about cond(R11) eps, not to
    roundoff as Q's Householder reflectors would keep it.  With a
    near-copy column at cond(R11) 9e9, inside the rank tolerance,
    |A^T proj| of weights in [0, 1] reached 2e-12 at 50 x 20, 9e-11 at
    600 x 60 and 5e-9 at 5000 x 500 (reflectors: 1e-13).  That is the
    size of the residual the rank tolerance already leaves when it drops
    a column just below it, and :func:`dual_certificate` refuses a
    projection past FEAS_TOL rather than certify it.  A third pass
    lowers it by less than 3x, so two are kept.  On well-conditioned
    blocks the result is at roundoff.  An empty kernel (rank == m) gives
    exact zeros, and rank 0 (A = 0) gives w.
    """
    m, rank = len(w), f.rank
    if rank == m:
        return np.zeros(m)
    if rank == 0:
        return np.array(w, dtype=float)
    r11, cols = f.qr[:rank, :rank], f.piv[:rank]
    proj, z = np.array(w, dtype=float), np.zeros(a.shape[1])
    for _ in range(2):
        y = _lapack("dtrtrs", r11, (a.T @ proj)[cols], trans=1)[0]
        z[cols] = _lapack("dtrtrs", r11, y)[0]
        proj -= a @ z
    return proj


@dataclass(frozen=True)
class DualCertificate:
    """A feasible dual vector with the optimality-gap bound it certifies:
    inf f <= objective, and inf f >= dual_value, so
    objective - inf f <= gap_bound.  dual_value never exceeds the
    objective, so gap_bound is never negative."""

    psi: np.ndarray
    dual_value: float
    gap_bound: float


def dual_certificate(inst: BoostInstance, loss: LossSpec,
                     state: IterateState) -> Optional[DualCertificate]:
    """Project the iterate's dual weights onto ker(A^T) and, when the
    projection is (numerically) in the dual cone and the conjugate's
    domain, certify the duality gap f(A lam) - inf f <= f(A lam) + f*(psi).

    The projection (:func:`_kernel_projection`) factors A once by a
    column-pivoted QR and projects through its pivot columns and R's
    leading triangle, with no Q formed: O(m n^2) time and O(m n) memory.
    It is accurate to about cond(R11) eps, not to roundoff: near the rank
    tolerance a large A can leave |A^T psi| within a small factor of
    FEAS_TOL, and a projection past it is refused (see
    :func:`_project_out`).
    A tall A is factored with scipy's BLAS on one thread, a count that is
    process-wide: while it is held every scipy BLAS call in the process
    runs on one thread, and concurrent certificates share it and restore
    the count they found (see :func:`_kernel_projection`).
    Projections with a coordinate below -1e-10 are rejected; tiny
    negatives are clipped to zero and the kernel residual re-checked.
    Returns None when no certificate can be extracted at this iterate.
    Raises ValueError, before anything is factored, when the dual weights
    are not of shape (m,) or not finite, or the objective is not finite.
    """
    w = state.dual_weights
    if np.shape(w) != (inst.m,):
        raise ValueError(f"state.dual_weights must have shape ({inst.m},), "
                         f"got {np.shape(w)}")
    objective = float(state.objective)
    if not (np.all(np.isfinite(w)) and math.isfinite(objective)):
        raise ValueError("state.dual_weights and state.objective must be finite")
    proj = _kernel_projection(inst.a, w)
    if float(np.min(proj)) < -1e-10:
        return None
    psi = np.maximum(proj, 0.0)
    if float(np.max(np.abs(inst.a.T @ psi))) > FEAS_TOL:
        return None
    fstar = float(np.sum(_gstar(loss.kind, psi)))
    if not math.isfinite(fstar):
        return None
    # inf f <= objective always; at an iterate optimal to its last bits
    # roundoff can put -f*(psi) an ulp or two above it, and lowering it to
    # the objective only shrinks the bound's error
    dual_value = min(-fstar, objective)
    return DualCertificate(psi, dual_value, objective - dual_value)


@dataclass(frozen=True)
class StructureReport:
    m: int
    n: int
    regime: str
    hard_core: tuple
    rows_off_core: tuple
    gamma_classical: float
    witness_primal: Optional[tuple]
    witness_dual: Optional[tuple]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _certified_split(inst: BoostInstance):
    """0-based core and off-core rows with their witnesses from the core
    LP: lam when some row is off the core, psi when the core is nonempty.
    Both are checked by :func:`verify_witness`, which raises
    InvariantViolationError if either fails."""
    core0, psi, lam = _dual_core(inst)
    core_set = set(core0)
    off0 = [i for i in range(inst.m) if i not in core_set]
    lam = lam if off0 else None
    psi = psi if core0 else None
    verify_witness(inst, core0, lam=lam, psi=psi)
    return core0, off0, lam, psi


def analyze(inst: BoostInstance) -> StructureReport:
    """Full structural report: regime, hard core, row split, classical
    weak learning rate, and primal/dual witnesses.

    One LP (:func:`_dual_core`) fixes the regime and gives both witnesses:
    the primal one from its multipliers and the dual one from its solution.
    A weakly learnable instance solves one more LP, the n-row gamma LP of
    :func:`_gamma_lp`; off that regime gamma is exactly 0, attained by the
    normalized dual witness.  So a weakly learnable analysis solves 2 LPs
    and any other 1.  Every witness is checked by :func:`verify_witness`
    and gamma by its bracket; a failed check raises
    InvariantViolationError."""
    core0, off0, lam, psi = _certified_split(inst)
    regime = regime_of(len(core0), inst.m)
    gamma = _gamma_lp(inst) if regime == WEAK_LEARNABLE else 0.0
    return StructureReport(
        m=inst.m,
        n=inst.n,
        regime=regime,
        hard_core=tuple(i + 1 for i in core0),
        rows_off_core=tuple(i + 1 for i in off0),
        gamma_classical=gamma,
        witness_primal=None if lam is None else tuple(float(v) for v in lam),
        witness_dual=None if psi is None else tuple(float(v) for v in psi),
    )
