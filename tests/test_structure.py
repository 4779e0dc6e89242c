"""Structural classification: regimes, hard core, decomposition, the
classical rate, kernel projections, and dual certificates, checked
against the independent references in ``references``."""

import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import boostcd
from boostcd import boost, cli, fixtures, lp, structure
from boostcd.instance import BoostInstance, make_instance
from boostcd.losses import KINDS, LOGISTIC, make_loss
from boostcd.structure import (
    ATTAINABLE,
    MIXED,
    REGIMES,
    WEAK_LEARNABLE,
    InvariantViolationError,
    analyze,
    decompose,
    dual_certificate,
    gamma_classical,
    hard_core,
    regime_of,
    verify_witness,
)
from references import (
    _highs_hard_core,
    _nonpositive_nonzero_ray,
    _unit_columns,
    attainable,
    kernel_basis,
    planted,
    weak_learnable,
)
from test_boost import _count_products

EXPECTED = {
    "mixed-3x2": (MIXED, (1, 2)),
    "weaklearn-3x3": (WEAK_LEARNABLE, ()),
    "confidence-4x3": (MIXED, (1, 2)),
    "attainable-pair": (ATTAINABLE, (1, 2)),
    "single-good": (WEAK_LEARNABLE, ()),
    "attainable-tilted": (ATTAINABLE, (1, 2, 3)),
    "attainable-slow": (ATTAINABLE, (1, 2, 3)),
    "rotated-mixed-3x2": (MIXED, (1, 2)),
}


def _state(inst, loss, lam):
    return boost._state_at(inst, loss, np.asarray(lam, dtype=float), 0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_classification(name):
    inst = fixtures.FIXTURES[name]()
    regime, core = EXPECTED[name]
    rep = analyze(inst)
    assert rep.regime == regime
    assert rep.hard_core == core
    assert hard_core(inst) == list(core)
    assert rep.rows_off_core == tuple(
        i for i in range(1, inst.m + 1) if i not in core
    )
    # the classical rate separates the regimes sharply on these fixtures
    if regime == WEAK_LEARNABLE:
        assert rep.gamma_classical == 1.0
    else:
        assert rep.gamma_classical == 0.0


def test_regime_rule():
    # the one rule analyze, fixtures.random_by_regime and gen --regime read
    assert REGIMES == (WEAK_LEARNABLE, ATTAINABLE, MIXED)
    assert [regime_of(k, 4) for k in range(5)] == [
        WEAK_LEARNABLE, MIXED, MIXED, MIXED, ATTAINABLE]
    for regime in REGIMES:
        inst = fixtures.random_by_regime(regime, seed=0, entries="ternary")
        assert analyze(inst).regime == regime


def test_report_witnesses_verify():
    rep = analyze(fixtures.weaklearn_3x3())
    w = np.array(rep.witness_primal)
    assert rep.witness_dual is None
    assert np.all(fixtures.weaklearn_3x3().a @ w <= -1.0 + 1e-8)

    rep = analyze(fixtures.attainable_slow())
    psi = np.array(rep.witness_dual)
    assert rep.witness_primal is None
    assert np.min(psi) > 1e-8
    assert np.max(np.abs(fixtures.attainable_slow().a.T @ psi)) <= 1e-8

    inst = fixtures.mixed_3x2()
    rep = analyze(inst)
    w = np.array(rep.witness_primal)
    psi = np.array(rep.witness_dual)
    off = [i - 1 for i in rep.rows_off_core]
    core = [i - 1 for i in rep.hard_core]
    assert np.all(inst.a[off] @ w <= -1.0 + 1e-8)
    assert np.max(np.abs(inst.a[core] @ w)) <= 1e-8
    assert np.all(psi[off] == 0.0)
    assert np.min(psi[core]) > 1e-8
    assert np.max(np.abs(inst.a.T @ psi)) <= 1e-8


def test_primal_witness_is_a_basic_solution():
    # lam is read off the pivoted QR of A, so it has at most rank(A)
    # nonzeros; a minimum-norm solve would spread it over all 30 learners
    inst = fixtures.random_instance(np.random.default_rng(3), 12, 30, "ternary")
    rep = analyze(inst)
    assert rep.regime == WEAK_LEARNABLE
    lam = np.array(rep.witness_primal)
    assert np.count_nonzero(lam) <= np.linalg.matrix_rank(inst.a) < inst.n
    assert np.all(inst.a @ lam <= -1.0 + 1e-8)


def _mixed_cases():
    for seed in range(3):
        yield fixtures.random_by_regime(MIXED, seed, m=20, n=8, entries="ternary")
    # a core of ten opposite pairs: rank 10 of 40 learners
    w = fixtures.random_instance(np.random.default_rng(3), 50, 40, "sign").a
    yield make_instance(np.vstack([w, -w[:10]]))


@pytest.mark.parametrize("inst", _mixed_cases())
def test_mixed_primal_witness_annihilates_the_core_to_roundoff(inst):
    # the oblique purification by the core rows' R leaves A_core @ lam at
    # roundoff, far inside the WITNESS_TOL that verify_witness grants
    rep = analyze(inst)
    assert rep.regime == MIXED
    lam = np.array(rep.witness_primal)
    core = [i - 1 for i in rep.hard_core]
    off = [i - 1 for i in rep.rows_off_core]
    eps = np.finfo(float).eps
    assert np.max(np.abs(inst.a[core] @ lam)) <= inst.n * eps * np.abs(lam).sum()
    assert np.all(inst.a[off] @ lam <= -1.0 + 1e-8)


def test_decompose_row_split():
    inst = fixtures.mixed_3x2()
    dec = decompose(inst)
    assert dec.rows_off_core == (3,)
    assert dec.rows_core == (1, 2)
    assert np.array_equal(dec.off_core.a, inst.a[[2]])
    assert np.array_equal(dec.core.a, inst.a[[0, 1]])

    dec = decompose(fixtures.weaklearn_3x3())
    assert dec.rows_core == () and dec.core is None
    assert dec.rows_off_core == (1, 2, 3)
    assert np.array_equal(dec.off_core.a, fixtures.weaklearn_3x3().a)

    dec = decompose(fixtures.attainable_pair())
    assert dec.rows_off_core == () and dec.off_core is None
    assert np.array_equal(dec.core.a, fixtures.attainable_pair().a)


def test_gamma_against_grid_search():
    inst = make_instance([[-1.0, 0.5], [-0.5, -1.0]])
    ps = np.linspace(0.0, 1.0, 100001)
    weightings = np.stack([ps, 1.0 - ps], axis=1)
    grid = float(np.min(np.max(np.abs(weightings @ inst.a), axis=1)))
    assert abs(gamma_classical(inst) - grid) <= 1e-4


def test_gamma_vanishes_along_explicit_weightings():
    # on the mixed instance the edge of the best column against
    # phi = ((1-a)/2, (1-a)/2, a) is exactly a, so the infimum is 0
    inst = fixtures.mixed_3x2()
    for k in range(1, 31):
        alpha = 2.0 ** -k
        phi = np.array([(1 - alpha) / 2, (1 - alpha) / 2, alpha])
        assert float(np.max(np.abs(inst.a.T @ phi))) == alpha
    assert 2.0 ** -10 < 1e-3
    assert gamma_classical(inst) <= 1e-8


@pytest.mark.parametrize("name", sorted(n for n in EXPECTED if EXPECTED[n][0] != WEAK_LEARNABLE))
def test_gamma_is_exactly_zero_off_the_weakly_learnable_regime(name):
    assert gamma_classical(fixtures.FIXTURES[name]()) == 0.0


def test_kernel_basis_orthonormal_and_annihilating():
    inst = fixtures.mixed_3x2()
    b = kernel_basis(inst)
    assert b.shape == (3, 1)
    assert np.max(np.abs(b.T @ b - np.eye(1))) <= 1e-10
    assert np.max(np.abs(inst.a.T @ b)) <= 1e-8
    v = np.abs(b[:, 0])
    assert abs(v[0] - 1 / math.sqrt(2)) <= 1e-12
    assert abs(v[1] - 1 / math.sqrt(2)) <= 1e-12
    assert v[2] <= 1e-12


def test_kernel_basis_trivial():
    assert kernel_basis(fixtures.single_good()).shape == (1, 0)


def test_alternatives_are_exclusive_and_exhaustive():
    rng = np.random.default_rng(11)
    kinds = ("sign", "uniform", "ternary")
    for i in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        inst = fixtures.random_instance(rng, m, n, entries=kinds[i % 3])
        core = hard_core(inst)
        weak, _ = weak_learnable(inst)
        att, _ = attainable(inst)
        ray, _ = _nonpositive_nonzero_ray(inst)
        assert weak == (core == [])
        assert att == (len(core) == inst.m)
        assert att == (not ray)
        assert not (weak and att) or inst.m == 0
        assert (gamma_classical(inst) > 1e-8) == weak


def test_dual_certificate_on_mixed_instance():
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    cert = dual_certificate(inst, loss, _state(inst, loss, [10.0, 10.0]))
    assert cert is not None
    np.testing.assert_allclose(cert.psi, [0.5, 0.5, 0.0], atol=1e-12)
    assert np.min(cert.psi) >= 0.0
    assert abs(cert.dual_value - 2 * math.log(2)) <= 1e-13
    # at lam = (10, 10) the two core margins sit at the optimum and only
    # the off-core example contributes, so the gap is log1p(e^-20)
    assert abs(cert.gap_bound - math.log1p(math.exp(-20.0))) <= 1e-13
    assert 0.0 < cert.gap_bound <= 1e-3


def test_dual_certificate_weak_learnable_is_trivial():
    # empty kernel: psi = 0 certifies inf f >= 0, a gap equal to f itself
    inst = fixtures.single_good()
    loss = make_loss(LOGISTIC, inst.m)
    st = _state(inst, loss, [5.0])
    cert = dual_certificate(inst, loss, st)
    assert np.array_equal(cert.psi, [0.0])
    assert cert.dual_value == 0.0
    assert cert.gap_bound == st.objective


@pytest.mark.parametrize("kind, psi, dual", [("exp", 1.0, 3.0),
                                             (LOGISTIC, 0.5, 3 * math.log(2.0))])
def test_dual_certificate_on_an_all_zero_matrix(kind, psi, dual):
    # A = 0 has rank 0, so every weighting is in ker(A^T): the projection
    # returns g'(0) itself, and at lam = 0 the bound is exact
    inst = BoostInstance(np.zeros((3, 2)))
    loss = make_loss(kind, inst.m)
    cert = dual_certificate(inst, loss, boost.initial_state(inst, loss))
    assert cert.psi.tolist() == [psi] * 3
    assert cert.dual_value == pytest.approx(dual, rel=1e-15) and cert.gap_bound == 0.0


def test_dual_certificate_unavailable_for_mixed_sign_kernel():
    inst = make_instance([[0.5], [1.0]])
    loss = make_loss(LOGISTIC, inst.m)
    assert dual_certificate(inst, loss, _state(inst, loss, [0.0])) is None
    # here the projection (0.26, 0.52, 0.26, 1.046) lies in the dual cone,
    # but above 1, where the logistic conjugate is +inf
    inst = make_instance([[-1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]])
    loss = make_loss(LOGISTIC, inst.m)
    lam = [4.413361789597475, 6.617463712258851]
    assert dual_certificate(inst, loss, _state(inst, loss, lam)) is None


def test_dual_certificate_never_bounds_above_the_objective():
    # at iterates optimal to their last bits, -f*(psi) can round an ulp
    # or two above f(A lam); 3 of these 40 certificates do
    for seed in range(10):
        for m, n in ((8, 3), (12, 5)):
            inst = planted(ATTAINABLE, m, n, seed)
            for kind in KINDS:
                loss = make_loss(kind, m)
                state = boost.run(inst, loss, boost.RunConfig(max_iters=100)).final_state
                cert = dual_certificate(inst, loss, state)
                assert cert.dual_value <= state.objective
                assert cert.gap_bound == state.objective - cert.dual_value >= 0.0


def test_dual_certificate_rejects_a_clipped_psi_off_the_kernel(monkeypatch):
    # a nonnegative projection with |A^T psi| above FEAS_TOL is refused
    # after the clip, whatever produced it
    inst = fixtures.mixed_3x2()
    loss = make_loss(LOGISTIC, inst.m)
    psi = np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(inst.a.T @ psi)) > structure.FEAS_TOL
    monkeypatch.setattr(structure, "_kernel_projection", lambda a, w: psi)
    assert dual_certificate(inst, loss, _state(inst, loss, [0.0, 0.0])) is None


def test_generators_reject_unknown_modes():
    with pytest.raises(ValueError, match="unknown entries mode"):
        fixtures.random_instance(np.random.default_rng(0), 3, 2, entries="bogus")
    with pytest.raises(ValueError, match="unknown regime"):
        fixtures.random_by_regime("bogus", 0)


def _projection_cases():
    rng = np.random.default_rng(23)
    yield fixtures.random_instance(rng, 60, 12)              # full rank, m > n
    yield fixtures.random_instance(rng, 8, 20)               # m < n, rank == m
    w = fixtures.random_instance(rng, 40, 9, "ternary").a
    yield make_instance(np.hstack([w, w[:, :3], -w[:, 3:6]]))  # duplicated, negated
    w = rng.uniform(-1.0, 1.0, size=(30, 4))
    yield make_instance(np.hstack([w, w @ rng.uniform(-0.2, 0.2, size=(4, 6))]))  # rank 4 of 10
    yield fixtures.single_good()                             # rank == m == 1


def test_kernel_projection_matches_the_kernel_basis():
    rng = np.random.default_rng(5)
    ranks = set()
    for inst in _projection_cases():
        basis = kernel_basis(inst)
        ranks.add(inst.m - basis.shape[1])
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, size=inst.m)
            proj = structure._kernel_projection(inst.a, w)
            if basis.shape[1] == 0:
                assert np.array_equal(proj, np.zeros(inst.m))
            else:
                assert np.max(np.abs(proj - basis @ (basis.T @ w))) <= 1e-12
                assert np.max(np.abs(inst.a.T @ proj)) <= 1e-13
    assert ranks == {12, 8, 9, 4, 1}


def _near_copy(m, n, cond, seed):
    # column 1 is column 0 plus a step orthogonal to the other columns,
    # sized so that cond(A), which is cond(R11) at full rank, is about cond
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=(m, n))
    v = rng.standard_normal(m)
    others = np.delete(a, 1, axis=1)
    v -= others @ np.linalg.lstsq(others, v, rcond=None)[0]
    a[:, 1] = a[:, 0] + np.sqrt(2.0) * np.linalg.norm(a, 2) / cond * v / np.linalg.norm(v)
    return a


def test_projection_near_the_rank_tolerance():
    # the projection goes through B = Q_r R11, so it is accurate to about
    # cond(R11) eps: a near-copy column at cond(R11) 1e9 and 5e9, inside
    # the rank tolerance, still leaves A^T of the projection far inside
    # FEAS_TOL, on the one-stage and the two-stage factor alike
    rng = np.random.default_rng(28)
    for m, n in ((50, 20), (600, 60)):
        for cond in (1e9, 5e9):
            a = _near_copy(m, n, cond, seed=int(cond // 1e9))
            assert cond / 2 <= np.linalg.cond(a) <= 2 * cond
            f = structure._pivoted_qr(a)
            r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
            tol = structure.KERNEL_RANK_TOL * np.max(np.linalg.norm(a, axis=0))
            assert f.rank == np.count_nonzero(np.abs(np.diag(r)) > tol) == n
            assert structure._is_tall(a) == (m == 600)
            for _ in range(3):
                proj = structure._kernel_projection(a, rng.uniform(0.0, 1.0, size=m))
                assert np.max(np.abs(a.T @ proj)) <= 1e-9
    # a planted attainable 600x60 instance whose column 1 is made a
    # near-copy of column 0 by a step orthogonal to a positive kernel
    # vector, so it stays attainable: its certificate is still accepted
    inst = planted(ATTAINABLE, 600, 60, 1)
    psi = np.array(analyze(inst).witness_dual)
    step = rng.standard_normal(inst.m)
    step -= psi * (psi @ step) / (psi @ psi)
    a = np.array(inst.a)
    a[:, 1] = a[:, 0] + 3e-8 * step / np.linalg.norm(step)
    inst = make_instance(a / np.max(np.abs(a)))
    assert structure._pivoted_qr(inst.a).rank == inst.n
    assert 5e8 <= np.linalg.cond(inst.a) <= 2e9
    loss = make_loss(LOGISTIC, inst.m)
    state = boost.run(inst, loss, boost.RunConfig(max_iters=200)).final_state
    cert = dual_certificate(inst, loss, state)
    assert cert is not None and cert.gap_bound >= 0.0
    assert np.max(np.abs(inst.a.T @ cert.psi)) <= structure.FEAS_TOL


def _full_q_projection(a, w):
    basis = kernel_basis(make_instance(a))
    return basis @ (basis.T @ w)


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("kind", KINDS)
def test_dual_certificate_agrees_with_the_full_q_reference(name, kind, monkeypatch):
    inst = fixtures.FIXTURES[name]()
    loss = make_loss(kind, inst.m)
    states = [_state(inst, loss, np.zeros(inst.n)),
              boost.run(inst, loss, boost.RunConfig(max_iters=150)).final_state]
    for state in states:
        cert = dual_certificate(inst, loss, state)
        with monkeypatch.context() as mp:
            mp.setattr(structure, "_kernel_projection", _full_q_projection)
            ref = dual_certificate(inst, loss, state)
        assert (cert is None) == (ref is None)
        if cert is not None:
            assert np.max(np.abs(cert.psi - ref.psi)) <= 1e-12
            assert abs(cert.gap_bound - ref.gap_bound) <= 1e-12


def test_dual_certificate_never_forms_an_m_by_m_array():
    # the full m x m Q of a 3000-row instance takes 72 MB; the thin
    # pivoted-QR factor of a 3000 x 20 instance under half a megabyte
    inst = fixtures.random_instance(np.random.default_rng(3), 3000, 20)
    loss = make_loss(LOGISTIC, inst.m)
    state = _state(inst, loss, np.zeros(inst.n))
    tracemalloc.start()
    try:
        dual_certificate(inst, loss, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 * 8 / 4
    # the one m x n copy that dgeqrt factors, and no thin Q beside it
    assert peak < 1.5 * inst.m * inst.n * 8


def test_dual_certificate_checks_its_inputs_before_factoring(monkeypatch):
    # a wrong-length vector must be refused before the factor is paid for
    inst = fixtures.random_instance(np.random.default_rng(3), 8, 3)
    loss = make_loss(LOGISTIC, inst.m)
    state = _state(inst, loss, np.zeros(inst.n))
    factors = []
    monkeypatch.setattr(structure, "_pivoted_qr", _counting(factors, structure._pivoted_qr))
    for w in (np.ones(5), np.ones(12), np.ones((8, 1))):
        with pytest.raises(ValueError, match=r"dual_weights must have shape \(8,\)"):
            dual_certificate(inst, loss, dataclasses.replace(state, dual_weights=w))
    # and so must weights or an objective that are not finite: NaN weights
    # were factored before psi's NaN check refused them, and a NaN or inf
    # objective came back as the certificate's gap bound
    for bad in (np.nan, np.inf, -np.inf):
        w = np.ones(8)
        w[3] = bad
        for changes in ({"dual_weights": w}, {"objective": bad}):
            with pytest.raises(ValueError, match="must be finite"):
                dual_certificate(inst, loss, dataclasses.replace(state, **changes))
    assert factors == []


@pytest.mark.parametrize("name", ["dgeqp3", "dtrtrs", "dgeqrt"])
def test_a_nonzero_lapack_info_raises(name, monkeypatch):
    # an analysis and a certificate run every routine their blocks' path
    # calls: dgeqp3 always, dtrtrs in every projection and in a mixed
    # instance's primal witness; the 3x2 fixtures take the one-stage path,
    # the 600x60 blocks the two-stage one, which adds dgeqrt
    real = getattr(scipy.linalg.lapack, name)

    def failing(*args, **kwargs):
        ret = real(*args, **kwargs)
        return ret if kwargs.get("lwork") == -1 else (*ret[:-1], -4)

    monkeypatch.setattr(scipy.linalg.lapack, name, failing)
    regime, small = ((MIXED, fixtures.mixed_3x2) if name == "dtrtrs"
                     else (ATTAINABLE, fixtures.attainable_tilted))
    insts = [planted(regime, 600, 60, 0)]
    if name != "dgeqrt":
        insts.append(small())
    for inst in insts:
        with pytest.raises(np.linalg.LinAlgError, match=f"LAPACK {name} returned info=-4"):
            analyze(inst)
        loss = make_loss(LOGISTIC, inst.m)
        with pytest.raises(np.linalg.LinAlgError, match=name):
            dual_certificate(inst, loss, _state(inst, loss, np.zeros(inst.n)))


def test_pivoted_qr_matches_scipy(monkeypatch):
    # scipy.linalg.qr is the reference: with dgeqp3's workspace queried
    # as scipy queries it, the pivots, the rank and R are its own to the
    # bit, so the rank decisions the hard core and every certificate rest
    # on are scipy's; the core LP's rows [Q_r^T, Q_r^T] come from R11 and
    # the pivot columns, not from scipy's Q, so they match it to roundoff
    class Captured(Exception):
        pass

    def capture(g, h, c, upper):
        rows.append(g)
        raise Captured

    monkeypatch.setattr(structure, "solve", capture)
    cases = [*_projection_cases(),
             *(planted(r, m, n, s) for r in REGIMES
               for m, n in ((20, 8), (50, 20), (200, 60)) for s in range(2))]
    deficient = 0
    for inst in cases:
        a, rows = inst.a, []
        f, piv, rank = structure._pivoted_qr(a)
        q, r, p = scipy.linalg.qr(a, mode="economic", pivoting=True)
        tol = structure.KERNEL_RANK_TOL * np.max(np.linalg.norm(a, axis=0))
        assert not structure._is_tall(a)
        assert np.array_equal(piv, p)
        assert rank == np.count_nonzero(np.abs(np.diag(r)) > tol)
        assert np.array_equal(np.triu(f[:r.shape[0]]), r)
        assert np.all(np.any(a != 0.0, axis=1))  # the LP's block is all of A
        with pytest.raises(Captured):
            analyze(inst)
        assert np.array_equal(rows[0][:, :inst.m], rows[0][:, inst.m:])
        assert np.max(np.abs(rows[0][:, :inst.m].T - q[:, :rank])) <= 1e-13
        deficient += rank < min(a.shape)
    assert deficient >= 2


def _tall_cases():
    # every block at least twice as tall as wide with at least 2^15 entries
    rng = np.random.default_rng(24)
    yield fixtures.random_instance(rng, 600, 60)                    # full rank
    w = fixtures.random_instance(rng, 600, 48, "ternary").a
    yield make_instance(np.hstack([w, w[:, :6], -w[:, 6:12]]))     # duplicated, negated
    w = rng.uniform(-1.0, 1.0, size=(700, 8))
    yield make_instance(w @ rng.uniform(-0.2, 0.2, size=(8, 60)))  # rank 8 of 60


def test_tall_blocks_are_pivoted_on_their_triangle(monkeypatch):
    # dgeqrt reduces a tall block to its n x n triangle and dgeqp3 pivots
    # only that; the pivots may differ from scipy's on norm ties, so the
    # rank, the range and the projection are compared instead
    class Captured(Exception):
        pass

    def capture(g, h, c, upper):
        rows.append(g)
        raise Captured

    shapes = []
    monkeypatch.setattr(structure, "solve", capture)
    monkeypatch.setattr(scipy.linalg.lapack, "dgeqp3",
                        _counting(shapes, scipy.linalg.lapack.dgeqp3))
    rng = np.random.default_rng(7)
    ranks = []
    for inst in _tall_cases():
        a, rows, shapes[:] = inst.a, [], []
        assert a.size >= structure.TALL_MIN_ENTRIES
        assert inst.m >= structure.TALL_RATIO * inst.n
        f = structure._pivoted_qr(a)
        assert f.qr.shape == (inst.n, inst.n)
        q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
        tol = structure.KERNEL_RANK_TOL * np.max(np.linalg.norm(a, axis=0))
        assert f.rank == np.count_nonzero(np.abs(np.diag(r)) > tol)
        ranks.append(f.rank)
        with pytest.raises(Captured):
            analyze(inst)
        q_r = rows[0][:, :inst.m].T
        assert np.max(np.abs(q_r @ q_r.T - q[:, :f.rank] @ q[:, :f.rank].T)) <= 1e-13
        basis = kernel_basis(inst)
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, size=inst.m)
            proj = structure._kernel_projection(a, w)
            assert np.max(np.abs(proj - basis @ (basis.T @ w))) <= 1e-12
            assert np.max(np.abs(a.T @ proj)) <= 1e-13
        assert shapes and all(args[0].shape[0] <= inst.n for args in shapes)
    assert ranks == [60, 48, 8]


def test_tall_blocks_are_analyzed_end_to_end():
    # every block below is tall, so the core LP's rows and both witnesses
    # come from the two-stage factor
    regimes = []
    for inst in [*(planted(r, 600, 60, 0) for r in REGIMES), list(_tall_cases())[2]]:
        assert inst.a.size >= structure.TALL_MIN_ENTRIES
        assert inst.m >= structure.TALL_RATIO * inst.n
        rep = analyze(inst)
        assert list(rep.hard_core) == _highs_hard_core(_unit_columns(inst.a))
        verify_witness(inst, [i - 1 for i in rep.hard_core],
                       lam=rep.witness_primal, psi=rep.witness_dual)
        regimes.append(rep.regime)
    assert regimes[:3] == list(REGIMES)


@pytest.mark.parametrize("kind", KINDS)
def test_dual_certificate_is_accepted_on_a_tall_block(kind, monkeypatch):
    # a planted attainable 600x60 instance: after 200 steps the projected
    # weights are in the dual cone, so the certificate's accept branch runs
    # on the two-stage factor
    inst = planted(ATTAINABLE, 600, 60, 1)
    loss = make_loss(kind, inst.m)
    state = boost.run(inst, loss, boost.RunConfig(max_iters=200)).final_state
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(scipy.linalg.lapack, "dgeqrt", _counting(calls, scipy.linalg.lapack.dgeqrt))
        cert = dual_certificate(inst, loss, state)
    assert len(calls) == 1
    with monkeypatch.context() as mp:
        mp.setattr(structure, "_kernel_projection", _full_q_projection)
        ref = dual_certificate(inst, loss, state)
    assert cert is not None and ref is not None
    assert np.max(np.abs(cert.psi - ref.psi)) <= 1e-12
    assert abs(cert.gap_bound - ref.gap_bound) <= 1e-12
    assert cert.gap_bound >= 0.0


# The work of one certificate, by planted case (seed 1, 200 logistic Wolfe
# steps): one factor of A (dgeqp3's workspace query and the factor, after
# dgeqrt on a tall A) and the two passes of _project_out, each two dtrtrs,
# one A.T @ w and one A @ z; a projection that passes the cone test is
# checked by one more A.T @ psi.
@pytest.mark.parametrize("regime, m, n, accepted", [
    (ATTAINABLE, 50, 20, True), (ATTAINABLE, 600, 60, True), (MIXED, 50, 20, False)])
def test_a_certificate_factors_once_and_passes_over_a_four_or_five_times(
        regime, m, n, accepted, monkeypatch):
    inst = planted(regime, m, n, 1)
    loss = make_loss(LOGISTIC, inst.m)
    state = boost.run(inst, loss, boost.RunConfig(max_iters=200)).final_state
    factors, routines = [], collections.Counter()
    lapack = structure._lapack

    def counting(name, *args, **kwargs):
        routines[name] += 1
        return lapack(name, *args, **kwargs)

    monkeypatch.setattr(structure, "_pivoted_qr", _counting(factors, structure._pivoted_qr))
    monkeypatch.setattr(structure, "_lapack", counting)
    products = _count_products(inst)
    assert (dual_certificate(inst, loss, state) is not None) == accepted
    assert len(factors) == 1
    tall = {"dgeqrt": 1} if m == 600 else {}
    assert routines == {"dgeqp3": 2, "dtrtrs": 4, **tall}
    assert products == {(m, n): 2, (n, m): 2 + accepted}


def _tall_certificate_case():
    # a planted attainable 600x60 instance after 200 steps: at the pin's
    # gate (TALL_MIN_ENTRIES entries), and its certificate is accepted
    inst = planted(ATTAINABLE, 600, 60, 1)
    assert inst.a.size >= structure.TALL_MIN_ENTRIES
    loss = make_loss(LOGISTIC, inst.m)
    return inst, loss, boost.run(inst, loss, boost.RunConfig(max_iters=200)).final_state


def _scipy_blas_threads_or_skip():
    threads = structure._scipy_blas_threads()
    if not threads:
        pytest.skip("this scipy build exports no OpenBLAS thread-count functions")
    return threads


def test_large_certificates_run_on_one_scipy_blas_thread(monkeypatch):
    # every LAPACK call of the certificate's factor and projection sees
    # one thread, and the count before the certificate is restored after
    # it, also when a LAPACK call raises inside the pin
    get, put = _scipy_blas_threads_or_skip()
    inst, loss, state = _tall_certificate_case()
    real, seen = structure._lapack, []

    def recording(name, *args, **kwargs):
        seen.append((name, get()))
        return real(name, *args, **kwargs)

    def failing(name, *args, **kwargs):
        if name == "dgeqrt":
            raise np.linalg.LinAlgError("LAPACK dgeqrt returned info=-4")
        return real(name, *args, **kwargs)

    before = get()
    try:
        put(2)
        monkeypatch.setattr(structure, "_lapack", recording)
        assert dual_certificate(inst, loss, state) is not None
        assert get() == 2
        assert {name for name, _ in seen} == {"dgeqrt", "dgeqp3", "dtrtrs"}
        assert {k for _, k in seen} == {1}
        monkeypatch.setattr(structure, "_lapack", failing)
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrt"):
            dual_certificate(inst, loss, state)
        assert get() == 2
    finally:
        put(before)


def test_small_certificates_skip_the_blas_pin(monkeypatch):
    # only a tall block, factored by dgeqrt first, is pinned: a 50 x 20
    # certificate, and square or wide blocks of TALL_MIN_ENTRIES entries
    # or more, make the calls they made before the pin: no lookup, no
    # get or set
    def never():
        raise AssertionError("the pin ran on a block that is not tall")

    monkeypatch.setattr(structure, "_scipy_blas_threads", never)
    inst = planted(MIXED, 50, 20, 0)
    loss = make_loss(LOGISTIC, inst.m)
    state = boost.run(inst, loss, boost.RunConfig(max_iters=50)).final_state
    dual_certificate(inst, loss, state)
    rng = np.random.default_rng(27)
    for m, n in ((200, 200), (120, 300), (300, 160)):
        a = rng.uniform(-1, 1, (m, n))
        assert a.size >= structure.TALL_MIN_ENTRIES
        assert not structure._is_tall(a) and structure._pivoted_qr(a).qr.shape == (m, n)
        structure._kernel_projection(a, rng.uniform(0, 1, m))


def test_concurrent_large_certificates_share_the_blas_pin(monkeypatch):
    # two threads certify at once, the second entering its pin after the
    # first and leaving after it: the pin is shared, so scipy's count
    # stays at one until the last exit, which restores the count found
    # before either (a pin per call would restore 2 under the second
    # thread and leave 1 behind)
    get, put = _scipy_blas_threads_or_skip()
    inst, loss, state = _tall_certificate_case()
    alone = dual_certificate(inst, loss, state)
    real, local = structure._lapack, threading.local()
    entered, inside, first_done = threading.Event(), threading.Event(), threading.Event()
    seen, out = ([], []), [None, None]

    def staged(name, *args, **kwargs):
        if not seen[local.k]:
            if local.k == 0:
                entered.set()
                inside.wait(timeout=60)
            else:
                inside.set()
                first_done.wait(timeout=60)
        seen[local.k].append(get())
        return real(name, *args, **kwargs)

    def certify(k):
        local.k = k
        try:
            out[k] = dual_certificate(inst, loss, state)
        except BaseException as exc:  # re-raised below, in the test's thread
            out[k] = exc
        finally:
            if k == 0:
                first_done.set()

    before = get()
    try:
        put(2)
        monkeypatch.setattr(structure, "_lapack", staged)
        workers = [threading.Thread(target=certify, args=(k,)) for k in (0, 1)]
        workers[0].start()
        entered.wait(timeout=60)
        workers[1].start()
        for t in workers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in workers)
        assert get() == 2
    finally:
        put(before)
    for cert in out:
        if isinstance(cert, BaseException):
            raise cert
        assert np.allclose(cert.psi, alone.psi, rtol=1e-12, atol=0.0)
    assert seen[0] and seen[1] and set(seen[0]) | set(seen[1]) == {1}


@pytest.mark.parametrize("missing", ["symbols", "library"])
def test_large_certificates_without_the_blas_symbols_run_unpinned(missing, monkeypatch):
    # another scipy build: the lookup finds nothing and the pin does
    # nothing; the certificate moves only by the thread count's roundoff
    _scipy_blas_threads_or_skip()
    inst, loss, state = _tall_certificate_case()
    pinned = dual_certificate(inst, loss, state)

    def cdll(path):
        if missing == "library":
            raise OSError(path)
        return object()

    structure._scipy_blas_threads.cache_clear()
    try:
        monkeypatch.setattr(structure.ctypes, "CDLL", cdll)
        unpinned = dual_certificate(inst, loss, state)
        assert structure._scipy_blas_threads() == ()
    finally:
        monkeypatch.undo()
        structure._scipy_blas_threads.cache_clear()
    assert pinned is not None and unpinned is not None
    assert np.max(np.abs(unpinned.psi - pinned.psi)) <= 1e-12 * np.max(pinned.psi)
    assert abs(unpinned.gap_bound - pinned.gap_bound) <= 1e-12 * pinned.gap_bound


def test_import_leaves_scipy_blas_alone():
    # the lookup is lazy: importing the package neither opens scipy's
    # OpenBLAS by ctypes nor changes its thread count
    code = ("import ctypes, os, scipy, scipy.linalg\n"
            "libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), 'scipy.libs')\n"
            "names = [n for n in sorted(os.listdir(libs)) if n.startswith('libscipy_openblas')]\n"
            "get = ctypes.CDLL(os.path.join(libs, names[0])).scipy_openblas_get_num_threads\n"
            "before = get()\n"
            "import boostcd\n"
            "from boostcd import structure\n"
            "print(structure._scipy_blas_threads.cache_info().currsize == 0,"
            " get() == before)\n")
    _scipy_blas_threads_or_skip()
    src = os.path.dirname(os.path.dirname(boostcd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["True", "True"]


def test_report_json_shape():
    rep = analyze(fixtures.mixed_3x2())
    text = rep.to_json()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == [
        "m", "n", "regime", "hard_core", "rows_off_core",
        "gamma_classical", "witness_primal", "witness_dual",
    ]
    assert obj["m"] == 3 and obj["n"] == 2
    assert obj["regime"] == "mixed"
    assert obj["hard_core"] == [1, 2]
    assert obj["gamma_classical"] == 0.0


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_analyze_solves_at_most_two_lps(name, monkeypatch):
    # and factors each row block once: the nonzero rows, and on a mixed
    # instance the core rows; no least-squares solve refactors them
    calls, factors, lstsq = [], [], []
    monkeypatch.setattr(structure, "solve", _counting(calls, structure.solve))
    monkeypatch.setattr(structure, "_pivoted_qr", _counting(factors, structure._pivoted_qr))
    monkeypatch.setattr(np.linalg, "lstsq", _counting(lstsq, np.linalg.lstsq))
    inst = fixtures.FIXTURES[name]()
    rep = analyze(inst)
    assert len(calls) == {WEAK_LEARNABLE: 2, ATTAINABLE: 1, MIXED: 1}[rep.regime]
    assert len(factors) == {WEAK_LEARNABLE: 1, ATTAINABLE: 1, MIXED: 2}[rep.regime]
    assert lstsq == []
    if rep.regime == WEAK_LEARNABLE:
        # the gamma LP has one row per weak learner
        assert calls[1][0].shape == (inst.n, inst.m + inst.n)


# Interior-point factorizations per LP of an analysis of ``planted`` seeds
# 0-2 at 20x8, 50x20 and 200x60: the largest count seen plus one, for the
# core LP and, when weakly learnable, the gamma LP.  Seen: core 7-10 and
# gamma 8-12 weakly learnable, 6-7 attainable, 9-12 mixed.
LP_FACTOR_PINS = {WEAK_LEARNABLE: (11, 13), ATTAINABLE: (8,), MIXED: (13,)}


@pytest.mark.parametrize("regime", REGIMES)
def test_analysis_lps_factor_within_their_pins(regime, monkeypatch):
    per_lp = []
    solve, factor = structure.solve, lp._factor

    def solving(*args):
        per_lp.append(0)
        return solve(*args)

    def factoring(*args):
        per_lp[-1] += 1
        return factor(*args)

    monkeypatch.setattr(structure, "solve", solving)
    monkeypatch.setattr(lp, "_factor", factoring)
    pins = LP_FACTOR_PINS[regime]
    for m, n in ((20, 8), (50, 20), (200, 60)):
        for seed in range(3):
            per_lp.clear()
            assert analyze(planted(regime, m, n, seed)).regime == regime
            assert len(per_lp) == len(pins)
            assert all(0 < k <= pin for k, pin in zip(per_lp, pins)), (m, n, seed, per_lp)


# The structure layer's own LAPACK calls (through structure._lapack) and
# BLAS dtrsm calls in one analysis of ``planted`` seeds 0-2 at 20x8 and
# 50x20, the same on every instance: each factor of a row block is
# dgeqp3's workspace query and the factor; the core LP's rows are one
# dtrsm; the primal witness is one dtrtrs, and on a mixed instance its
# oblique projection one more; each projection of psi (_project_out) is
# two passes of two dtrtrs.
STRUCTURE_CALL_PINS = {
    WEAK_LEARNABLE: {"dgeqp3": 2, "dtrtrs": 1, "dtrsm": 1},
    ATTAINABLE: {"dgeqp3": 2, "dtrtrs": 4, "dtrsm": 1},
    MIXED: {"dgeqp3": 4, "dtrtrs": 6, "dtrsm": 1},
}


@pytest.mark.parametrize("regime", REGIMES)
def test_an_analysis_makes_its_pinned_lapack_calls(regime, monkeypatch):
    routines = collections.Counter()
    lapack, dtrsm = structure._lapack, scipy.linalg.blas.dtrsm

    def counting(name, *args, **kwargs):
        routines[name] += 1
        return lapack(name, *args, **kwargs)

    def counting_dtrsm(*args, **kwargs):
        routines["dtrsm"] += 1
        return dtrsm(*args, **kwargs)

    monkeypatch.setattr(structure, "_lapack", counting)
    monkeypatch.setattr(scipy.linalg.blas, "dtrsm", counting_dtrsm)
    for m, n in ((20, 8), (50, 20)):
        for seed in range(3):
            routines.clear()
            assert analyze(planted(regime, m, n, seed)).regime == regime
            assert routines == STRUCTURE_CALL_PINS[regime], (m, n, seed)


def _random_cases():
    rng = np.random.default_rng(5)  # the draws on which unrefreshed pivots failed
    for m, n in ((30, 12), (40, 16), (50, 20)):
        yield fixtures.random_instance(rng, m, n, "sign")
    rng = np.random.default_rng(3)
    for m, n, kind in ((48, 40, "sign"), (70, 40, "sign"), (100, 40, "sign"),
                       (60, 40, "uniform"), (100, 40, "uniform")):
        yield fixtures.random_instance(rng, m, n, kind)
    # mixed: a weakly learnable block plus negated copies of ten of its
    # rows, each pair of which the dual cone weights equally
    w = fixtures.random_instance(rng, 50, 40, "sign").a
    yield make_instance(np.vstack([w, -w[:10]]))
    # two core LPs whose tableau entries grow large, where an absolute
    # pivot cut let Bland's rule price and pivot on roundoff: the first
    # was reported unbounded, the second (planted attainable: A projected
    # orthogonal to a positive psi) made the basis singular
    yield fixtures.random_instance(np.random.default_rng(99), 100, 40, "sign")
    rng = np.random.default_rng([641, 0, 1, 35, 14])
    psi = rng.uniform(0.5, 1.0, 35)
    a = rng.uniform(-1.0, 1.0, (35, 14))
    a -= np.outer(psi, psi @ a) / (psi @ psi)
    yield make_instance(a / np.max(np.abs(a)))
    # the dense simplex this package used to bundle ran out of its 50000
    # Bland-rule pivots on this draw
    yield fixtures.random_instance(np.random.default_rng(0), 80, 80, "ternary")


def test_hard_core_matches_highs_on_random_instances():
    regimes = set()
    for inst in _random_cases():
        rep = analyze(inst)
        assert list(rep.hard_core) == _highs_hard_core(inst.a)
        regimes.add(rep.regime)
    assert regimes == {WEAK_LEARNABLE, ATTAINABLE, MIXED}


def _degenerate_cases():
    rng = np.random.default_rng(17)
    for i in range(10):
        m = int(rng.integers(6, 30))
        n = int(rng.integers(3, 10))
        a = fixtures.random_instance(rng, m, n, ("sign", "uniform", "ternary")[i % 3]).a
        if i % 2:  # negated copies of a third of the rows join the core
            a = np.vstack([a, -a[:m // 3]])
        yield np.hstack([a, a[:, :2]])                          # duplicated columns
        yield np.hstack([a, -a[:, :2]])                         # negated columns
        yield np.insert(a, [0, m // 2, m // 2], 0.0, axis=0)    # zero rows
        yield a * 1e-9                                          # the whole matrix tiny
        b = a.copy()
        b[:, 0] *= 1e-9                                         # one column tiny
        yield b


def test_hard_core_matches_highs_on_degenerate_instances():
    regimes = set()
    for a in _degenerate_cases():
        rep = analyze(make_instance(a))
        assert list(rep.hard_core) == _highs_hard_core(_unit_columns(a))
        regimes.add(rep.regime)
    assert regimes == {WEAK_LEARNABLE, ATTAINABLE, MIXED}


@pytest.mark.parametrize("delta", [1e-8, 1e-9])
@pytest.mark.parametrize("seed", range(3))
def test_near_dependent_pivot_columns_are_labelled(delta, seed):
    # four near-copies of columns make R11 ill conditioned (cond 1e8 and
    # more): the core LP's rows R11^-T B^T are orthonormal to about
    # cond(R11) eps, where the raw pivot columns B stall the solver
    a = planted(WEAK_LEARNABLE, 40, 12, seed).a
    rng = np.random.default_rng(seed)
    a = np.hstack([a, a[:, :4] + delta * rng.uniform(-1.0, 1.0, size=(40, 4))])
    inst = make_instance(a / np.max(np.abs(a)))
    rep = analyze(inst)
    assert rep.regime == WEAK_LEARNABLE
    verify_witness(inst, [], lam=rep.witness_primal)


def _metamorphic_cases():
    for regime in REGIMES:
        for seed in range(3):
            yield planted(regime, 50, 20, seed)
        yield planted(regime, 200, 60, 0)


def test_metamorphic_relations_of_the_analysis():
    # exact invariances of the hard core and gamma, which need no
    # reference solver: a row permutation permutes the core, scaling A by
    # c scales gamma by c, and appending negated columns changes neither
    rng = np.random.default_rng(12)
    for inst in _metamorphic_cases():
        rep = analyze(inst)
        core = np.zeros(inst.m, dtype=bool)
        core[[i - 1 for i in rep.hard_core]] = True
        perm = rng.permutation(inst.m)
        permuted = analyze(make_instance(inst.a[perm]))
        assert permuted.hard_core == tuple(np.flatnonzero(core[perm]) + 1)
        for c in (0.5, 1e-3):
            scaled = analyze(make_instance(c * inst.a))
            assert scaled.hard_core == rep.hard_core
            assert abs(scaled.gamma_classical - c * rep.gamma_classical) <= (
                1e-7 * c * rep.gamma_classical)
        cols = rng.choice(inst.n, size=3, replace=False)
        negated = analyze(make_instance(np.hstack([inst.a, -inst.a[:, cols]])))
        assert negated.hard_core == rep.hard_core
        assert abs(negated.gamma_classical - rep.gamma_classical) <= 1e-7 * rep.gamma_classical


def test_column_and_row_copies_keep_the_core():
    # metamorphic relations: a column permutation or appended copies of columns
    # leave range(A), so ker(A^T) and the core, unchanged; an appended
    # copy of row i is in the core exactly when row i is, and moves no
    # other row (psi + psi_copy e_i maps the new cone onto the old one)
    rng = np.random.default_rng(13)
    for regime in REGIMES:
        for seed in range(3):
            inst = planted(regime, 50, 20, seed)
            core = analyze(inst).hard_core
            permuted = make_instance(inst.a[:, rng.permutation(inst.n)])
            assert analyze(permuted).hard_core == core
            copied = make_instance(np.hstack([inst.a, inst.a[:, [0, 5, 7]]]))
            assert analyze(copied).hard_core == core
            for i in (0, 49):
                doubled = analyze(make_instance(np.vstack([inst.a, inst.a[i]])))
                assert doubled.hard_core == core + ((51,) if i + 1 in core else ())


def test_verify_witness_rejects_corrupted_witnesses():
    inst = fixtures.confidence_4x3()
    rep = analyze(inst)
    core0 = [i - 1 for i in rep.hard_core]
    lam = np.array(rep.witness_primal)
    psi = np.array(rep.witness_dual)
    verify_witness(inst, core0, lam=lam, psi=psi)

    with pytest.raises(InvariantViolationError, match="A_off @ lam < 0"):
        verify_witness(inst, core0, lam=-lam)
    with pytest.raises(InvariantViolationError, match="A_core @ lam = 0"):
        verify_witness(inst, core0, lam=lam + np.array([1e-3, 0.0, 0.0]))
    with pytest.raises(InvariantViolationError, match="psi >= 0"):
        verify_witness(inst, core0, psi=psi - np.array([0.0, 0.0, 1e-3, 0.0]))
    with pytest.raises(InvariantViolationError, match=r"A\^T psi = 0"):
        verify_witness(inst, core0, psi=psi + np.array([1e-3, 0.0, 0.0, 0.0]))
    with pytest.raises(InvariantViolationError, match="psi > 0 on the core"):
        verify_witness(inst, core0 + [3], psi=psi)


def test_verify_witness_checks_the_core_ids():
    # numpy would read -2 as row 1 and booleans as a mask, and 3 is past
    # the last row: each is refused by name, not taken or left to an
    # IndexError
    inst = fixtures.mixed_3x2()
    rep = analyze(inst)
    lam, psi = np.array(rep.witness_primal), np.array(rep.witness_dual)
    verify_witness(inst, np.array([0, 1]), lam=lam, psi=psi)
    for core0, named in [([0, -2], "-2"), ([0, 3], "3"), ([True, True, False], "True, True, False"),
                         ([0.0, 1.0], "0.0, 1.0")]:
        for witness in ({"lam": lam}, {"psi": psi}):
            with pytest.raises(ValueError, match=rf"integers in 0\.\.2; got {re.escape(named)}$"):
                verify_witness(inst, core0, **witness)


@pytest.mark.parametrize("rows, regime, core", [
    ([[-1.0, 0.0], [1.0, -1e-8]], WEAK_LEARNABLE, ()),
    ([[-1.0, 0.0, 0.0], [1.0, -1e-8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
     MIXED, (3, 4)),
    ([[1.0], [-1e-8]], ATTAINABLE, (1, 2)),
])
def test_analyze_accepts_true_witnesses_with_a_tiny_edge(rows, regime, core):
    # The witnesses span eight orders of magnitude (lam = (1, 2e8), psi =
    # (1, 1e8)), so the strict relations hold by far less than 1e-7 of
    # their l1 norm; they must still verify.
    inst = make_instance(np.array(rows))
    rep = analyze(inst)
    assert rep.regime == regime
    assert rep.hard_core == core
    assert (gamma_classical(inst) > 0.0) == (regime == WEAK_LEARNABLE)


@pytest.mark.parametrize("entry", [analyze, hard_core, decompose],
                         ids=lambda f: f.__name__)
def test_analyze_raises_on_a_dual_witness_outside_the_kernel(entry, monkeypatch):
    inst = fixtures.attainable_slow()
    dual_core = structure._dual_core

    def drifted(instance):
        core0, psi, lam = dual_core(instance)
        return core0, psi + np.array([1e-4, 0.0, 0.0]), lam

    monkeypatch.setattr(structure, "_dual_core", drifted)
    with pytest.raises(InvariantViolationError, match=r"A\^T psi = 0"):
        entry(inst)


@pytest.mark.parametrize("name", ["mixed-3x2", "weaklearn-3x3", "rates"])
def test_analyze_raises_on_a_primal_witness_that_fails_an_off_core_row(name, monkeypatch, capsys):
    dual_core = structure._dual_core

    def flipped(instance):
        core0, psi, lam = dual_core(instance)
        return core0, psi, -lam

    monkeypatch.setattr(structure, "_dual_core", flipped)
    if name == "rates":
        # the CLI's rate battery reads gamma behind the verified core too
        assert cli.main(["rates", "--loss", "exp"]) == 1
        assert "A_off @ lam < 0" in capsys.readouterr().err
        return
    with pytest.raises(InvariantViolationError, match="A_off @ lam < 0"):
        analyze(fixtures.FIXTURES[name]())


@pytest.mark.parametrize("entry", [analyze, gamma_classical], ids=lambda f: f.__name__)
def test_gamma_raises_when_its_multipliers_do_not_bracket_it(entry, monkeypatch):
    # the core LP (right-hand side 0) is solved as is; the gamma LP's
    # (right-hand side -1) multipliers come back negated, so their lower
    # bound on gamma is -1 against an edge of 1
    solve = structure.solve

    def corrupted(g, h, c, upper):
        x, y = solve(g, h, c, upper)
        return x, (-y if np.all(h < 0.0) else y)

    monkeypatch.setattr(structure, "solve", corrupted)
    with pytest.raises(InvariantViolationError, match="gamma's bracket"):
        entry(fixtures.weaklearn_3x3())


def test_analysis_does_not_import_scipy_optimize():
    # importing scipy.optimize adds about 16 MB of peak resident memory
    # and 0.1-0.2 s, which no library path needs: not the analyses, a run
    # and its certificate, nor the CLI's rate checks
    code = ("import contextlib, io, sys, boostcd\n"
            "from boostcd import boost, cli, fixtures, structure\n"
            "from boostcd.losses import LOGISTIC, make_loss\n"
            "structure.analyze(fixtures.mixed_3x2())\n"
            "structure.analyze(fixtures.weaklearn_3x3())\n"
            "structure.hard_core(fixtures.attainable_slow())\n"
            "structure.decompose(fixtures.confidence_4x3())\n"
            "inst = fixtures.mixed_3x2()\n"
            "loss = make_loss(LOGISTIC, inst.m)\n"
            "trace = boost.run(inst, loss, boost.RunConfig(max_iters=50))\n"
            "structure.dual_certificate(inst, loss, trace.final_state)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['rates']) == 0\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(boostcd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
