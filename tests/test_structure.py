"""Structural classification: regimes, hard core, decomposition, the
classical rate, kernel projections, and dual certificates, checked
against the independent references in ``references``."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import boostcd
from boostcd import boost, fixtures, structure
from boostcd.instance import make_instance
from boostcd.losses import KINDS, LOGISTIC, RiskFunction, make_loss
from boostcd.structure import (
    ATTAINABLE,
    MIXED,
    WEAK_LEARNABLE,
    InvariantViolationError,
    analyze,
    decompose,
    dual_certificate,
    gamma_classical,
    hard_core,
    verify_witness,
)
from references import (
    _highs_hard_core,
    _nonpositive_nonzero_ray,
    _unit_columns,
    attainable,
    kernel_basis,
    weak_learnable,
)

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
    rf = RiskFunction(loss, inst.m)
    return boost._state_at(inst, rf, np.asarray(lam, dtype=float), 0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_classification(name):
    inst = fixtures.FIXTURES[name]()
    regime, core = EXPECTED[name]
    rep = analyze(inst)
    assert rep.regime == regime
    assert rep.hard_core == core
    assert hard_core(inst) == list(core)
    assert rep.rows_core == core
    assert rep.rows_off_core == tuple(
        i for i in range(1, inst.m + 1) if i not in core
    )
    # the classical rate separates the regimes sharply on these fixtures
    if regime == WEAK_LEARNABLE:
        assert rep.gamma_classical == 1.0
    else:
        assert rep.gamma_classical == 0.0


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
    core = [i - 1 for i in rep.rows_core]
    assert np.all(inst.a[off] @ w <= -1.0 + 1e-8)
    assert np.max(np.abs(inst.a[core] @ w)) <= 1e-8
    assert np.all(psi[off] == 0.0)
    assert np.min(psi[core]) > 1e-8
    assert np.max(np.abs(inst.a.T @ psi)) <= 1e-8


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


def test_report_json_shape():
    rep = analyze(fixtures.mixed_3x2())
    text = rep.to_json()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == [
        "m", "n", "regime", "hard_core", "rows_off_core", "rows_core",
        "gamma_classical", "witness_primal", "witness_dual",
    ]
    assert obj["m"] == 3 and obj["n"] == 2
    assert obj["regime"] == "mixed"
    assert obj["hard_core"] == [1, 2]
    assert obj["gamma_classical"] == 0.0


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_analyze_solves_at_most_two_lps(name, monkeypatch):
    calls = []
    solve = structure.solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(structure, "solve", counting)
    rep = analyze(fixtures.FIXTURES[name]())
    assert len(calls) == {WEAK_LEARNABLE: 2, ATTAINABLE: 1, MIXED: 1}[rep.regime]


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


@pytest.mark.parametrize("name", ["mixed-3x2", "weaklearn-3x3"])
def test_analyze_raises_on_a_primal_witness_that_fails_an_off_core_row(name, monkeypatch):
    dual_core = structure._dual_core

    def flipped(instance):
        core0, psi, lam = dual_core(instance)
        return core0, psi, -lam

    monkeypatch.setattr(structure, "_dual_core", flipped)
    with pytest.raises(InvariantViolationError, match="A_off @ lam < 0"):
        analyze(fixtures.FIXTURES[name]())


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
