"""Tests of the benchmark's own parts: the planted generator, the output
checker, the span recorder and the harness's failure accounting.  Run with
``PYTHONPATH=src python -m pytest bench/test_bench.py``."""

import dataclasses
import types

import numpy as np
import pytest

import oracle
import planted
import run
from spans import SpanRecorder
from boostcd import boost, structure
from boostcd.instance import BoostInstance
from boostcd.losses import make_loss

SMALL = [(regime, m, n, seed) for regime in planted.REGIMES
         for m, n in ((6, 3), (9, 4), (12, 5)) for seed in range(3)]


def _truth(p):
    return {"regime": p.regime, "core": list(p.core), "margin": p.margin}


@pytest.mark.parametrize("regime,m,n,seed", SMALL)
def test_planted_ground_truth_matches_analyze(regime, m, n, seed):
    p = planted.plant(regime, m, n, seed)
    report = structure.analyze(BoostInstance(p.a))
    assert oracle.check_report(_truth(p), report) == []
    assert oracle.check_witnesses(p.a, _truth(p), report) == []


def test_planted_is_deterministic_and_replicas_differ():
    a = planted.plant(planted.MIXED, 10, 4, 7)
    b = planted.plant(planted.MIXED, 10, 4, 7)
    c = planted.plant(planted.MIXED, 10, 4, 7, replica=1)
    assert np.array_equal(a.a, b.a) and a.core == b.core
    assert not np.array_equal(a.a, c.a)


def test_mixed_core_with_more_rows_than_columns_stays_finite():
    p = planted.plant(planted.MIXED, 30, 4, 0)
    assert np.all(np.isfinite(p.a)) and len(p.core) == 15


def test_verify_planted_rejects_a_broken_core():
    p = planted.plant(planted.MIXED, 10, 4, 1)
    a = p.a.copy()
    a[p.core[0]] *= 0.5
    with pytest.raises(planted.PlantingError):
        planted.verify_planted(dataclasses.replace(p, a=a))


def test_checker_rejects_wrong_core_and_regime():
    p = planted.plant(planted.MIXED, 9, 4, 2)
    report = structure.analyze(BoostInstance(p.a))
    shrunk = dataclasses.replace(report, hard_core=report.hard_core[1:])
    assert oracle.check_report(_truth(p), shrunk)
    relabeled = dataclasses.replace(report, regime=planted.ATTAINABLE)
    assert oracle.check_report(_truth(p), relabeled)


def test_checker_rejects_corrupted_witnesses():
    p = planted.plant(planted.MIXED, 9, 4, 3)
    report = structure.analyze(BoostInstance(p.a))
    lam = np.array(report.witness_primal)
    psi = np.array(report.witness_dual)
    flipped = dataclasses.replace(report, witness_primal=tuple(-lam))
    assert oracle.check_witnesses(p.a, _truth(p), flipped)
    nudged = psi.copy()
    nudged[p.core[0]] *= 1.01
    off_kernel = dataclasses.replace(report, witness_dual=tuple(nudged))
    assert oracle.check_witnesses(p.a, _truth(p), off_kernel)
    missing = dataclasses.replace(report, witness_dual=None)
    assert oracle.check_witnesses(p.a, _truth(p), missing)


def test_checker_rejects_perturbed_final_objective():
    p = planted.plant(planted.MIXED, 12, 5, 4)
    inst = BoostInstance(p.a)
    loss = make_loss("logistic", inst.m)
    trace = boost.run(inst, loss, boost.RunConfig(max_iters=50))
    assert oracle.check_run(p.a, "logistic", 50, trace) == []
    state = trace.final_state
    trace.final_state = dataclasses.replace(state, objective=state.objective * (1 + 1e-6))
    assert any("f(A lam)" in msg for msg in oracle.check_run(p.a, "logistic", 50, trace))


def test_checker_rejects_a_certificate_above_the_objective():
    p = planted.plant(planted.ATTAINABLE, 8, 3, 0)
    inst = BoostInstance(p.a)
    loss = make_loss("exp", inst.m)
    trace = boost.run(inst, loss, boost.RunConfig(max_iters=100))
    cert = structure.dual_certificate(inst, loss, trace.final_state)
    objective = trace.final_state.objective
    assert cert is not None and oracle.check_certificate(p.a, objective, cert) == []
    bad = dataclasses.replace(cert, dual_value=objective + 1.0, gap_bound=-1.0)
    assert len(oracle.check_certificate(p.a, objective, bad)) == 2


def test_checker_rejects_failed_rates():
    assert oracle.check_rates(0, '{"all_checks_passed": true}') == []
    assert oracle.check_rates(1, '{"all_checks_passed": true}')
    assert oracle.check_rates(0, '{"all_checks_passed": false}')
    assert oracle.check_rates(0, "not json")


def test_span_recorder_nests_tags_and_restores():
    mod = types.SimpleNamespace()
    mod.search = lambda f: types.SimpleNamespace(evals=3, value=f() + f())
    mod.value = lambda: 1.0
    mod.outer = lambda: mod.search(mod.value) + mod.value()
    original = mod.outer
    rec = SpanRecorder()
    rec.wrap(mod, "outer", "outer")
    rec.wrap(mod, "search", "ls", search=True)
    rec.wrap(mod, "value", "value", by_search=True)
    rec.wrap(mod, "missing", "gone")
    with pytest.raises(TypeError):
        mod.outer()  # SimpleNamespace + float: the error still closes every span
    rec.restore()
    assert mod.outer is original and rec.absent == ["gone"]
    s = rec.summary()
    assert s["value.search"]["calls"] == 2 and s["value.rebuild"]["calls"] == 1
    assert s["ls"]["evals"] == 3 and s["outer"]["errors"] == 1
    assert s["outer"]["within"]["value.search"] == 2
    assert s["outer"]["self_s"] <= s["outer"]["s"]


def _bare_measurement(ops):
    meas = object.__new__(run.Measurement)
    meas.ops, meas.errors, meas.wrong, meas.uncertified = list(ops), [], [], []
    meas.setup_times = [1.0]
    meas.mats = {"i": np.zeros((4, 2))}
    meas.inputs = {"instances": {"i": {"regime": planted.MIXED}}}
    return meas


def test_only_analyze_exceptions_are_known_failures():
    meas = _bare_measurement([])
    meas._raised("analyze", "i", RuntimeError("simplex pivot budget exceeded"), 5.0)
    meas._raised("certify", "i", ValueError("boom"))
    assert meas.ops[0][:3] == ("analyze", 5.0, False)
    assert len(meas.errors) == 1 and len(meas.wrong) == 1 and "certify" in meas.wrong[0]


def test_metrics_need_samples_and_time_every_analysis():
    analyze_ok, analyze_raised = ("analyze", 1.0, True, 0, "i"), ("analyze", 9.0, False, 0, "i")
    run_ok, rates_ok = ("run", 2.0, True, 10, "i"), ("rates", 0.5, True, 0, "battery")
    certify_raised = ("certify", 0.0, False, 0, "i")
    with pytest.raises(run.NoSamples):
        run.end_to_end(_bare_measurement([analyze_ok, run_ok, certify_raised, rates_ok]))
    ops = [analyze_ok, analyze_ok, analyze_raised, run_ok, ("certify", 3.0, True, 0, "i"), rates_ok]
    metrics = run.end_to_end(_bare_measurement(ops))
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["analyze_p50_ms"] == 1e3 and metrics["analyze_per_s"] == pytest.approx(2 / 3)
    assert metrics["verified_frac"] == pytest.approx(5 / 6)
