"""End-to-end CLI checks: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest

from boostcd import fixtures, structure
from boostcd.cli import main
from boostcd.instance import from_json, make_instance, read_instance, to_json, write_instance


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_fixture_to_stdout(capsys):
    code, out, _ = _run(capsys, "gen", "mixed-3x2")
    assert code == 0
    assert out == to_json(fixtures.mixed_3x2())


@pytest.mark.parametrize("ext", ["json", "txt"])
def test_gen_fixture_file_round_trip(tmp_path, capsys, ext):
    path = tmp_path / f"inst.{ext}"
    code, _, _ = _run(capsys, "gen", "confidence-4x3", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == to_json(fixtures.confidence_4x3())


def test_gen_random_is_deterministic(tmp_path, capsys):
    # mixed needs exact sign cancellations, hence ternary entries
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(capsys, "gen", "random", "--regime", "mixed",
                          "--seed", "3", "--m", "4", "--n", "2",
                          "--entries", "ternary", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_random_reports_hopeless_draws(capsys):
    # continuous entries almost never produce a partial core; the search
    # gives up with a clear error instead of spinning
    code, _, err = _run(capsys, "gen", "random", "--regime", "mixed", "--seed", "3")
    assert code == 1
    assert "no mixed instance" in err


def test_gen_unknown_fixture(capsys):
    code, _, err = _run(capsys, "gen", "no-such-fixture")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("flags, named", [
    (["--regime", "attainable"], "--regime"),
    (["--seed", "0"], "--seed"),  # today's default value, given explicitly
    (["--m", "4"], "--m"),
    (["--n", "3", "--entries", "uniform"], "--n, --entries"),
])
def test_gen_named_fixture_refuses_random_flags(flags, named, tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, err = _run(capsys, "gen", "mixed-3x2", *flags, "--out", str(out))
    assert code == 1
    assert f"error: {named} only apply to 'gen random'" in err
    assert stdout == "" and not out.exists()


def test_run_converged_instance(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_instance(fixtures.attainable_pair(), path)
    code, out, _ = _run(capsys, "run", str(path))
    assert code == 0
    assert "status=gradient_below_tol" in out
    assert "iterations=0" in out
    assert f"objective={2 * math.log(2)!r}" in out


def test_run_iteration_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    trace_path = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, "run", str(path), "--iters", "5",
                        "--out", str(trace_path))
    assert code == 2
    assert "status=max_iters" in out
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "t,objective,grad_inf,j,sign,alpha"
    assert len(lines) == 6


def test_run_trace_is_deterministic(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    outs = []
    for name in ("t1.csv", "t2.csv"):
        trace_path = tmp_path / name
        code, _, _ = _run(capsys, "run", str(path), "--iters", "50",
                          "--out", str(trace_path))
        assert code == 2
        outs.append(trace_path.read_bytes())
    assert outs[0] == outs[1]


def test_run_exact_line_search(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    trace_path = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, "run", str(path), "--line-search", "exact",
                      "--iters", "200", "--out", str(trace_path))
    assert code == 2
    rows = trace_path.read_text().strip().split("\n")[1:]
    assert len(rows) == 200
    first_alpha = float(rows[0].split(",")[5])
    assert abs(first_alpha - math.log(2)) <= 1e-10


def test_analyze_report(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "m", "n", "regime", "hard_core", "rows_off_core",
        "gamma_classical", "witness_primal", "witness_dual",
    ]
    assert obj["regime"] == "mixed"
    assert obj["hard_core"] == [1, 2]
    # --out writes the same bytes the bare command prints
    report_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, "analyze", str(path), "--out", str(report_path))
    assert code == 0
    assert report_path.read_text() == out


def test_certify_from_lam(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    code, out, _ = _run(capsys, "certify", str(path), "--lam", "10,10")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["psi"], [0.5, 0.5, 0.0], atol=1e-12)
    assert 0.0 < payload["gap_bound"] <= 1e-3


def test_certify_from_trace(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    trace_path = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, "run", str(path), "--line-search", "exact",
                      "--iters", "200", "--out", str(trace_path))
    assert code == 2
    code, out, _ = _run(capsys, "certify", str(path), "--trace", str(trace_path))
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["gap_bound"] <= 2e-3


def test_certify_flag_validation(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    code, _, err = _run(capsys, "certify", str(path))
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "certify", str(path), "--lam", "1,1",
                        "--trace", "t.csv")
    assert code == 1 and "error:" in err
    # the flags are checked before the instance is read
    for flags in ((), ("--lam", "1,1", "--trace", "t.csv")):
        code, _, err = _run(capsys, "certify", str(tmp_path / "missing.json"), *flags)
        assert code == 1 and err == "error: certify needs exactly one of --lam or --trace\n"
    code, _, err = _run(capsys, "certify", str(path), "--lam", "1")
    assert code == 1 and "error:" in err  # wrong arity
    for lam in ("nan,1", "1,inf", "x,1"):
        code, _, err = _run(capsys, "certify", str(path), "--lam", lam)
        assert code == 1 and "error: --lam" in err


@pytest.mark.parametrize("loss, lam, message", [
    ("logistic", "1e308,-1e308", "margins must be finite"),  # a @ lam overflows
    ("exp", "800,-800", "risk is not finite at this lam"),  # exp(1600) overflows
])
def test_certify_rejects_a_lam_whose_state_overflows(tmp_path, capsys, loss, lam, message):
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    code, out, err = _run(capsys, "certify", str(path), "--loss", loss, "--lam", lam)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"  # no warning lines, no traceback


def test_certify_rejects_a_malformed_trace_row(tmp_path, capsys):
    # j = -1 once wrapped to the last column and certified the lam of j = 1
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t,objective,grad_inf,j,sign,alpha\n"
                          "1,1.0,0.5,0,1,0.5\n2,0.9,0.5,-1,1,0.5\n")
    code, out, err = _run(capsys, "certify", str(path), "--trace", str(trace_path))
    assert code == 1 and out == ""
    assert "error: step row 2: (j, sign, alpha) = (-1," in err


def test_certify_names_the_missing_trace_columns(tmp_path, capsys):
    # a missing column was a KeyError, reported as "error: 'j'"
    path = tmp_path / "mixed.json"
    write_instance(fixtures.mixed_3x2(), path)
    trace_path = tmp_path / "trace.csv"
    for header, missing in (("t,objective,grad_inf,sign", "j, alpha"),
                            ("t,objective,grad_inf,j,alpha", "sign")):
        trace_path.write_text(header + "\n")
        code, out, err = _run(capsys, "certify", str(path), "--trace", str(trace_path))
        assert code == 1 and out == ""
        assert err == f"error: --trace {trace_path} has no column {missing}\n"


def test_certify_unavailable(tmp_path, capsys):
    path = tmp_path / "halfpos.json"
    write_instance(make_instance([[0.5], [1.0]]), path)
    code, out, _ = _run(capsys, "certify", str(path), "--lam", "0")
    assert code == 0
    assert "certificate unavailable" in out


def test_certify_out_is_null_when_no_certificate_is_available(tmp_path, capsys):
    # the pair's certificate once stayed in the file after the half-positive
    # instance had none, so a script read gap bound 0 for the wrong instance
    pair, half, cert = tmp_path / "pair.json", tmp_path / "half.json", tmp_path / "cert.json"
    write_instance(make_instance([[-1.0], [1.0]]), pair)
    write_instance(make_instance([[0.5], [1.0]]), half)
    code, _, _ = _run(capsys, "certify", str(pair), "--lam", "0", "--out", str(cert))
    assert code == 0
    payload = json.loads(cert.read_text())
    assert payload["psi"] == [0.5, 0.5] and payload["gap_bound"] == 0.0
    code, out, _ = _run(capsys, "certify", str(half), "--lam", "0", "--out", str(cert))
    assert code == 0 and out == "certificate unavailable\n"
    assert cert.read_text() == "null\n"


@pytest.mark.parametrize("loss", ["logistic", "exp"])
def test_rates_battery_passes(tmp_path, capsys, loss):
    report_path = tmp_path / "rates.json"
    code, _, err = _run(capsys, "rates", "--loss", loss, "--out", str(report_path))
    assert code == 0, err
    report = json.loads(report_path.read_text())
    assert report["all_checks_passed"] is True
    assert report["weak_learnable"]["within_cap"] is True
    assert report["weak_learnable"]["per_iteration_bound_ok"] is True
    assert report["attainable"]["fit"]["fitted_constant"] < 1.0
    assert report["mixed"]["exact"]["lower_bound_ok"] is True
    assert report["mixed"]["wolfe"]["envelope_ok"] is True


def test_rates_solves_two_lps(capsys, monkeypatch):
    # the fixtures' regimes are pinned by the structure tests; the battery
    # only needs gamma of its weakly learnable fixture, which is read behind
    # that fixture's verified empty core: the core LP, then the gamma LP
    calls = []
    solve = structure.solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(structure, "solve", counting)
    code, _, err = _run(capsys, "rates", "--loss", "logistic")
    assert code == 0, err
    inst = fixtures.weaklearn_3x3()
    assert [g.shape for g, *_ in calls] == [(inst.n, 2 * inst.m), (inst.n, inst.m + inst.n)]


def test_rates_exits_one_when_a_check_fails(capsys, monkeypatch):
    # a reference optimum far below the mixed fixture's risk leaves the
    # Wolfe suboptimality flat, outside its inverse-t envelope
    monkeypatch.setitem(fixtures.REFERENCE_OPTIMA, ("mixed-3x2", "logistic"), 0.0)
    code, out, err = _run(capsys, "rates", "--loss", "logistic")
    assert code == 1
    assert "rate checks failed" in err
    report = json.loads(out)
    assert report["all_checks_passed"] is False
    assert report["mixed"]["wolfe"]["envelope_ok"] is False


@pytest.mark.parametrize("loss", ["logistic", "exp"])
def test_rates_rejects_an_empty_attainable_fit_window(capsys, monkeypatch, loss):
    monkeypatch.setitem(fixtures.REFERENCE_OPTIMA, ("attainable-slow", loss), 1e9)
    code, _, err = _run(capsys, "rates", "--loss", loss)
    assert code == 1
    assert "attainable fit window is empty" in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # missing instance path
    assert main(["run", "x.json", "--bogus"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_instance_file(capsys):
    code, _, err = _run(capsys, "run", "does-not-exist.json")
    assert code == 1
    assert "error:" in err
