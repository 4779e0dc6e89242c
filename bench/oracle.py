"""Independent output checks for the benchmark: the trust boundary.

Nothing here calls into boostcd.  Every check recomputes residuals from
the benchmark's own copy of the matrix, so a wrong regime, a wrong hard
core, a witness that does not certify, or a descent run whose reported
objective does not match its iterate is caught whatever the program
claims.  Each function returns the list of problems it found; an empty
list means the output verified.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Residual tolerance for witnesses, relative to the witness's l1 norm
# (entries of A have magnitude <= 1, so ||lam||_1 bounds |a_i . lam| and
# ||psi||_1 bounds |(A^T psi)_j|).
WITNESS_TOL = 1e-7
# Tolerance on the classical edge: gamma >= planted margin for weakly
# learnable instances, gamma == 0 otherwise.
GAMMA_TOL = 1e-7
# A descent run's final objective must equal f(A @ lam), recomputed here,
# to this relative tolerance; consecutive objectives may rise by at most
# this relative amount (rounding) and still count as nonincreasing.
RUN_REL_TOL = 1e-9
MONOTONE_REL_TOL = 1e-12

RUN_STATUSES = ("max_iters", "gradient_below_tol", "target_reached")


def risk(kind: str, margins: np.ndarray) -> float:
    """f(x) = sum_i g(x_i) for the exponential or logistic loss."""
    if kind == "exp":
        return math.fsum(np.exp(margins))
    if kind == "logistic":
        return math.fsum(np.logaddexp(0.0, margins))
    raise ValueError(f"unknown loss kind {kind!r}")


def check_primal(a: np.ndarray, core, lam) -> list:
    """lam beats every off-core row strictly and is null on the core."""
    if lam is None:
        return ["primal witness missing"]
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (a.shape[1],) or not np.all(np.isfinite(lam)):
        return [f"primal witness has shape {lam.shape} or non-finite entries"]
    scale = float(np.abs(lam).sum())
    if scale == 0.0:
        return ["primal witness is zero"]
    core = np.asarray(core, dtype=int)
    off = np.setdiff1d(np.arange(a.shape[0]), core)
    problems = []
    if off.size and float(np.max(a[off] @ lam)) >= -WITNESS_TOL * scale:
        problems.append("primal witness does not beat every off-core row")
    if core.size and float(np.max(np.abs(a[core] @ lam))) > WITNESS_TOL * scale:
        problems.append("primal witness is not null on the core")
    return problems


def check_dual(a: np.ndarray, psi, core=()) -> list:
    """psi >= 0, A.T @ psi = 0, and psi > 0 on every row of ``core``."""
    if psi is None:
        return ["dual witness missing"]
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (a.shape[0],) or not np.all(np.isfinite(psi)):
        return [f"dual witness has shape {psi.shape} or non-finite entries"]
    scale = float(np.abs(psi).sum())
    if scale == 0.0:
        return ["dual witness is zero"]
    problems = []
    if float(np.min(psi)) < -WITNESS_TOL * scale:
        problems.append("dual witness has a negative entry")
    if float(np.max(np.abs(a.T @ psi))) > WITNESS_TOL * scale:
        problems.append("dual witness is not in ker(A^T)")
    core = np.asarray(core, dtype=int)
    if core.size and float(np.min(psi[core])) <= WITNESS_TOL * scale:
        problems.append("dual witness is not positive on the core")
    return problems


def check_report(truth: dict, report) -> list:
    """A ``StructureReport``'s answers against the planted regime, core
    and margin (the witnesses are checked by :func:`check_witnesses`)."""
    regime, core = truth["regime"], tuple(truth["core"])
    problems = []
    if report.regime != regime:
        problems.append(f"regime {report.regime!r}, planted {regime!r}")
    if tuple(report.hard_core) != tuple(i + 1 for i in core):
        problems.append("hard core differs from the planted core")
    gamma = float(report.gamma_classical)
    if regime == "weak_learnable":
        if not gamma >= truth["margin"] - GAMMA_TOL:
            problems.append(f"gamma {gamma!r} below the planted margin {truth['margin']!r}")
    elif not abs(gamma) <= GAMMA_TOL:
        problems.append(f"gamma {gamma!r} should be 0 off the weakly learnable regime")
    return problems


def check_witnesses(a: np.ndarray, truth: dict, report) -> list:
    """The report's witnesses certify the planted structure on their own:
    a primal witness unless attainable, a dual one unless weakly learnable."""
    regime, core = truth["regime"], truth["core"]
    problems = []
    if regime != "attainable":
        problems += check_primal(a, core, report.witness_primal)
    if regime != "weak_learnable":
        problems += check_dual(a, report.witness_dual, core)
    return problems


def check_run(a: np.ndarray, kind: str, max_iters: int, trace) -> list:
    """A descent ``Trace``: monotone objective, consistent length and
    status, and a final objective equal to f(A @ lam) recomputed here."""
    problems = []
    state = trace.final_state
    objectives = np.asarray(trace.objectives(), dtype=float)
    if trace.status not in RUN_STATUSES:
        problems.append(f"unknown run status {trace.status!r}")
    if len(trace.records) != state.t or state.t > max_iters:
        problems.append(f"{len(trace.records)} records for iterate t={state.t}")
    if trace.status == "max_iters" and state.t != max_iters:
        problems.append(f"status max_iters after {state.t} of {max_iters} iterations")
    rises = objectives[1:] > objectives[:-1] * (1.0 + MONOTONE_REL_TOL)
    if np.any(rises):
        problems.append(f"objective rose at step {int(np.argmax(rises)) + 1}")
    recomputed = risk(kind, a @ np.asarray(state.lam, dtype=float))
    if not abs(state.objective - recomputed) <= RUN_REL_TOL * recomputed:
        problems.append(f"final objective {state.objective!r} != f(A lam) = {recomputed!r}")
    if objectives[-1] != state.objective:
        problems.append("last traced objective differs from the final state")
    return problems


def check_certificate(a: np.ndarray, objective: float, cert) -> list:
    """A ``DualCertificate`` (None means none was offered, which is allowed)."""
    if cert is None:
        return []
    psi = np.asarray(cert.psi, dtype=float)
    # psi = 0 is feasible and certifies the trivial bound inf f >= 0
    problems = check_dual(a, psi) if np.any(psi != 0.0) else []
    if not cert.dual_value <= objective:
        problems.append(f"dual value {cert.dual_value!r} exceeds the objective {objective!r}")
    if not cert.gap_bound >= 0.0:
        problems.append(f"negative gap bound {cert.gap_bound!r}")
    return problems


def check_rates(exit_code: int, output: str) -> list:
    """``boostcd rates`` must exit 0 and report all_checks_passed."""
    if exit_code != 0:
        return [f"rates exited {exit_code}"]
    try:
        report = json.loads(output)
    except ValueError:
        return ["rates printed no JSON report"]
    if report.get("all_checks_passed") is not True:
        return ["rates reported a failed check"]
    return []
