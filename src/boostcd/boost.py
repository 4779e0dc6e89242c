"""Greedy coordinate descent on the boosting objective f(A @ lam).

Each iteration picks the coordinate of largest absolute directional
derivative (the weak learner the current example weighting correlates
with most), steps along the corresponding signed axis with a
configurable line search, and records the history.  The run stops when
the gradient sup-norm falls below tolerance, an optional target
objective is reached, or the iteration cap is hit.

A step updates the margins A @ lam in O(m), from the ones its line
search already evaluated, instead of recomputing them in O(mn).  Every
REFRESH_EVERY steps, and on the state a run stops at, they are
recomputed from lam and checked against the running ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import linesearch
from .instance import BoostInstance
from .linesearch import StepResult, WolfeParams
from .losses import LossSpec, RiskFunction

GRADIENT_BELOW_TOL = "gradient_below_tol"
MAX_ITERS = "max_iters"
TARGET_REACHED = "target_reached"

LINE_SEARCHES = (linesearch.WOLFE, linesearch.CLOSED_FORM, linesearch.EXACT)

# Steps between full recomputations of the margins A @ lam, and the drift
# of the running margins from them, relative to 1 + max |A @ lam|, past
# which the recomputation raises MarginDriftError.  Each update adds a
# rounding error of about eps * |margin|, so after REFRESH_EVERY steps the
# drift is of order 1e-14 relative; 1e-9 leaves room for five orders more.
REFRESH_EVERY = 64
MARGIN_DRIFT_TOL = 1e-9


class StationaryGradientError(ValueError):
    """The gradient is (numerically) zero: there is no coordinate to improve."""


class MarginDriftError(RuntimeError):
    """The running margins drifted from A @ lam beyond MARGIN_DRIFT_TOL."""


def _norm_inf(v) -> float:
    return float(np.max(np.abs(v)))


@dataclass(frozen=True)
class ApproxSelector:
    """Relaxed coordinate selection: any (j, sign) whose directional
    derivative is within a factor c0 of the best is admissible.  With
    ``pick`` unset this falls back to the best coordinate; tests inject
    adversarial picks to exercise the degraded guarantee."""

    c0: float
    pick: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if not (0.0 < self.c0 <= 1.0):
            raise ValueError(f"c0 must lie in (0, 1], got {self.c0}")


def _best_coordinate(g: np.ndarray) -> tuple:
    j = int(np.argmax(np.abs(g)))  # ties: lowest index
    sign = -1 if g[j] > 0.0 else 1
    return j, sign


def select_coordinate(grad, selector: Optional[ApproxSelector] = None) -> tuple:
    """Pick (j, sign) with sign * grad[j] = -|grad[j]|, maximizing |grad[j]|,
    or, with an ApproxSelector that has a ``pick``, the admissible pair it
    picks.

    An all-zero gradient admits no descent coordinate and raises
    ``StationaryGradientError``.
    """
    g = np.asarray(grad, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grad must be a nonempty vector")
    if not np.all(np.isfinite(g)):
        raise ValueError("grad must be finite")
    if not np.any(g != 0.0):
        raise StationaryGradientError("gradient is identically zero")
    if selector is not None and not isinstance(selector, ApproxSelector):
        raise ValueError(f"bad selector: {selector!r}")
    if selector is None or selector.pick is None:
        return _best_coordinate(g)
    j, sign = selector.pick(g)
    j = int(j)
    sign = int(sign)
    if sign not in (-1, 1) or not 0 <= j < g.size:
        raise ValueError(f"selector returned invalid pair ({j}, {sign})")
    best = _norm_inf(g)
    if -(sign * g[j]) < selector.c0 * best * (1.0 - 1e-12):
        raise ValueError(
            f"selector pick ({j}, {sign}) violates the c0 admissibility bound: "
            f"{-(sign * g[j])!r} < {selector.c0} * {best!r}"
        )
    return j, sign


@dataclass(frozen=True)
class IterateState:
    """Primal iterate with its derived quantities.  ``margins`` is A @ lam,
    either recomputed from lam or updated along the last step's column
    (see boost_step); the objective, dual weights and gradient are
    computed from ``margins``.  ``grad_inf`` is the gradient sup-norm,
    the edge of the best weak learner, computed once with the state and
    read by boost_step's stationarity check and closed-form step, the
    stopping rules and the trace."""

    lam: np.ndarray
    margins: np.ndarray
    objective: float
    dual_weights: np.ndarray
    grad: np.ndarray
    grad_inf: float
    t: int


def _state_from(inst: BoostInstance, rf: RiskFunction, lam: np.ndarray,
                margins: np.ndarray, t: int) -> IterateState:
    """The state at ``lam`` whose margins are ``margins``; takes ownership
    of both arrays."""
    weights = rf.grad(margins)
    grad = inst.a.T @ weights
    for arr in (lam, margins, weights, grad):
        arr.flags.writeable = False
    return IterateState(lam, margins, float(rf.value(margins)), weights, grad,
                        _norm_inf(grad), int(t))


def _state_at(inst: BoostInstance, rf: RiskFunction, lam: np.ndarray, t: int) -> IterateState:
    lam = np.array(lam, dtype=float)
    return _state_from(inst, rf, lam, inst.a @ lam, t)


def _rebuild(inst: BoostInstance, rf: RiskFunction, lam: np.ndarray,
             margins: np.ndarray, t: int) -> IterateState:
    """``_state_at(lam)``, once the running ``margins`` are checked against
    A @ lam: a drift above MARGIN_DRIFT_TOL * (1 + max |A @ lam|) raises
    MarginDriftError."""
    state = _state_at(inst, rf, lam, t)
    drift = _norm_inf(margins - state.margins)
    if not drift <= MARGIN_DRIFT_TOL * (1.0 + _norm_inf(state.margins)):
        raise MarginDriftError(
            f"running margins drifted {drift!r} from A @ lam at iteration {t}")
    return state


def initial_state(inst: BoostInstance, rf: RiskFunction) -> IterateState:
    return _state_at(inst, rf, np.zeros(inst.n), 0)


@dataclass(frozen=True)
class RunConfig:
    grad_tol: float = 1e-10
    max_iters: int = 1000
    target_objective: Optional[float] = None
    line_search: str = linesearch.WOLFE
    wolfe: WolfeParams = field(default_factory=WolfeParams)
    selector: Optional[ApproxSelector] = None

    def __post_init__(self):
        if self.line_search not in LINE_SEARCHES:
            raise ValueError(
                f"line_search must be one of {LINE_SEARCHES}, got {self.line_search!r}"
            )
        if not (self.grad_tol >= 0 and self.max_iters >= 0):
            raise ValueError("grad_tol and max_iters must be nonnegative")
        if self.target_objective is not None and np.isnan(self.target_objective):
            raise ValueError("target_objective must not be NaN")


class StepOutcome(NamedTuple):
    state: IterateState
    j: int
    sign: int
    alpha: float
    evals: int


def boost_step(inst: BoostInstance, rf: RiskFunction, state: IterateState,
               cfg: RunConfig) -> StepOutcome:
    """One descent step.  Requires a non-stationary state (gradient
    sup-norm above cfg.grad_tol).

    The new margins are ``state.margins + (sign * alpha) * a[:, j]``,
    the ones the line search evaluated at its step, and the objective and
    weights come from them; the gradient A.T @ weights is recomputed in
    full, since selection needs all of it.  On every REFRESH_EVERY-th
    iterate the margins are recomputed as A @ lam instead, and a running
    value that drifted from them raises MarginDriftError."""
    if state.grad_inf <= cfg.grad_tol:
        raise StationaryGradientError(
            f"gradient sup-norm {state.grad_inf!r} is already <= tolerance {cfg.grad_tol!r}"
        )
    j, sign = select_coordinate(state.grad, cfg.selector)
    col = inst.a[:, j]
    base = state.margins
    s = float(sign)
    slope0 = float(sign * state.grad[j])

    def phi(alpha):
        return rf.value(base + (s * alpha) * col)

    def dphi(alpha):
        return s * float(col @ rf.grad(base + (s * alpha) * col))

    if cfg.line_search == linesearch.WOLFE:
        res = linesearch.wolfe_search(
            phi, dphi, cfg.wolfe, phi0=state.objective, dphi0=slope0
        )
    elif cfg.line_search == linesearch.CLOSED_FORM:
        if not np.isfinite(rf.loss.eta):
            raise ValueError(
                "closed-form steps unavailable: the curvature constant "
                "overflowed for this sample size; use the wolfe search"
            )
        alpha = linesearch.closed_form_step(state.grad_inf, state.objective, rf.loss.eta)
        res = StepResult(alpha, 0)
    else:
        res = linesearch.exact_search(dphi, dphi0=slope0)

    lam = np.array(state.lam)
    lam[j] += s * res.alpha
    margins = base + (s * res.alpha) * col
    t = state.t + 1
    if t % REFRESH_EVERY:
        new_state = _state_from(inst, rf, lam, margins, t)
    else:
        new_state = _rebuild(inst, rf, lam, margins, t)
    return StepOutcome(new_state, j, sign, float(res.alpha), res.evals)


@dataclass(frozen=True)
class TraceRecord:
    """Iteration t: the step taken from iterate t-1 and the objective after
    it.  ``grad_inf`` is the gradient sup-norm *before* the step, i.e. the
    one that selected (j, sign); ``evals`` counts the line search's
    function and derivative evaluations (not written to the CSV)."""

    t: int
    objective: float
    grad_inf: float
    j: int
    sign: int
    alpha: float
    wall_time: float
    evals: int


CSV_HEADER = "t,objective,grad_inf,j,sign,alpha"


@dataclass
class Trace:
    records: List[TraceRecord]
    status: str
    initial_objective: float
    initial_grad_inf: float
    final_state: IterateState

    def objectives(self) -> np.ndarray:
        """Objective history f_0, f_1, ..., f_T (including the start)."""
        return np.array([self.initial_objective] + [r.objective for r in self.records])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.t},{r.objective!r},{r.grad_inf!r},{r.j},{r.sign},{r.alpha!r}"
            )
        return "\n".join(lines) + "\n"


def lam_from_steps(n: int, steps) -> np.ndarray:
    """Rebuild lam from (j, sign, alpha) triples, e.g. parsed trace rows."""
    lam = np.zeros(int(n))
    for j, sign, alpha in steps:
        lam[int(j)] += float(sign) * float(alpha)
    return lam


def _stop_status(state: IterateState, cfg: RunConfig) -> Optional[str]:
    """The stopping rule that holds at ``state``, in order of precedence."""
    if cfg.target_objective is not None and state.objective <= cfg.target_objective:
        return TARGET_REACHED
    if state.grad_inf <= cfg.grad_tol:
        return GRADIENT_BELOW_TOL
    if state.t >= cfg.max_iters:
        return MAX_ITERS
    return None


def run(inst: BoostInstance, loss: LossSpec, cfg: RunConfig = RunConfig()) -> Trace:
    """Coordinate descent from lam = 0 until a stopping condition holds.

    Stopping precedence: target objective (if configured), then gradient
    tolerance, then the iteration cap; the returned ``Trace.status`` names
    the rule that fired.  A stopping rule is only ever decided on a state
    recomputed from lam: when one holds on a state whose margins were
    updated in place, that state is rebuilt before it is recorded, and the
    rules are checked again on the rebuilt one.  So the final state and
    the last record come from A @ lam exactly.
    """
    rf = RiskFunction(loss, inst.m)
    state = initial_state(inst, rf)
    f0, g0 = state.objective, state.grad_inf
    records: List[TraceRecord] = []
    status = _stop_status(state, cfg)
    while status is None:
        grad_inf = state.grad_inf
        tic = time.perf_counter()
        out = boost_step(inst, rf, state, cfg)
        state = out.state
        status = _stop_status(state, cfg)
        # iterates at multiples of REFRESH_EVERY are already rebuilt
        if status is not None and state.t % REFRESH_EVERY:
            state = _rebuild(inst, rf, state.lam, state.margins, state.t)
            status = _stop_status(state, cfg)
        wall = time.perf_counter() - tic
        records.append(
            TraceRecord(state.t, state.objective, grad_inf, out.j, out.sign,
                        out.alpha, wall, out.evals)
        )
    return Trace(records, status, f0, g0, state)
