"""Greedy coordinate descent on the boosting objective f(A @ lam).

Each iteration picks the coordinate of largest absolute directional
derivative (the weak learner the current example weighting correlates
with most), steps along the corresponding signed axis with a
configurable line search, and records the history.  The run stops when
the gradient sup-norm falls below tolerance, an optional target
objective is reached, or the iteration cap is hit.

A step updates the margins A @ lam in O(m), from the ones its line
search already evaluated.  A Wolfe search's phi caches its values, and
at a power of two it does not hold (the search's trial points are powers
of two until its lower end leaves 0) evaluates the next points of that
ladder with it in one 2-D pass; each row is bit for bit the single
evaluation (see _ray_phi).  The new state takes its objective from phi's
cache and its weights from the search's last derivative evaluation when
they are at the accepted step, instead of running the unchecked loss
kernels again; the two agree bit for bit.  A step checks only the scalar
grad_inf (above grad_tol, and finite: NaN or inf exactly when a gradient
entry is), then picks the coordinate by _select, with or without a
selector.  One rule in _step rebuilds the iterate from A @ lam, checking
margins and risk are finite and the running margins did not drift:
every REFRESH_EVERY steps, and where a stopping rule holds.  Only
_state_at takes a lam from outside, with the same finiteness checks.

_step, the one step routine, works on plain arrays: ``run`` carries them
between steps and freezes only its final state into an IterateState;
boost_step freezes the state it returns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import linesearch
from .instance import BoostInstance
from .linesearch import StepResult
from .losses import LossSpec, _g, _gp, _gp_on_ray

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

# A Wolfe step's phi evaluates up to _LADDER_ROWS points of a halving (or
# doubling) ladder in one pass, while they hold at most _LADDER_ENTRIES
# margins (see _ladder_rows and boost_step).  Picked by a sweep of
# per-step time at m = 3 to 5000: at m >= 129 every pass is one point.
_LADDER_ROWS = 16
_LADDER_ENTRIES = 512
_HALVINGS = np.ldexp(1.0, -np.arange(_LADDER_ROWS))[:, None]
_DOUBLINGS = np.ldexp(1.0, np.arange(_LADDER_ROWS))[:, None]


class StationaryGradientError(ValueError):
    """The gradient is (numerically) zero: there is no coordinate to improve."""


class MarginDriftError(RuntimeError):
    """The running margins drifted from A @ lam beyond MARGIN_DRIFT_TOL."""


def _norm_inf(v) -> float:
    return float(np.maximum.reduce(np.abs(v)))


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


def _select(g: np.ndarray, best: float, selector: Optional[ApproxSelector]) -> tuple:
    """The step's (j, sign) for a gradient ``g`` of sup-norm ``best`` > 0.

    With no selector, or one without a ``pick``: the largest |g[j]|, ties
    to the lowest index, with sign * g[j] = -|g[j]|.  With a ``pick``: the
    pair it picks, which must be a column index, a sign of +-1, and
    descend within the factor c0 of ``best``; otherwise ValueError.
    """
    if selector is None or selector.pick is None:
        j = int(np.abs(g).argmax())  # ties: lowest index
        return j, (-1 if g[j] > 0.0 else 1)
    j, sign = selector.pick(g)
    j = int(j)
    sign = int(sign)
    if sign not in (-1, 1) or not 0 <= j < g.size:
        raise ValueError(f"selector returned invalid pair ({j}, {sign})")
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
    read by boost_step's stationarity and finiteness checks, selection and
    closed-form step, the stopping rules and the trace."""

    lam: np.ndarray
    margins: np.ndarray
    objective: float
    dual_weights: np.ndarray
    grad: np.ndarray
    grad_inf: float
    t: int


class _Iterate(NamedTuple):
    """An IterateState's fields on plain, writable arrays: the form ``run``
    carries between steps, frozen by _freeze only where it leaves."""

    lam: np.ndarray
    margins: np.ndarray
    objective: float
    dual_weights: np.ndarray
    grad: np.ndarray
    grad_inf: float
    t: int


def _iterate_from(inst: BoostInstance, kind: str, lam: np.ndarray, margins: np.ndarray,
                  t: int, weights: Optional[np.ndarray] = None,
                  objective: Optional[float] = None) -> _Iterate:
    """The iterate at ``lam`` whose margins are ``margins``; takes ownership
    of the arrays.  ``weights`` and ``objective``, when given, must be
    g'(margins) and the risk at them as the unchecked loss kernels give
    them; those not given are computed by the kernels."""
    if weights is None:
        weights = _gp(kind, margins)
    if objective is None:
        objective = float(np.add.reduce(_g(kind, margins)))
    grad = inst.a.T @ weights
    return _Iterate(lam, margins, objective, weights, grad, _norm_inf(grad), t)


def _iterate_at(inst: BoostInstance, kind: str, lam: np.ndarray, t: int) -> _Iterate:
    """The iterate recomputed from A @ lam: margins or a risk that are not
    finite raise ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        it = _iterate_from(inst, kind, lam, inst.a @ lam, t)
    if not np.all(np.isfinite(it.margins)):
        raise ValueError("margins must be finite")
    if not math.isfinite(it.objective):
        raise ValueError("risk is not finite at this lam")
    return it


def _freeze(it: _Iterate) -> IterateState:
    """The frozen IterateState of ``it``, whose arrays become read-only."""
    for arr in (it.lam, it.margins, it.dual_weights, it.grad):
        arr.flags.writeable = False
    return IterateState(*it)


def _state_at(inst: BoostInstance, loss: LossSpec, lam: np.ndarray, t: int) -> IterateState:
    """The state recomputed from A @ lam, the one entry for an outside lam:
    margins or a risk that are not finite raise ValueError."""
    return _freeze(_iterate_at(inst, loss.kind, np.array(lam, dtype=float), int(t)))


def initial_state(inst: BoostInstance, loss: LossSpec) -> IterateState:
    return _state_at(inst, loss, np.zeros(inst.n), 0)


@dataclass(frozen=True)
class RunConfig:
    grad_tol: float = 1e-10
    max_iters: int = 1000
    target_objective: Optional[float] = None
    line_search: str = linesearch.WOLFE
    selector: Optional[ApproxSelector] = None

    def __post_init__(self):
        if self.line_search not in LINE_SEARCHES:
            raise ValueError(
                f"line_search must be one of {LINE_SEARCHES}, got {self.line_search!r}"
            )
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if not (self.grad_tol >= 0 and self.max_iters >= 0):
            raise ValueError("grad_tol and max_iters must be nonnegative")
        if self.target_objective is not None and np.isnan(self.target_objective):
            raise ValueError("target_objective must not be NaN")
        if self.selector is not None and not isinstance(self.selector, ApproxSelector):
            raise ValueError(f"selector must be None or an ApproxSelector, got {self.selector!r}")


def _stop_status(state: IterateState, cfg: RunConfig) -> Optional[str]:
    """The stopping rule that holds at ``state``, in order of precedence."""
    if cfg.target_objective is not None and state.objective <= cfg.target_objective:
        return TARGET_REACHED
    if state.grad_inf <= cfg.grad_tol:
        return GRADIENT_BELOW_TOL
    if state.t >= cfg.max_iters:
        return MAX_ITERS
    return None


class StepOutcome(NamedTuple):
    state: IterateState
    j: int
    sign: int
    alpha: float
    evals: int


def _ladder_rows(m: int) -> int:
    """Rows of one ladder pass over m margins: as many as _LADDER_ENTRIES
    entries hold, at most _LADDER_ROWS.  A pass of fewer than four rows
    costs more than the single passes it saves, so then it is one row."""
    rows = min(_LADDER_ROWS, _LADDER_ENTRIES // m)
    return rows if rows >= 4 else 1


def _ray_phi(kind: str, col: np.ndarray, base: np.ndarray, s: float, rows: int):
    """phi(alpha), the risk at base + (s * alpha) * col, and the dict of
    its values by signed step s * alpha, which phi fills and reads.  A
    request at a power of two that phi holds no value for is evaluated
    with the next rows - 1 points of its ladder in one 2-D pass: halving
    from 1 and below, doubling above 1.  Each row is bit for bit the
    single evaluation, which every other request gets: the kernels are
    elementwise, and numpy sums each contiguous row pairwise, as it sums
    one array.  So traces do not depend on the rows per pass."""
    values = {}

    def phi(alpha):
        step = s * alpha
        value = values.get(step)
        if value is None:
            if rows > 1 and math.frexp(alpha)[0] == 0.5:
                steps = (_DOUBLINGS if alpha > 1.0 else _HALVINGS)[:rows] * step
                x = steps * col
                x += base
                values.update(zip(steps.ravel().tolist(),
                                  np.add.reduce(_g(kind, x), axis=1).tolist()))
                return values[step]
            x = col * step
            x += base
            value = values[step] = float(np.add.reduce(_g(kind, x)))
        return value

    return phi, values


def _step(inst: BoostInstance, kind: str, it, cfg: RunConfig):
    """boost_step on raw arrays: ``it`` has IterateState's fields (an
    _Iterate or an IterateState).  Returns the next _Iterate, the step's
    j, sign, alpha and evaluation count, and the stopping rule that holds
    at the next iterate (None if none does)."""
    if it.grad_inf <= cfg.grad_tol:
        raise StationaryGradientError(
            f"gradient sup-norm {it.grad_inf!r} is already <= tolerance {cfg.grad_tol!r}"
        )
    if not math.isfinite(it.grad_inf):  # max |grad| is NaN or inf iff an entry is
        raise ValueError("grad must be finite")
    j, sign = _select(it.grad, it.grad_inf, cfg.selector)
    col = inst.a[:, j]
    base = it.margins
    s = float(sign)
    slope0 = float(sign * it.grad[j])
    phi, values = _ray_phi(kind, col, base, s, _ladder_rows(base.size))
    last_dphi = (None, None)  # (alpha, weights) of the last derivative evaluation

    def dphi(alpha):
        nonlocal last_dphi
        w = _gp_on_ray(kind, col, s * alpha, base)
        last_dphi = alpha, w
        return s * float(col @ w)

    # No iterate nears exp overflow (f <= f(0) = m bounds every margin by
    # ln m).  A Wolfe trial point past it gives +inf and fails the decrease
    # test, and a logistic weight whose e^-x overflows is 0, its limit.
    with np.errstate(over="ignore"):
        if cfg.line_search == linesearch.WOLFE:
            res = linesearch.wolfe_search(phi, dphi, phi0=it.objective, dphi0=slope0)
        elif cfg.line_search == linesearch.CLOSED_FORM:
            # ||grad||_inf / f: a safe step since g'' <= g
            res = StepResult(it.grad_inf / it.objective, 0)
        else:
            res = linesearch.exact_search(dphi, dphi0=slope0)

    alpha = res.alpha
    lam = np.array(it.lam)
    lam[j] += s * alpha
    margins = base + (s * alpha) * col
    t = it.t + 1
    status = None
    if t % REFRESH_EVERY:
        nxt = _iterate_from(inst, kind, lam, margins, t,
                            weights=last_dphi[1] if last_dphi[0] == alpha else None,
                            objective=values.get(s * alpha))
        status = _stop_status(nxt, cfg)
    if not t % REFRESH_EVERY or status is not None:
        nxt = _iterate_at(inst, kind, lam, t)
        drift = _norm_inf(margins - nxt.margins)
        if not drift <= MARGIN_DRIFT_TOL * (1.0 + _norm_inf(nxt.margins)):
            raise MarginDriftError(
                f"running margins drifted {drift!r} from A @ lam at iteration {t}")
        status = _stop_status(nxt, cfg)
    return nxt, j, sign, float(alpha), res.evals, status


def boost_step(inst: BoostInstance, loss: LossSpec, state: IterateState,
               cfg: RunConfig) -> StepOutcome:
    """One descent step.  Requires a non-stationary state (gradient
    sup-norm above cfg.grad_tol).

    The new margins are ``state.margins + (sign * alpha) * a[:, j]``,
    the ones the line search evaluated at its step.  A Wolfe search's phi
    caches its values and evaluates ladders of powers of two in one pass
    (_ray_phi); the new objective is its value at the accepted step when
    it holds one, and the new weights are the last derivative
    evaluation's when that was at the accepted step; otherwise they are
    computed from the margins.  The gradient A.T @ weights is recomputed
    in full, since selection needs all of it.  On every REFRESH_EVERY-th
    iterate, and on one where a stopping rule of ``cfg`` holds, the state
    is rebuilt from A @ lam instead; running margins that drifted from it
    raise MarginDriftError.  The step is _step on plain arrays, which
    ``run`` calls directly; only the state returned here is frozen."""
    it, j, sign, alpha, evals, _ = _step(inst, loss.kind, state, cfg)
    return StepOutcome(_freeze(it), j, sign, alpha, evals)


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
    """Rebuild lam from (j, sign, alpha) triples, e.g. parsed trace rows
    (text such as "1" is parsed).  A step that is not a column index in
    0..n-1 (a boolean or a non-integral number is none), a sign of +-1
    and a finite alpha raises ValueError naming its 1-based row."""
    lam = np.zeros(int(n))
    for row, (raw_j, sign, alpha) in enumerate(steps, start=1):
        try:
            if isinstance(raw_j, (bool, np.bool_)) or isinstance(sign, (bool, np.bool_)):
                raise TypeError(f"boolean j or sign in ({raw_j!r}, {sign!r})")
            j, sign, alpha = int(raw_j), float(sign), float(alpha)
            if j != raw_j and not isinstance(raw_j, str):
                raise ValueError(f"column index {raw_j!r} is not an integer")
        except (TypeError, ValueError, OverflowError) as exc:  # e.g. a missing field or inf
            raise ValueError(f"step row {row}: {exc}") from None
        if not (0 <= j < lam.size and sign in (-1.0, 1.0) and math.isfinite(alpha)):
            raise ValueError(f"step row {row}: (j, sign, alpha) = ({j}, {sign!r}, {alpha!r}) "
                             f"needs 0 <= j < {lam.size}, sign +-1 and a finite alpha")
        lam[j] += sign * alpha
    return lam


def run(inst: BoostInstance, loss: LossSpec, cfg: RunConfig = RunConfig()) -> Trace:
    """Coordinate descent from lam = 0 until a stopping condition holds.

    Stopping precedence: target objective (if configured), then gradient
    tolerance, then the iteration cap; the returned ``Trace.status`` names
    the rule that fired.  The step routine rebuilds every iterate at which
    a rule holds from A @ lam, so the final state and the last record come
    from A @ lam exactly.  Iterates stay plain arrays between steps; only
    the final state is frozen.
    """
    kind = loss.kind
    it = _iterate_at(inst, kind, np.zeros(inst.n), 0)
    f0 = it.objective
    records: List[TraceRecord] = []
    status = _stop_status(it, cfg)
    while status is None:
        grad_inf = it.grad_inf
        tic = time.perf_counter()
        it, j, sign, alpha, evals, status = _step(inst, kind, it, cfg)
        wall = time.perf_counter() - tic
        records.append(TraceRecord(it.t, it.objective, grad_inf, j, sign, alpha, wall, evals))
    return Trace(records, status, f0, _freeze(it))
