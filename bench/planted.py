"""Planted-regime instance generator for the benchmark.

Rejection sampling (``boostcd.fixtures.random_by_regime``) almost never
draws a mixed or attainable instance beyond a handful of rows, so the
benchmark plants the structure instead and keeps the witnesses that prove
it:

* weak learnable: rows of a uniform draw are flipped (and, if too close to
  the hyperplane, redrawn) until a planted ``lam`` with ``||lam||_1 = 1``
  beats every row by at least ``margin``.  Gordan's alternative then says
  the hard core is empty.
* attainable: the columns of a uniform draw are projected orthogonal to a
  planted ``psi > 0``, so ``A.T @ psi = 0`` and the hard core is every row.
* mixed: the core block is drawn, its rows projected orthogonal to ``lam``
  and then its columns orthogonal to ``psi > 0``; the second projection
  keeps the first (``psi`` times a scalar that is zero), so
  ``A_core @ lam = 0`` and ``A_core.T @ psi = 0`` for any core size.  The
  off-core rows are made as in the weakly learnable case.  Motzkin's
  alternative then pins the hard core to exactly the planted core rows.

Everything is finally scaled into [-1, 1] by one scalar, which the
witnesses survive (``lam`` is rescaled so the stated margin still holds).
:func:`verify_planted` re-checks every relation with plain numpy before an
instance is handed to the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

WEAK_LEARNABLE = "weak_learnable"
ATTAINABLE = "attainable"
MIXED = "mixed"
REGIMES = (WEAK_LEARNABLE, ATTAINABLE, MIXED)

# Relative tolerance on the planted equalities A_core @ lam = 0 and
# A.T @ psi = 0, as a multiple of ||lam||_1 resp. ||psi||_1 (every entry
# of A has magnitude <= 1, so those norms bound each product).
PLANT_TOL = 1e-12
# Planted rows are beaten by at least this share of the median |a_i . lam|
# of the raw draw; closer rows are redrawn.
MARGIN_SHARE = 0.25
# Planted dual weights are drawn from [PSI_LO, 1].
PSI_LO = 0.5


class PlantingError(RuntimeError):
    """A generated instance failed independent verification of its ground truth."""


@dataclass(frozen=True)
class Planted:
    """An instance matrix with its ground truth.

    ``core`` holds the sorted 0-based hard-core rows.  ``lam`` (with
    ``||lam||_1 = 1``) beats every off-core row by at least ``margin`` and
    is null on the core; it is None for attainable instances.  ``psi`` is
    positive exactly on the core with ``a.T @ psi = 0``; it is None for
    weakly learnable instances.
    """

    regime: str
    a: np.ndarray
    core: tuple
    lam: Optional[np.ndarray]
    psi: Optional[np.ndarray]
    margin: float


def _beaten_rows(rng, count, lam):
    """``count`` rows with a @ lam <= -margin for one margin shared by all."""
    n = lam.size
    rows = rng.uniform(-1.0, 1.0, size=(count, n))
    dots = rows @ lam
    margin = MARGIN_SHARE * float(np.median(np.abs(dots)))
    close = np.abs(dots) < margin
    while np.any(close):
        rows[close] = rng.uniform(-1.0, 1.0, size=(int(close.sum()), n))
        dots = rows @ lam
        close = np.abs(dots) < margin
    rows[dots > 0] *= -1.0
    return rows, margin


def plant(regime: str, m: int, n: int, seed: int, replica: int = 0) -> Planted:
    """Draw an m x n instance of the given regime from ``seed``; distinct
    ``replica`` numbers give independent draws of the same shape.  A mixed
    instance gets m // 2 core rows, chosen at random.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if m < 4 or n < 2:
        raise ValueError("need m >= 4 and n >= 2")
    rng = np.random.default_rng([int(seed), int(replica), REGIMES.index(regime), int(m), int(n)])
    lam = psi = None
    margin = 0.0
    if regime == ATTAINABLE:
        core = np.arange(m)
        psi = rng.uniform(PSI_LO, 1.0, size=m)
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        a -= np.outer(psi, psi @ a) / (psi @ psi)
    else:
        lam = rng.standard_normal(n)
        lam /= np.abs(lam).sum()
        if regime == WEAK_LEARNABLE:
            core = np.arange(0)
            a, margin = _beaten_rows(rng, m, lam)
        else:
            k = m // 2
            core = np.sort(rng.choice(m, size=k, replace=False))
            off = np.setdiff1d(np.arange(m), core)
            a = np.empty((m, n))
            a[off], margin = _beaten_rows(rng, off.size, lam)
            block = rng.uniform(-1.0, 1.0, size=(k, n))
            block -= np.outer(block @ lam, lam) / (lam @ lam)
            psi_core = rng.uniform(PSI_LO, 1.0, size=k)
            block -= np.outer(psi_core, psi_core @ block) / (psi_core @ psi_core)
            a[core] = block
            psi = np.zeros(m)
            psi[core] = psi_core
    scale = float(np.max(np.abs(a)))
    a = a / scale
    if lam is not None:
        # a @ lam shrank by `scale`; keep ||lam||_1 = 1 and shrink the margin
        margin /= scale
    planted = Planted(regime, a, tuple(int(i) for i in core), lam, psi, margin)
    verify_planted(planted)
    return planted


def verify_planted(p: Planted) -> None:
    """Re-check the ground truth of ``p`` with plain numpy; raise
    PlantingError on any violation.  The witnesses prove the hard core:
    ``psi`` puts every core row in it and ``lam`` keeps every other row out.
    """
    a = p.a
    m, _ = a.shape
    core = np.array(p.core, dtype=int)
    off = np.setdiff1d(np.arange(m), core)
    problems = []
    if not np.all(np.isfinite(a)) or float(np.max(np.abs(a))) > 1.0:
        problems.append("entries outside [-1, 1]")
    expected_core = {WEAK_LEARNABLE: 0, ATTAINABLE: m}.get(p.regime)
    if expected_core is not None and core.size != expected_core:
        problems.append(f"{p.regime} needs a core of {expected_core} rows, got {core.size}")
    if p.regime == MIXED and not 2 <= core.size <= m - 1:
        problems.append(f"mixed core size {core.size} outside [2, {m - 1}]")
    if off.size:
        if p.lam is None:
            problems.append("off-core rows without a primal witness")
        else:
            lam1 = float(np.abs(p.lam).sum())
            if not p.margin > 0.0 or abs(lam1 - 1.0) > 1e-9:
                problems.append("lam must have unit l1 norm and a positive margin")
            if float(np.max(a[off] @ p.lam)) > -p.margin:
                problems.append("planted lam does not beat every off-core row by the margin")
            if core.size and float(np.max(np.abs(a[core] @ p.lam))) > PLANT_TOL * lam1:
                problems.append("planted lam is not null on the core")
    if core.size:
        if p.psi is None:
            problems.append("core rows without a dual witness")
        else:
            psi = p.psi
            if float(np.min(psi[core])) <= 0.0 or (off.size and np.any(psi[off] != 0.0)):
                problems.append("psi must be positive exactly on the core")
            if float(np.max(np.abs(a.T @ psi))) > PLANT_TOL * float(psi.sum()):
                problems.append("planted psi is not in ker(A^T)")
    if problems:
        raise PlantingError(f"planted {p.regime} {a.shape}: " + "; ".join(problems))
