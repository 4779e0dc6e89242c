"""Canonical small instances for tests and the experiment harness."""

from __future__ import annotations

import math

import numpy as np

from . import structure
from .instance import BoostInstance, make_instance

LN2 = math.log(2.0)
MAX_TRIES = 2000


def mixed_3x2() -> BoostInstance:
    """Two antisymmetric examples plus one both learners get wrong.

    The antisymmetric pair spans the dual cone, so the hard core is
    {1, 2} and the optimal risk 2*g(0) is approached but never attained:
    the classic slow (inverse-t) instance for coordinate descent."""
    return make_instance([[-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])


def weaklearn_3x3() -> BoostInstance:
    """mixed_3x2 plus a third learner that beats every example."""
    return make_instance([[-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, -1.0]])


def confidence_4x3() -> BoostInstance:
    """mixed_3x2 padded with an abstaining column and an extra example
    only the third (confidence-rated) learner touches."""
    return make_instance([
        [-1.0, 1.0, 0.0],
        [1.0, -1.0, 0.0],
        [-1.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
    ])


def attainable_pair() -> BoostInstance:
    """One learner, right on one example and wrong on the other; the
    unique minimizer is lam = 0."""
    return make_instance([[-1.0], [1.0]])


def single_good() -> BoostInstance:
    """One learner, right on the single example: weakly learnable."""
    return make_instance([[-1.0]])


def attainable_tilted() -> BoostInstance:
    """A 3x2 attainable instance whose minimizer is away from 0, used for
    the geometric-rate experiments."""
    return make_instance([[-1.0, 0.5], [1.0, -1.0], [-0.5, 1.0]])


def attainable_slow() -> BoostInstance:
    """Nearly-degenerate symmetric attainable instance.

    The antisymmetric pair is softened to +-0.9 and the third example is
    weakly covered by both learners, so the descent alternates between
    symmetric coordinates and contracts by only ~0.9 per step.  That slow,
    even decay keeps the whole t in [5, 200] window above float noise,
    which makes it the fixture of choice for geometric-rate fits."""
    return make_instance([[-1.0, 0.9], [0.9, -1.0], [0.2, 0.2]])


def rotated_mixed_3x2() -> BoostInstance:
    """mixed_3x2 rotated by pi/4 and rescaled by 1/sqrt(2) to stay in the
    unit box.  Same regime and dual structure; after rotation a single
    coordinate step can approach the optimum arbitrarily closely, which
    is why the descent's guarantees are stated in the axis-aligned frame."""
    c = math.sqrt(0.5)
    rot = np.array([[c, -c], [c, c]])
    return BoostInstance(mixed_3x2().a @ rot.T / math.sqrt(2.0))


FIXTURES = {
    "mixed-3x2": mixed_3x2,
    "weaklearn-3x3": weaklearn_3x3,
    "confidence-4x3": confidence_4x3,
    "attainable-pair": attainable_pair,
    "single-good": single_good,
    "attainable-tilted": attainable_tilted,
    "attainable-slow": attainable_slow,
    "rotated-mixed-3x2": rotated_mixed_3x2,
}

# Minimal risk per (fixture, loss kind) of the fixtures ``cli rates`` fits.
# mixed-3x2 follows from the dual: the optimal weighting puts g'(0) on each
# antisymmetric example, leaving 2*g(0).  The attainable-slow values are
# frozen outputs of a long descent (1e5 iteration cap, gradient tolerance
# 1e-13); for exp its stationarity reduces to exp(u/2) = 2, so the optimum
# is 2**1.2 + 2**-0.8, one ulp from the frozen float.
REFERENCE_OPTIMA = {
    ("mixed-3x2", "logistic"): 2.0 * LN2,
    ("attainable-slow", "logistic"): 1.9648183622933157,
    ("attainable-slow", "exp"): 2.8717458874925876,
}


def reference_optimum(name: str, kind: str) -> float:
    return REFERENCE_OPTIMA[(name, kind)]


def random_instance(rng: np.random.Generator, m: int, n: int,
                    entries: str = "uniform") -> BoostInstance:
    if entries == "uniform":
        a = rng.uniform(-1.0, 1.0, size=(m, n))
    elif entries == "sign":
        a = rng.choice([-1.0, 1.0], size=(m, n))
    elif entries == "ternary":
        a = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
    else:
        raise ValueError(f"unknown entries mode {entries!r}")
    return make_instance(a)


def random_by_regime(regime: str, seed: int, m: int | None = None,
                     n: int | None = None, entries: str = "uniform") -> BoostInstance:
    """Rejection-sample a random instance of the requested regime.

    Sizes default to uniform draws in 2..5 examples / 2..6 learners.
    Classification is by the hard core, so the draw is consistent with
    :func:`boostcd.structure.analyze`.  Gives up after MAX_TRIES draws.
    """
    if regime not in (structure.WEAK_LEARNABLE, structure.ATTAINABLE, structure.MIXED):
        raise ValueError(f"unknown regime {regime!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        mm = int(m) if m is not None else int(rng.integers(2, 6))
        nn = int(n) if n is not None else int(rng.integers(2, 7))
        inst = random_instance(rng, mm, nn, entries)
        core = structure.hard_core(inst)
        if not core:
            found = structure.WEAK_LEARNABLE
        elif len(core) == mm:
            found = structure.ATTAINABLE
        else:
            found = structure.MIXED
        if found == regime:
            return inst
    raise RuntimeError(
        f"no {regime} instance found in {MAX_TRIES} draws (seed {seed})"
    )
