"""Boosting as l1 steepest-descent coordinate descent, with the
primal-dual structure theory that explains its convergence regimes.

The descent engine (``boost``, ``linesearch``, ``losses``, ``instance``)
needs numpy alone.  The structure analysis (``structure`` on the LP
solver in ``lp``) needs scipy's LAPACK, so its names are resolved on
first use: ``import boostcd`` loads no scipy module, and the first of
``analyze``, ``dual_certificate`` and the other structure names that is
looked up imports :mod:`boostcd.structure`.
"""

from .boost import (
    ApproxSelector,
    IterateState,
    RunConfig,
    Trace,
    boost_step,
    initial_state,
    run,
)
from .instance import (
    BoostInstance,
    make_instance,
    read_instance,
    write_instance,
)
from .linesearch import StepResult, exact_search, wolfe_search
from .losses import (
    EXPONENTIAL,
    LOGISTIC,
    LossSpec,
    conj_eval,
    conj_grad,
    loss_eval,
    loss_grad,
    make_loss,
)

_STRUCTURE_NAMES = frozenset({
    "DualCertificate", "StructureReport", "analyze", "decompose",
    "dual_certificate", "gamma_classical", "hard_core",
})


def __getattr__(name):
    if name in _STRUCTURE_NAMES:
        from . import structure
        return getattr(structure, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ApproxSelector", "BoostInstance", "DualCertificate", "EXPONENTIAL",
    "IterateState", "LOGISTIC", "LossSpec", "RunConfig", "StepResult",
    "StructureReport", "Trace", "analyze", "boost_step", "conj_eval",
    "conj_grad", "decompose", "dual_certificate", "exact_search",
    "gamma_classical", "hard_core", "initial_state", "loss_eval",
    "loss_grad", "make_instance", "make_loss", "read_instance", "run",
    "wolfe_search", "write_instance",
]
