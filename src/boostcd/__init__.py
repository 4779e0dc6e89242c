"""Boosting as l1 steepest-descent coordinate descent, with the
primal-dual structure theory that explains its convergence regimes."""

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
    RiskFunction,
    conj_eval,
    conj_grad,
    loss_eval,
    loss_grad,
    make_loss,
)
from .structure import (
    DualCertificate,
    StructureReport,
    analyze,
    decompose,
    dual_certificate,
    gamma_classical,
    hard_core,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxSelector", "BoostInstance", "DualCertificate", "EXPONENTIAL",
    "IterateState", "LOGISTIC", "LossSpec", "RiskFunction", "RunConfig",
    "StepResult", "StructureReport", "Trace", "analyze", "boost_step",
    "conj_eval", "conj_grad", "decompose", "dual_certificate",
    "exact_search", "gamma_classical", "hard_core", "initial_state",
    "loss_eval", "loss_grad", "make_instance", "make_loss", "read_instance",
    "run", "wolfe_search", "write_instance",
]
