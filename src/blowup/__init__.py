"""Blow-up time estimation for autonomous ODEs with a priori adaptive stepping."""

from types import ModuleType as _ModuleType

from . import catalog
from .baselines import InvalidExponent, MinStepUnderflow, solve_arclength, solve_rescaling_1d
from .errors import BlowupError, SolverError
from .expr import DomainError, ExprSyntaxError, differentiate, evaluate, parse, pretty
from .harness import (
    AXIS_COST,
    AXIS_ERROR,
    InsufficientPoints,
    RateFit,
    StudyRow,
    StudyTable,
    emit_csv,
    emit_svg,
    fit_rate,
    run_method,
    run_rd_study,
    run_study,
)
from .integrate import (
    FixedPointDivergence,
    Overflow,
    SolverConfig,
    StepBudgetExceeded,
    solve_1d,
    solve_log_nd,
    solve_nd,
)
from .linalg import JacobianAccess, TransposeUnavailable, spectral_norm
from .problems import (
    AssumptionReport,
    GrowthSpec,
    RunResult,
    ScalarProblem,
    VectorProblem,
    check_assumptions,
)
from .stepping import (
    Adaptive1D,
    AdaptiveND,
    AltND,
    LogNDFixedN,
    LogNDImplicitN,
    NonincreasingField,
    NonpositiveDerivative,
    PowerUniformND,
    Taylor1D,
    Uniform1D,
    UniformND,
)
from .thresholds import (
    RADIUS_CAP,
    BPrimeLog,
    BracketFailure,
    ExplicitRadius,
    FInverse,
    LogND,
    NonMonotone,
    PolyND,
    radius,
    tau_tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
