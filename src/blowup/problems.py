"""Problem definitions (1D and R^n), run records, the assumption sampler, and
the structural validity rule that every solver applies.

The sampler can only falsify the structural growth/monotonicity conditions on
a finite point set; it never proves them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .linalg import JacobianAccess, safe_norm
from .thresholds import BPrimeLog, LogND, PolyND


@dataclass(frozen=True)
class ScalarProblem:
    """Autonomous 1D right-hand side x' = b(x) on [x0, inf) with b, b' > 0."""

    rhs: Callable[[float], float]
    rhs_deriv: Callable[[float], float]
    x0: float
    k: float
    threshold: object
    rhs_second: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class VectorProblem:
    """Autonomous system x' = b(x) on {|x| > delta} that blows up in finite time.

    ``threshold`` is the field's growth bound on b(x)·x, PolyND or LogND; it
    also fixes the truncation radius r(eps). ``rhs`` returns dim components and
    a dense Jacobian dim x dim, as sequences or arrays. For dim 2 with a dense
    Jacobian, solve_nd passes them the state as a pair of floats; every other
    problem, a dim-2 one with a JVP included, is passed ndarrays.
    """

    dim: int
    rhs: Callable
    jacobian: JacobianAccess
    threshold: PolyND | LogND
    delta: float
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one blow-up-time estimation run, built by integrate.run_record.

    ``meta`` holds, by the solver that sets them:
    - ``law``, the step law's or baseline's type name: every run;
    - ``radius_rule``, the threshold's type name: solve_nd, so solve_log_nd too;
    - ``n_guess``, ``outer_iterations`` and ``total_steps_all_iterations``:
      solve_log_nd, whose ``law`` is its last pass's LogNDFixedN;
    - ``rk_tol`` and ``attempts``: solve_arclength;
    - ``cycles``, ``cycle_times``, ``h_cycle`` and ``cycles_estimate``:
      solve_rescaling_1d.
    """

    tau_hat: float
    steps: int
    final_state: object
    radius_used: float
    epsilon: float
    wall_time: float
    trace: Optional[tuple] = None
    warnings: tuple = ()
    meta: dict = field(default_factory=dict)


# --- assumption sampling -------------------------------------------------------

PASS = "pass"
FAIL = "fail"
UNTESTABLE = "untestable"
NOMINAL = "nominal"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""
    counterexample: object = None


@dataclass(frozen=True)
class AssumptionReport:
    samples: int
    seed: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)


def _safe_scalar(fn, x):
    """Evaluate fn(x), mapping overflow/domain failures to None (untestable);
    an expr.DomainError is a ValueError."""
    try:
        v = fn(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    v = float(v)
    if not math.isfinite(v):
        return None
    return v


def _verdict(name: str, outcomes: list, nominal: bool = False) -> CheckResult:
    """The result of one named check from its (x, ok, detail) outcomes, in
    sample order, with ok None where x was untestable: the first failure
    decides it, and the first untestable point is named."""
    failure = next((o for o in outcomes if o[1] is not None and not o[1]), None)
    if failure is not None:
        x, _, detail = failure
        return CheckResult(name, NOMINAL if nominal else FAIL, detail, x)
    untestable = [x for x, ok, _ in outcomes if ok is None]
    if untestable and len(untestable) == len(outcomes):
        return CheckResult(name, UNTESTABLE, f"untestable at x={untestable[0]!r}")
    if nominal:
        return CheckResult(name, NOMINAL, "spec is a reconstruction; sampled clean")
    detail = f"partially untestable from x={untestable[0]!r}" if untestable else ""
    return CheckResult(name, PASS, detail)


_REL_SLACK = 1e-9  # forgives pure roundoff in inequalities that hold with equality


def _check_scalar(problem: ScalarProblem, samples: int) -> list:
    names = ["b positive", "b_deriv positive", "b_deriv increasing"]
    bprimelog = isinstance(problem.threshold, BPrimeLog)
    if bprimelog:
        names.append("x <= b_deriv(x)^C")
    if not problem.x0 > 0:  # no log-spaced grid; structural_violations says why
        return [_verdict(name, [(problem.x0, None, "")]) for name in names]
    pos_b, pos_db, inc_db, growth_vs_x = [], [], [], []
    prev_db = None
    for x in np.geomspace(problem.x0, 1e6 * problem.x0, samples).tolist():
        bx = _safe_scalar(problem.rhs, x)
        pos_b.append((x, None if bx is None else bx > 0.0, f"b({x!r}) = {bx!r}"))
        db = _safe_scalar(problem.rhs_deriv, x)
        if db is None:
            pos_db.append((x, None, ""))
            inc_db.append((x, None, ""))
            prev_db = None
        else:
            pos_db.append((x, db > 0.0, f"b'({x!r}) = {db!r}"))
            if prev_db is not None:
                inc_db.append((x, db >= prev_db * (1.0 - _REL_SLACK),
                               f"b' decreases to {db!r} at x={x!r}"))
            prev_db = db
        if bprimelog and db is not None:  # C = 1, so the bound is b'(x) itself
            growth_vs_x.append((x, x <= db * (1.0 + _REL_SLACK) if db > 0 else None,
                                f"x = {x!r} > b'(x)^C = {db!r}"))
    return [_verdict(name, outcomes)
            for name, outcomes in zip(names, (pos_b, pos_db, inc_db, growth_vs_x))]


def _check_vector(problem: VectorProblem, samples: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        r0 = safe_norm(problem.x0)
    names = ("growth lower bound", "field points outward (b·x > 0)")
    rule = problem.threshold
    nominal = isinstance(rule, PolyND) and rule.nominal
    if not 0 < r0 < math.inf:  # no log-spaced grid from |x0| = 0 (or inf, or nan)
        return [_verdict(name, [(r0, None, "")], nominal) for name in names]
    growth, outward = [], []
    for rho in np.geomspace(r0, 1e6 * r0, samples).tolist():  # plain floats
        u = rng.normal(size=problem.dim)
        nu = math.sqrt(float(u @ u))
        if nu == 0.0:
            continue
        x = (rho / nu) * u
        try:
            bx = np.asarray(problem.rhs(x), dtype=float)
        except (OverflowError, ValueError, ZeroDivisionError):
            bx = None
        dot = math.nan if bx is None else float(bx @ x)
        if not math.isfinite(dot):
            growth.append((rho, None, ""))
            outward.append((rho, None, ""))
            continue
        outward.append((rho, dot > 0.0, f"b·x = {dot!r} at |x| = {rho!r}"))
        if isinstance(rule, LogND):
            lower = rule.c_check * rho ** 2 * math.log(rho) ** (1.0 + rule.alpha)
        else:
            lower = rule.c_check * rho ** (2.0 + rule.alpha)
        growth.append((rho, dot >= lower * (1.0 - _REL_SLACK) if math.isfinite(lower) else None,
                       f"b·x = {dot!r} < bound {lower!r} at |x| = {rho!r}"))
    return [_verdict(name, outcomes, nominal)
            for name, outcomes in zip(names, (growth, outward))]


def check_assumptions(problem, samples: int = 1000, seed: int = 1) -> AssumptionReport:
    """Sample the problem's structural inequalities; falsification only.

    1D problems are probed on log-spaced points in [x0, 1e6*x0]; systems on
    radially log-spaced points with random directions. Overflow is reported as
    untestable rather than as failure.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if isinstance(problem, ScalarProblem):
        checks = _check_scalar(problem, samples)
    else:
        checks = _check_vector(problem, samples, seed)
    return AssumptionReport(samples=samples, seed=seed, checks=tuple(checks))


# --- structural validation -------------------------------------------------------


def structural_violations(problem) -> list[str]:
    """Cheap invariant checks that need no function evaluations."""
    out = []
    if isinstance(problem, ScalarProblem):
        if not problem.x0 > 0:
            out.append(f"x0 must be positive, got {problem.x0!r}")
        if not problem.k > 1:
            out.append(f"k must exceed 1, got {problem.k!r}")
        if problem.threshold is None:
            out.append("threshold rule missing")
    elif isinstance(problem, VectorProblem):
        if problem.dim < 1:
            out.append(f"dim must be >= 1, got {problem.dim}")
        if problem.x0.shape != (problem.dim,):
            out.append(f"x0 has shape {problem.x0.shape}, expected ({problem.dim},)")
        if not problem.delta > 0:
            out.append(f"delta must be positive, got {problem.delta!r}")
        with np.errstate(over="ignore"):
            nx0 = safe_norm(problem.x0)
        if not nx0 > problem.delta:
            out.append(f"|x0| = {nx0!r} must exceed delta = {problem.delta!r}")
        rule = problem.threshold
        if not isinstance(rule, (PolyND, LogND)):
            out.append(f"threshold must be PolyND or LogND, got {rule!r}")
            return out
        if not rule.alpha > 0:
            out.append(f"threshold.alpha must be positive, got {rule.alpha!r}")
        if not rule.c_check > 0:
            out.append(f"threshold.c_check must be positive, got {rule.c_check!r}")
        if isinstance(rule, LogND) and not problem.delta > 1:
            out.append("logarithmic growth requires delta > 1")
    else:
        out.append(f"not a problem object: {problem!r}")
    return out


class InvalidProblem(InputError):
    """The problem breaks a structural condition that the estimate rests on:
    x0 > 0 and k > 1 in 1D; |x0| > delta, a positive growth bound and field shapes in R^n."""


def require_valid(problem) -> None:
    """Raise InvalidProblem, naming every structural violation, for a problem
    that has any; each solver calls this before its radius solve."""
    violations = structural_violations(problem)
    if violations:
        raise InvalidProblem("; ".join(violations))


def require_shapes(dim: int, *values) -> None:
    """Raise InvalidProblem unless values, an R^n field's b(x) and, where a step
    law reads it, its dense J(x), or their trees, have dim and dim x dim
    components: the solvers check a field once per run, not at each step."""
    for name, value, expected in zip(("b(x)", "J(x)"), values, ((dim,), (dim, dim))):
        try:
            shape = np.shape(value)
        except ValueError:  # numpy's error for nested sequences of unequal lengths
            shape = None
        if shape != expected:
            found = "ragged" if shape is None else f"of shape {shape}"
            raise InvalidProblem(f"{name} is {found}, expected shape {expected}")
