"""Problem definitions (1D and R^n), run records, and the assumption sampler.

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
    also fixes the truncation radius r(eps). For dim 2, solve_nd passes the
    state to ``rhs`` and the Jacobian as a pair of floats, and they may return
    any length-2 sequence (nested for the dense Jacobian); other dimensions
    pass ndarrays.
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
    """Outcome of one blow-up-time estimation run."""

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


class _Tracker:
    """First-failure / first-untestable bookkeeping for one named check."""

    def __init__(self, name):
        self.name = name
        self.fail_at = None
        self.fail_detail = ""
        self.untestable_at = None
        self.tested = 0

    def record(self, point, ok: bool, detail=""):
        self.tested += 1
        if not ok and self.fail_at is None:
            self.fail_at = point
            self.fail_detail = detail

    def untestable(self, point):
        if self.untestable_at is None:
            self.untestable_at = point

    def result(self, nominal=False) -> CheckResult:
        if self.fail_at is not None:
            status = NOMINAL if nominal else FAIL
            return CheckResult(self.name, status, self.fail_detail, self.fail_at)
        if self.tested == 0 and self.untestable_at is not None:
            return CheckResult(self.name, UNTESTABLE, f"untestable at x={self.untestable_at!r}")
        if nominal:
            return CheckResult(self.name, NOMINAL, "spec is a reconstruction; sampled clean")
        detail = ""
        if self.untestable_at is not None:
            detail = f"partially untestable from x={self.untestable_at!r}"
        return CheckResult(self.name, PASS, detail)


_REL_SLACK = 1e-9  # forgives pure roundoff in inequalities that hold with equality


def _check_scalar(problem: ScalarProblem, samples: int) -> list:
    pos_b = _Tracker("b positive")
    pos_db = _Tracker("b_deriv positive")
    inc_db = _Tracker("b_deriv increasing")
    trackers = [pos_b, pos_db, inc_db]

    growth_vs_x = None
    if isinstance(problem.threshold, BPrimeLog):
        growth_vs_x = _Tracker("x <= b_deriv(x)^C")
        trackers.append(growth_vs_x)

    if not problem.x0 > 0:  # no log-spaced grid; structural_violations says why
        for t in trackers:
            t.untestable(problem.x0)
        return [t.result() for t in trackers]
    xs = np.geomspace(problem.x0, 1e6 * problem.x0, samples)
    prev_db = None
    for x in xs:
        x = float(x)
        bx = _safe_scalar(problem.rhs, x)
        if bx is None:
            pos_b.untestable(x)
        else:
            pos_b.record(x, bx > 0.0, f"b({x!r}) = {bx!r}")
        db = _safe_scalar(problem.rhs_deriv, x)
        if db is None:
            pos_db.untestable(x)
            inc_db.untestable(x)
            prev_db = None
        else:
            pos_db.record(x, db > 0.0, f"b'({x!r}) = {db!r}")
            if prev_db is not None:
                ok = db >= prev_db * (1.0 - _REL_SLACK)
                inc_db.record(x, ok, f"b' decreases to {db!r} at x={x!r}")
            prev_db = db
        if growth_vs_x is not None and db is not None:
            if db > 0:  # C = 1, so the bound is b'(x) itself
                growth_vs_x.record(x, x <= db * (1.0 + _REL_SLACK),
                                   f"x = {x!r} > b'(x)^C = {db!r}")
            else:
                growth_vs_x.untestable(x)
    return [t.result() for t in trackers]


def _check_vector(problem: VectorProblem, samples: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        r0 = safe_norm(problem.x0)
    growth = _Tracker("growth lower bound")
    outward = _Tracker("field points outward (b·x > 0)")
    rule = problem.threshold
    nominal = isinstance(rule, PolyND) and rule.nominal
    if not 0 < r0 < math.inf:  # no log-spaced grid from |x0| = 0 (or inf, or nan)
        growth.untestable(r0)
        outward.untestable(r0)
        return [t.result(nominal=nominal) for t in (growth, outward)]
    for rho in np.geomspace(r0, 1e6 * r0, samples).tolist():  # plain floats
        u = rng.normal(size=problem.dim)
        nu = math.sqrt(float(u @ u))
        if nu == 0.0:
            continue
        x = (rho / nu) * u
        try:
            bx = np.asarray(problem.rhs(x), dtype=float)
        except (OverflowError, ValueError, ZeroDivisionError):
            growth.untestable(rho)
            outward.untestable(rho)
            continue
        dot = float(bx @ x)
        if not math.isfinite(dot):
            growth.untestable(rho)
            outward.untestable(rho)
            continue
        outward.record(rho, dot > 0.0, f"b·x = {dot!r} at |x| = {rho!r}")
        if isinstance(rule, LogND):
            lower = rule.c_check * rho ** 2 * math.log(rho) ** (1.0 + rule.alpha)
        else:
            lower = rule.c_check * rho ** (2.0 + rule.alpha)
        if not math.isfinite(lower):
            growth.untestable(rho)
            continue
        growth.record(rho, dot >= lower * (1.0 - _REL_SLACK),
                      f"b·x = {dot!r} < bound {lower!r} at |x| = {rho!r}")
    return [t.result(nominal=nominal) for t in (growth, outward)]


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

