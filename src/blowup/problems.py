"""Problem definitions (1D and R^n), run records, and the assumption sampler.

The sampler can only falsify the structural growth/monotonicity conditions on
a finite point set; it never proves them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import JacobianAccess, safe_norm

POLYNOMIAL = "polynomial"
LOGARITHMIC = "logarithmic"


@dataclass(frozen=True)
class GrowthSpec:
    """Lower growth bound on b(x)·x.

    ``polynomial`` encodes c_check*|x|^(2+alpha) <= b(x)·x, ``logarithmic``
    encodes c_check*|x|^2*log(|x|)^(1+alpha) <= b(x)·x (needs delta > 1).
    ``nominal`` marks a working reconstruction that is not claimed to hold;
    the sampler evaluates it for information but does not count failures.
    """

    kind: str
    c_check: float
    alpha: float
    nominal: bool = False

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, LOGARITHMIC):
            raise ValueError(f"unknown growth kind {self.kind!r}")


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
    """Autonomous system x' = b(x) on {|x| > delta} that blows up in finite time."""

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    jacobian: JacobianAccess
    growth: GrowthSpec
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
    """Evaluate fn(x), mapping overflow/domain failures to None (untestable)."""
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
    xs = np.geomspace(problem.x0, 1e6 * problem.x0, samples)
    pos_b = _Tracker("b positive")
    pos_db = _Tracker("b_deriv positive")
    inc_db = _Tracker("b_deriv increasing")
    trackers = [pos_b, pos_db, inc_db]

    from .thresholds import BPrimeLog  # local import to avoid a cycle

    growth_vs_x = None
    if isinstance(problem.threshold, BPrimeLog):
        growth_vs_x = _Tracker("x <= b_deriv(x)^C")
        trackers.append(growth_vs_x)

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
            c_exp = getattr(problem.threshold, "tail_constant", 1.0)
            try:
                bound = db ** c_exp if db > 0 else -math.inf
            except OverflowError:
                bound = math.inf
            if not math.isfinite(bound):
                if bound > 0:  # overflowing bound trivially dominates x
                    growth_vs_x.record(x, True)
                else:
                    growth_vs_x.untestable(x)
            else:
                growth_vs_x.record(x, x <= bound * (1.0 + _REL_SLACK),
                                   f"x = {x!r} > b'(x)^C = {bound!r}")
    return [t.result() for t in trackers]


def _check_vector(problem: VectorProblem, samples: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        r0 = safe_norm(problem.x0)
    radii = np.geomspace(r0, 1e6 * r0, samples)
    growth = _Tracker("growth lower bound")
    outward = _Tracker("field points outward (b·x > 0)")
    g = problem.growth
    for rho in radii:
        u = rng.normal(size=problem.dim)
        nu = math.sqrt(float(u @ u))
        if nu == 0.0:
            continue
        x = (float(rho) / nu) * u
        try:
            bx = np.asarray(problem.rhs(x), dtype=float)
        except (OverflowError, ValueError, ZeroDivisionError):
            growth.untestable(float(rho))
            outward.untestable(float(rho))
            continue
        dot = float(bx @ x)
        if not math.isfinite(dot):
            growth.untestable(float(rho))
            outward.untestable(float(rho))
            continue
        outward.record(float(rho), dot > 0.0, f"b·x = {dot!r} at |x| = {rho!r}")
        if g.kind == POLYNOMIAL:
            lower = g.c_check * float(rho) ** (2.0 + g.alpha)
        else:
            lower = g.c_check * float(rho) ** 2 * math.log(float(rho)) ** (1.0 + g.alpha)
        if not math.isfinite(lower):
            growth.untestable(float(rho))
            continue
        growth.record(float(rho), dot >= lower * (1.0 - _REL_SLACK),
                      f"b·x = {dot!r} < bound {lower!r} at |x| = {rho!r}")
    return [t.result(nominal=g.nominal) for t in (growth, outward)]


def check_assumptions(problem, samples: int = 1000, seed: int = 1) -> AssumptionReport:
    """Sample the problem's structural inequalities; falsification only.

    1D problems are probed on log-spaced points in [x0, 1e6*x0]; systems on
    radially log-spaced points with random directions. Overflow is reported as
    untestable rather than as failure.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
        g = problem.growth
        if not g.alpha > 0:
            out.append(f"growth.alpha must be positive, got {g.alpha!r}")
        if not g.c_check > 0:
            out.append(f"growth.c_check must be positive, got {g.c_check!r}")
        if g.kind == LOGARITHMIC and not problem.delta > 1:
            out.append("logarithmic growth requires delta > 1")
    else:
        out.append(f"not a problem object: {problem!r}")
    return out

