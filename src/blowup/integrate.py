"""Forward-Euler hitting-time solvers with a priori adaptive steps.

The 1D loop advances x <- x + b(x)h while x < r(eps) (strict guard); the R^n
loop advances while |x| <= r(eps). In both cases the accumulated time at the
first crossing is the blow-up estimate, and a loop that ends on a NaN state
raises Overflow instead. Step sizes come from the step_size method of the law
selected in SolverConfig, called once per run, except for the Adaptive1D and
Taylor1D steps, which solve_1d computes in its loop (see the stepping module).
solve_log_nd finds the step count of the LogNDImplicitN law by an outer loop.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, stepping, thresholds
from .errors import SolverError
from .problems import (
    LOGARITHMIC,
    RunResult,
    ScalarProblem,
    VectorProblem,
    structural_violations,
)
from .stepping import Adaptive1D, AdaptiveND, LogNDFixedN, StepLaw, Taylor1D, Uniform1D


class StepBudgetExceeded(SolverError):
    """The loop hit max_steps before the state reached the radius."""


class Overflow(SolverError):
    """The state became NaN before reaching the radius: the field or its
    derivative returned NaN, or the state overflowed into inf - inf."""


class FixedPointDivergence(SolverError):
    """The implicit-N outer iteration failed to settle within its budget."""


@dataclass(frozen=True)
class SolverConfig:
    law: Optional[StepLaw] = None
    max_steps: int = 2**30
    record_trace: bool = False

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _base_warnings(problem) -> list[str]:
    viol = structural_violations(problem)
    return [f"structural violation: {v}" for v in viol]


def solve_1d(problem: ScalarProblem, eps: float, cfg: SolverConfig | None = None) -> RunResult:
    """Estimate the 1D blow-up time by integrating to the threshold radius."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    cfg = cfg or SolverConfig()
    law = cfg.law if cfg.law is not None else Adaptive1D()
    if not isinstance(law, stepping.LAWS_1D):
        raise TypeError(f"{law!r} is not a 1D step law")
    warnings = _base_warnings(problem)

    r = thresholds.radius(problem.threshold, problem, eps)
    warnings += thresholds.cap_warnings(r)

    b = problem.rhs
    bd = problem.rhs_deriv
    k = problem.k
    x = float(problem.x0)
    t = 0.0
    steps = 0
    trace = [(0.0, x)] if cfg.record_trace else None
    max_steps = cfg.max_steps

    sqrt = math.sqrt
    start = time.perf_counter()
    if x < r:
        probes = not isinstance(law, Uniform1D)
        second = isinstance(law, Taylor1D)
        root = eps ** 0.5
        if not probes:
            h = law.step_size(problem, eps, r)
        for n in range(max_steps):
            if probes:
                probe = k * x
                if probe > r:
                    probe = r
                d = bd(probe)
                if d <= 0.0:
                    raise stepping.NonpositiveDerivative(f"b'({probe!r}) = {d!r}")
                if second:  # Taylor1D: h = eps^(1/2) / b'(probe)^(2/3)
                    h = root / float(d) ** (2.0 / 3.0)
                else:  # Adaptive1D: h = eps / sqrt(b'(probe))
                    h = eps / sqrt(d)
            bx = b(x)
            if second:
                # second derivative of the solution via the chain rule: x'' = b'(x) b(x)
                x = x + bx * h + 0.5 * bd(x) * bx * h * h
            else:
                x = x + bx * h
            t += h
            if trace is not None:
                trace.append((t, x))
            if not x < r:
                break
        else:
            raise StepBudgetExceeded(f"exceeded {max_steps} steps at x = {x!r}")
        steps = n + 1
        if x != x:
            raise Overflow(f"state is nan after {steps} steps below r = {r!r}")
    else:
        warnings.append(f"degenerate radius: r = {r!r} <= x0 = {x!r}; no steps taken")
    wall = time.perf_counter() - start

    return RunResult(
        tau_hat=t,
        steps=steps,
        final_state=x,
        radius_used=r,
        epsilon=eps,
        wall_time=wall,
        trace=tuple(trace) if trace is not None else None,
        warnings=tuple(warnings),
        meta={"law": type(law).__name__},
    )


def solve_nd(
    problem: VectorProblem,
    eps: float,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Estimate the blow-up time of a system by integrating to |x| > r(eps)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    cfg = cfg or SolverConfig()
    law = cfg.law if cfg.law is not None else AdaptiveND()
    if not isinstance(law, stepping.LAWS_ND):
        raise TypeError(f"{law!r} is not an R^n step law")
    warnings = _base_warnings(problem)

    rule = thresholds.rule_for_growth(problem.growth)
    r = thresholds.radius(rule, problem, eps)
    warnings += thresholds.cap_warnings(r)

    rhs = problem.rhs
    norm = linalg.safe_norm
    x = np.array(problem.x0, dtype=float)
    t = 0.0
    n = 0
    max_steps = cfg.max_steps

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        nx = norm(x)
        trace = [(0.0, nx)] if cfg.record_trace else None
        if not nx <= r:
            warnings.append(f"degenerate radius: r = {r!r} < |x0| = {nx!r}; no steps taken")
        else:
            h_rule = law.step_size(problem, eps, r)
            constant_h = not callable(h_rule)
            while nx <= r:
                if n >= max_steps:
                    raise StepBudgetExceeded(f"exceeded {max_steps} steps at |x| = {nx!r}")
                bx = rhs(x)
                h = h_rule if constant_h else h_rule(x, bx)
                x = x + bx * h
                t += h
                n += 1
                nx = norm(x)
                if trace is not None:
                    trace.append((t, nx))
            if nx != nx:
                raise Overflow(f"|state| is nan after {n} steps below r = {r!r}")
    wall = time.perf_counter() - start

    return RunResult(
        tau_hat=t,
        steps=n,
        final_state=x,
        radius_used=r,
        epsilon=eps,
        wall_time=wall,
        trace=tuple(trace) if trace is not None else None,
        warnings=tuple(warnings),
        meta={"law": type(law).__name__, "radius_rule": type(rule).__name__},
    )


def solve_log_nd(
    problem: VectorProblem,
    eps: float,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Slow-growth solver: the step law needs the unknown step count N, so an
    outer loop guesses N, runs, and accepts once N_actual <= guess <= 4*N_actual.

    The guess starts at ceil(1/eps) and doubles while the run overshoots it;
    if the guess overshoots the other way it is pulled down to N_actual.
    """
    if problem.growth.kind != LOGARITHMIC:
        raise ValueError("solve_log_nd needs a logarithmic growth specification")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    cfg = cfg or SolverConfig()

    n_guess = max(1, math.ceil(1.0 / eps))
    total_steps = 0
    start = time.perf_counter()
    for outer in range(1, 41):
        run_cfg = replace(cfg, law=LogNDFixedN(n_guess))
        res = solve_nd(problem, eps, run_cfg)
        actual = res.steps
        total_steps += actual
        if actual == 0 or (actual <= n_guess <= 4 * actual):
            wall = time.perf_counter() - start
            meta = dict(res.meta)
            meta.update(
                n_guess=n_guess,
                outer_iterations=outer,
                total_steps_all_iterations=total_steps,
            )
            return replace(res, wall_time=wall, meta=meta)
        if actual > n_guess:
            n_guess *= 2
        else:
            n_guess = max(1, actual)
    raise FixedPointDivergence(
        f"implicit-N iteration did not settle in 40 rounds (last guess {n_guess})"
    )
