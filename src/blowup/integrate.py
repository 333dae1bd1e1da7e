"""Forward-Euler hitting-time solvers with a priori adaptive steps.

The 1D loop advances x <- x + b(x)h while x < r(eps) (strict guard); the R^n
loop advances while |x| <= r(eps). In both cases the accumulated time at the
first crossing is the blow-up estimate, and a loop that ends on a NaN state
raises Overflow instead. Step sizes come from the step_size method of the law
selected in SolverConfig, called once per run, except for the Adaptive1D and
Taylor1D steps, which solve_1d computes in its loop (see the stepping module).
solve_1d's loop is generated for the law and the field, and cached: a field
function that carries an expression tree, as expr.compile's do, is computed
inline, with no call per step, and any other callable is called.
solve_log_nd finds the step count of the LogNDImplicitN law by an outer loop
that predicts the next guess from the last pass, G <- ceil(N_actual^2 / G).
"""
from __future__ import annotations

import math
import textwrap
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import expr, linalg, stepping, thresholds
from .errors import InputError, SolverError
from .problems import RunResult, ScalarProblem, VectorProblem, require_valid
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
            raise InputError("max_steps must be >= 1")


# The step of each 1D law in solve_1d's generated loop. {d}, {bx} and {dx} are
# b'(probe), b(x) and b'(x), computed by the statements emitted before them;
# {fd} is d as a float, which a called b' need not return. Adaptive1D and
# Taylor1D probe b' at min(k x, r).
_PROBE = """\
probe = k * x
if probe > r:
    probe = r
{d_lines}d = {d}
if d <= 0.0:
    raise NonpositiveDerivative(f"b'({{probe!r}}) = {{d!r}}")
"""
_STEPS = {
    Adaptive1D: _PROBE + "h = eps / sqrt(d)\n{bx_lines}bx = {bx}\nx = x + bx * h\n",
    # h = eps^(1/2) / b'(probe)^(2/3), and the second derivative of the solution
    # by the chain rule, x'' = b'(x) b(x)
    Taylor1D: _PROBE + "h = root / {fd} ** (2.0 / 3.0)\n{bx_lines}bx = {bx}\n{dx_lines}"
                       "x = x + bx * h + 0.5 * {dx} * bx * h * h\n",
    Uniform1D: "{bx_lines}bx = {bx}\nx = x + bx * h\n",
}
# The emitted statements name helpers, non-finite literals and nodes; they are
# bound as keyword defaults, so that the loop reads them as locals.
_LOOP = """\
def loop(x, r, k, eps, h, max_steps, b, bd, trace, *, {bound}):
    root = eps ** 0.5
    t = 0.0
    for n in range(max_steps):
{step}        t += h
{record}        if not x < r:
            break
    else:
        raise StepBudgetExceeded(f"exceeded {{max_steps}} steps at x = {{x!r}}")
    return n + 1, t, x
"""


def _require_moving(h: float, eps: float, r: float) -> None:
    """Raise SolverError for a constant step that is not positive, as where b(r)
    or b'(r) overflows or eps^p underflows: the state would never move."""
    if not h > 0.0:
        raise SolverError(f"constant step h = {h!r} at eps = {eps!r} and r = {r!r}: "
                          "the state cannot move")


@lru_cache(maxsize=64)
def _loop_1d(law: type, b, bd, trace: bool):
    """solve_1d's loop for one law type, generated and compiled once. b and bd
    are the field's functions when they carry an expression tree, which the
    loop computes inline, or None for a field the loop calls: its b and bd
    arguments. A loop without trace makes no trace test."""
    namespace = {"sqrt": math.sqrt, "NonpositiveDerivative": stepping.NonpositiveDerivative,
                 "StepBudgetExceeded": StepBudgetExceeded}

    def field(fn, call: str, var: str, tag: str) -> tuple[str, str]:
        if fn is None:
            return "", f"{call}({var})"
        lines, value = expr.emit(fn.tree, var, namespace, tag)
        return "".join(f"{line}\n" for line in lines), value

    bx_lines, bx = field(b, "b", "x", "_b")
    d_lines, d = field(bd, "bd", "probe", "_p")
    dx_lines, dx = field(bd, "bd", "x", "_q") if law is Taylor1D else ("", "")
    step = _STEPS[law].format(bx_lines=bx_lines, bx=bx, d_lines=d_lines, d=d,
                              dx_lines=dx_lines, dx=dx, fd="d" if bd is not None else "float(d)")
    record = "        trace.append((t, x))\n" if trace else ""
    bound = ", ".join(f"{name}={name}" for name in namespace)
    exec(_LOOP.format(step=textwrap.indent(step, " " * 8), record=record, bound=bound), namespace)
    return namespace["loop"]


def solve_1d(problem: ScalarProblem, eps: float, cfg: SolverConfig | None = None) -> RunResult:
    """Estimate the 1D blow-up time by integrating to the threshold radius.

    The loop is generated for the law and the field (_loop_1d): rhs and
    rhs_deriv run inline where they carry an expression tree, as expr.compile's
    functions do, and are called each step where they do not."""
    require_valid(problem)
    cfg = cfg or SolverConfig()
    law = cfg.law if cfg.law is not None else Adaptive1D()
    if not isinstance(law, stepping.LAWS_1D):
        raise TypeError(f"{law!r} is not a 1D step law")

    r = thresholds.radius(problem.threshold, problem, eps)
    warnings = thresholds.cap_warnings(r)

    b, bd = problem.rhs, problem.rhs_deriv
    kind = next(c for c in stepping.LAWS_1D if isinstance(law, c))
    loop = _loop_1d(kind, b if hasattr(b, "tree") else None,
                    bd if hasattr(bd, "tree") else None, cfg.record_trace)
    x = float(problem.x0)
    t = 0.0
    steps = 0
    trace = [(0.0, x)] if cfg.record_trace else None

    start = time.perf_counter()
    if x < r:
        h = law.step_size(problem, eps, r) if isinstance(law, Uniform1D) else None
        if h is not None:
            _require_moving(h, eps, r)
        elif bd(r) == math.inf:  # h = eps / sqrt(inf) = 0 once the probe min(k x, r) is r
            raise SolverError(f"b'(r) = inf at eps = {eps!r} and r = {r!r}: the step is 0 "
                              "once the probe reaches r, so the state cannot move")
        steps, t, x = loop(x, r, problem.k, eps, h, cfg.max_steps, b, bd, trace)
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
    """Estimate the blow-up time of a system by integrating to |x| > r(eps).

    A state of dimension other than 2 is one array that each step updates in
    place, so an rhs that keeps its argument must keep a copy."""
    require_valid(problem)
    cfg = cfg or SolverConfig()
    law = cfg.law if cfg.law is not None else AdaptiveND()
    if not isinstance(law, stepping.LAWS_ND):
        raise TypeError(f"{law!r} is not an R^n step law")

    rule = problem.threshold
    r = thresholds.radius(rule, problem, eps)
    warnings = thresholds.cap_warnings(r)

    rhs = problem.rhs
    # A planar state is a pair of Python floats: 2-element arrays cost more in
    # numpy call overhead than the arithmetic they carry.
    planar = problem.dim == 2
    x = tuple(problem.x0.tolist()) if planar else np.array(problem.x0, dtype=float)
    norm = linalg.pair_norm if planar else linalg.safe_norm
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
            if constant_h:
                _require_moving(h_rule, eps, r)
            step = None if planar else np.empty_like(x)
            while nx <= r:
                if n >= max_steps:
                    raise StepBudgetExceeded(f"exceeded {max_steps} steps at |x| = {nx!r}")
                bx = rhs(x)
                h = h_rule if constant_h else h_rule(x, bx)
                if planar:
                    x = (x[0] + bx[0] * h, x[1] + bx[1] * h)
                else:
                    # x + bx h with no new array; bx may alias x, so its product comes first
                    np.multiply(bx, h, step)
                    x += step
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
        final_state=np.array(x, dtype=float) if planar else x,
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

    The guess G starts at ceil(1/eps). Since h scales as G^(-1/2), a pass run
    with guess G takes about C*sqrt(G) steps, so the next guess is the fixed
    point predicted from the last pass: G <- ceil(N_actual^2 / G).
    """
    if not isinstance(problem.threshold, thresholds.LogND):
        raise InputError("solve_log_nd needs a LogND threshold (logarithmic growth)")
    thresholds.require_tolerance(eps)
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
        n_guess = max(1, -(-actual * actual // n_guess))
    raise FixedPointDivergence(
        f"implicit-N iteration did not settle in 40 rounds (last guess {n_guess})"
    )
