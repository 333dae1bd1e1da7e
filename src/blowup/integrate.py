"""Forward-Euler hitting-time solvers with a priori adaptive steps.

The 1D loop advances x <- x + b(x)h while x < r(eps) (strict guard); the R^n
loop advances while |x| <= r(eps). In both cases the accumulated time at the
first crossing is the blow-up estimate, and a loop that ends on a NaN state
raises Overflow instead. Both loops are generated from one template and cached:
a per-state law's step is its text in _STEPS (1D) or _STEPS_ND (R^n), and a
constant law's step comes from its step_size, called once per run. A 1D field
function, or a planar field and its Jacobian, that carries an expression tree,
as expr.compile's do, and an array field and its JVP that carry statement texts,
as the rd field's do, are computed inline; any other callable is called. A first
step that leaves the state where it was raises SolverError, since no later step
could move it.
solve_log_nd finds the step count of the LogNDImplicitN law by an outer loop
that predicts the next guess from the last pass, G <- ceil(N_actual^2 / G).
run_setup and run_record are the start and the record of every solver's run,
the baselines' included.
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
from .problems import RunResult, ScalarProblem, VectorProblem, require_shapes, require_valid
from .stepping import Adaptive1D, AdaptiveND, AltND, LogNDFixedN, StepLaw, Taylor1D


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


# The step of each per-state 1D law in solve_1d's generated loop (a constant
# law's is _EULER). {d}, {bx} and {dx} are b'(probe), b(x) and b'(x), computed by
# the statements emitted before them; {fd} is d as a float, which a called b'
# need not return. Adaptive1D and Taylor1D probe b' at min(k x, r).
_PROBE = """\
probe = k * x
if probe > r:
    probe = r
{d_lines}d = {d}
if d <= 0.0:
    raise NonpositiveDerivative(f"b'({{probe!r}}) = {{d!r}}")
"""
_EULER = "{bx_lines}bx = {bx}\nx = x + bx * h\n"
_STEPS = {
    Adaptive1D: _PROBE + "h = eps / sqrt(d)\n" + _EULER,
    # h = eps^(1/2) / b'(probe)^(2/3), and the second derivative of the solution
    # by the chain rule, x'' = b'(x) b(x)
    Taylor1D: _PROBE + "h = root / {fd} ** (2.0 / 3.0)\n{bx_lines}bx = {bx}\n{dx_lines}"
                       "x = x + bx * h + 0.5 * {dx} * bx * h * h\n",
}
# The step size of each per-state R^n law in solve_nd's generated loop, which
# computes b(x) before it and the update after it. {sn} is ||J(x)||_2, {nb} is
# |b(x)| and {njb} is |J(x) b(x)|, after the statements {jb_lines}. An array loop
# looks spectral_norm up on linalg at each step, so that a patched one is seen.
_ADAPTIVE_ND = "sn = {sn}\nh = eps / sqrt(sn if sn > 1.0 else 1.0)\n"
_STEPS_ND = {
    AdaptiveND: _ADAPTIVE_ND,
    # where b'(x) b(x) = 0 the law has no scale, and the AdaptiveND step is taken;
    # the cap is inf for none
    AltND: "{jb_lines}jn = {njb}\nif jn <= 0.0:\n" + textwrap.indent(_ADAPTIVE_ND, "    ")
           + "else:\n    h = eps * sqrt({nb}) / sqrt(jn)\nif h > cap:\n    h = cap\n",
    LogNDFixedN: "sn = {sn}\nh = sqrt(eps / (N * (sn if sn > 1.0 else 1.0)))\n",
}
# Both dimension classes' loops. The first step is peeled: a state that it
# leaves where it was cannot move, since every law's h and b are functions of
# x alone. The emitted statements name helpers, non-finite literals and nodes;
# they are bound as keyword defaults, so that the loop reads them as locals.
_LOOP = """\
def loop(x, r, eps, h, max_steps, {args}, trace, *, {bound}):
{prologue}    t = 0.0
{first}    if {unmoved}:
        raise SolverError(f"h = {{h!r}} at eps = {{eps!r}} leaves {state}: the state cannot move")
    if not {guard}:
        return 1, t, {result}
    for n in range(1, max_steps):
{step}        if not {guard}:
            break
    else:
        raise StepBudgetExceeded(f"exceeded {{max_steps}} steps at {state}")
    return n + 1, t, {result}
"""


def _compile(namespace: dict, args: str, prologue: str, step: str, guard: str, state: str,
             unmoved: str = "x == x0", result: str = "x"):
    """The loop of _LOOP whose steps run the statements step, which end by
    advancing t and recording the trace; prologue saves the start state as x0,
    and the loop returns the state result."""
    namespace.update(SolverError=SolverError, StepBudgetExceeded=StepBudgetExceeded)
    bound = ", ".join(f"{name}={name}" for name in namespace)
    exec(_LOOP.format(args=args, bound=bound, prologue=textwrap.indent(prologue, " " * 4),
                      first=textwrap.indent(step, " " * 4), step=textwrap.indent(step, " " * 8),
                      guard=guard, state=state, unmoved=unmoved, result=result), namespace)
    return namespace["loop"]


@lru_cache(maxsize=64)
def _loop_1d(law: type, b, bd, trace: bool):
    """solve_1d's loop for one law type, generated and compiled once. b and bd
    are the field's functions when they carry an expression tree, which the
    loop computes inline, or None for a field the loop calls: its b and bd
    arguments. A loop without trace makes no trace test."""
    namespace = {"sqrt": math.sqrt, "NonpositiveDerivative": stepping.NonpositiveDerivative}

    def field(fn, call: str, var: str, tag: str) -> tuple[str, str]:
        if fn is None:
            return "", f"{call}({var})"
        lines, value = expr.emit(fn.tree, var, namespace, tag)
        return "".join(f"{line}\n" for line in lines), value

    bx_lines, bx = field(b, "b", "x", "_b")
    d_lines, d = field(bd, "bd", "probe", "_p")
    dx_lines, dx = field(bd, "bd", "x", "_q") if law is Taylor1D else ("", "")
    step = _STEPS.get(law, _EULER).format(bx_lines=bx_lines, bx=bx, d_lines=d_lines, d=d,
                                          dx_lines=dx_lines, dx=dx,
                                          fd="d" if bd is not None else "float(d)")
    step += "t += h\n" + ("trace.append((t, x))\n" if trace else "")
    return _compile(namespace, "k, b, bd", "root = eps ** 0.5\nx0 = x\n", step, "x < r",
                    "x = {x!r}")


@lru_cache(maxsize=64)
def _loop_nd(law: type, planar: bool, has_jvp: bool, trace: bool, *field):
    """solve_nd's loop for one law type, state form, J b access, trace and
    field, generated and compiled once. The state is an array updated in place,
    or the float locals x1 and x2 where it is planar, with the norms inline. field
    is a planar field's b and dense when both carry trees, whose shapes are checked
    here, or an array field's rhs and jvp texts and the names of the data they read,
    which the prologue binds from b: the loop computes the field inline. It is
    empty for a field the loop calls: its b, jvp and dense arguments."""
    per_state = law in _STEPS_ND
    if planar:
        namespace = dict(linalg.TEXT_NAMES)
        if field:
            b, dense = field
            require_shapes(2, b.tree, *((dense.tree,) if per_state else ()))
            # b(x) and a per-state law's J(x) in one emission, which computes a
            # node that they share once
            trees = b.tree + (dense.tree[0] + dense.tree[1] if per_state else ())
            lines, values = expr.emit(trees, "x", namespace, "_f")
            lines += [f"{n} = {v}" for n, v in zip("b1 b2 j11 j12 j21 j22".split(), values)]
            lines = "".join(f"{line}\n" for line in lines)
        else:
            lines = "x = (x1, x2)\nb1, b2 = b(x)\n" + (
                "(j11, j12), (j21, j22) = dense(x)\n" if per_state else "")
        pair = linalg.PAIR_NORM.format
        parts = {"sn": linalg.SN_2X2, "nb": pair("b1", "b2"),
                 "jb_lines": "jb1 = j11 * b1 + j12 * b2\njb2 = j21 * b1 + j22 * b2\n",
                 "njb": pair("jb1", "jb2")}
        update = f"x1 = x1 + b1 * h\nx2 = x2 + b2 * h\nnx = {pair('x1', 'x2')}\n"
        prologue, unmoved, result = "x0 = x\nx1, x2 = x\n", "(x1, x2) == x0", "(x1, x2)"
    else:
        namespace = {"sqrt": math.sqrt, "inf": math.inf, "norm": linalg.safe_norm,
                     "linalg": linalg, "np": np}
        array_norm = linalg.ARRAY_NORM.format
        prologue = "x0 = x.copy()\nstep = np.empty_like(x)\n"
        if field:
            b_text, jvp_text, names = field
            prologue += "".join(f"{name} = b.data[{name!r}]\n" for name in names)
            lines = b_text.format(out="bx", x="x")
            parts = {"nb": array_norm("bx"), "njb": array_norm("jb"),
                     "jb_lines": jvp_text.format(out="jb", x="x", v="bx")}
        else:  # a called b(x) may be a list; J(x) b(x) from the jvp, or as dense(x) @ bx
            lines = "bx = b(x)\n"
            parts = {"nb": "norm(bx)", "jb_lines": "",
                     "njb": "norm(jvp(x, bx))" if has_jvp else "norm(dense(x) @ bx)"}
        parts["sn"] = "linalg.spectral_norm(jac, x)"
        # x + bx h with no new array; bx may alias x, so its product comes first
        update = f"np.multiply(bx, h, step)\nx += step\nnx = {array_norm('x')}\n"
        unmoved, result = "(x == x0).all()", "x"
    step = (lines + _STEPS_ND.get(law, "").format(**parts) + update + "t += h\n"
            + ("trace.append((t, nx))\n" if trace else ""))
    return _compile(namespace, "b, jac, jvp, dense, cap, N", prologue, step, "nx <= r",
                    "|x| = {nx!r}", unmoved, result)


def run_setup(problem, eps: float, law, laws: tuple):
    """The start every solver of a problem shares: the problem's validity, the
    law's type among laws, the radius and its warnings."""
    require_valid(problem)
    kind = next((c for c in laws if isinstance(law, c)), None)
    if kind is None:
        raise TypeError(f"{law!r} is not one of {', '.join(c.__name__ for c in laws)}")
    r = thresholds.radius(problem.threshold, problem, eps)
    return kind, r, thresholds.cap_warnings(r)


def _constant_step(law: StepLaw, problem, eps: float, r: float):
    """None for a per-state law, whose step is text in _STEPS or _STEPS_ND; else the
    law's constant step, from its step_size once per run, which must be positive:
    where b(r) or b'(r) overflows or eps^p underflows, the state would never move."""
    if not hasattr(law, "step_size"):
        return None
    h = law.step_size(problem, eps, r)
    if not h > 0.0:
        raise SolverError(f"constant step h = {h!r} at eps = {eps!r} and r = {r!r}: "
                          "the state cannot move")
    return h


def run_record(law, t: float, steps: int, x, r: float, eps: float, start: float,
               warnings: list, trace: list | None = None, **meta) -> RunResult:
    """Every solver's record of its run, with its wall time since start and the
    law's type in meta."""
    return RunResult(
        tau_hat=t,
        steps=steps,
        final_state=x,
        radius_used=r,
        epsilon=eps,
        wall_time=time.perf_counter() - start,
        trace=tuple(trace) if trace is not None else None,
        warnings=tuple(warnings),
        meta={"law": type(law).__name__, **meta},
    )


def solve_1d(problem: ScalarProblem, eps: float, cfg: SolverConfig | None = None) -> RunResult:
    """Estimate the 1D blow-up time by integrating to the threshold radius.

    The loop is generated for the law and the field (_loop_1d): rhs and
    rhs_deriv run inline where they carry an expression tree, as expr.compile's
    functions do, and are called each step where they do not."""
    cfg = cfg or SolverConfig()
    law = cfg.law or Adaptive1D()
    kind, r, warnings = run_setup(problem, eps, law, stepping.LAWS_1D)
    b, bd = problem.rhs, problem.rhs_deriv
    loop = _loop_1d(kind, b if hasattr(b, "tree") else None,
                    bd if hasattr(bd, "tree") else None, cfg.record_trace)
    x = float(problem.x0)
    t = 0.0
    steps = 0
    trace = [(0.0, x)] if cfg.record_trace else None

    start = time.perf_counter()
    if x < r:
        h = _constant_step(law, problem, eps, r)
        if h is None and bd(r) == math.inf:  # h = eps / sqrt(inf) = 0 once the probe is r
            raise SolverError(f"b'(r) = inf at eps = {eps!r} and r = {r!r}: the step is 0 "
                              "once the probe reaches r, so the state cannot move")
        steps, t, x = loop(x, r, eps, h, cfg.max_steps, problem.k, b, bd, trace)
        if x != x:
            raise Overflow(f"state is nan after {steps} steps below r = {r!r}")
    else:
        warnings.append(f"degenerate radius: r = {r!r} <= x0 = {x!r}; no steps taken")
    return run_record(law, t, steps, x, r, eps, start, warnings, trace)


def solve_nd(
    problem: VectorProblem,
    eps: float,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Estimate the blow-up time of a system by integrating to |x| > r(eps).

    The loop is generated for the law, the state form and the field (_loop_nd).
    A state that is not planar (dim 2 with a dense Jacobian) is one array that
    each step updates in place, so an rhs that keeps its argument must keep a
    copy. The loop writes a planar field's trees, or an array field's rhs and
    JVP texts, inline, with every norm, and calls any other field. The field's
    shapes are checked once, before the first step: a called or text field by
    one call of rhs at x0."""
    cfg = cfg or SolverConfig()
    law = cfg.law or AdaptiveND()
    kind, r, warnings = run_setup(problem, eps, law, stepping.LAWS_ND)
    jac = problem.jacobian
    # A planar state is a pair of Python floats: 2-element arrays cost more in numpy
    # call overhead than the arithmetic they carry. A field with a JVP keeps an
    # array state, as other dimensions do.
    planar = problem.dim == 2 and jac.dense is not None
    x = tuple(problem.x0.tolist()) if planar else np.array(problem.x0, dtype=float)
    norm = linalg.pair_norm if planar else linalg.safe_norm
    t = 0.0
    n = 0

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        nx = norm(x)
        trace = [(0.0, nx)] if cfg.record_trace else None
        if not nx <= r:
            warnings.append(f"degenerate radius: r = {r!r} < |x0| = {nx!r}; no steps taken")
        else:
            h = _constant_step(law, problem, eps, r)
            cap = getattr(law, "cap", None)
            rhs, field = problem.rhs, ()
            if planar and hasattr(rhs, "tree") and hasattr(jac.dense, "tree"):
                field = (rhs, jac.dense)
            elif hasattr(rhs, "text") and getattr(jac.jvp, "data", None) is rhs.data:
                field = (rhs.text, jac.jvp.text, tuple(rhs.data))  # texts on one field's data
            loop = _loop_nd(kind, planar, jac.jvp is not None, cfg.record_trace, *field)
            if not (planar and field):  # b(x), then J(x) where the law reads it
                dense = (jac.dense(x),) if kind in _STEPS_ND and jac.dense is not None else ()
                require_shapes(problem.dim, rhs(x), *dense)
            n, t, x = loop(x, r, eps, h, cfg.max_steps, rhs, jac, jac.jvp, jac.dense,
                           math.inf if cap is None else cap, getattr(law, "n", None), trace)
            nx = norm(x)
            if nx != nx:
                raise Overflow(f"|state| is nan after {n} steps below r = {r!r}")
    return run_record(law, t, n, np.array(x, dtype=float) if planar else x, r, eps, start,
                      warnings, trace, radius_rule=type(problem.threshold).__name__)


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

    if 1.0 / eps == math.inf:  # a subnormal eps, where math.ceil would raise OverflowError
        raise SolverError(f"1/eps overflows at eps = {eps!r}: no first guess of N")
    n_guess = max(1, math.ceil(1.0 / eps))
    total_steps = 0
    start = time.perf_counter()
    for outer in range(1, 41):
        run_cfg = replace(cfg, law=LogNDFixedN(n_guess))
        res = solve_nd(problem, eps, run_cfg)
        actual = res.steps
        total_steps += actual
        if actual == 0 or (actual <= n_guess <= 4 * actual):
            # the last pass's record, with the wall time and the steps of every pass
            return replace(res, wall_time=time.perf_counter() - start,
                           meta={**res.meta, "n_guess": n_guess, "outer_iterations": outer,
                                 "total_steps_all_iterations": total_steps})
        n_guess = max(1, -(-actual * actual // n_guess))
    raise FixedPointDivergence(
        f"implicit-N iteration did not settle in 40 rounds (last guess {n_guess})"
    )
