"""Comparison methods: arc-length RK5(4) integration and 1D threshold rescaling.

The arc-length method rewrites x' = b(x) as an augmented system in the
trajectory arc length s,

    d(x, t)/ds = (b(x), 1) / sqrt(1 + |b(x)|^2),

whose right-hand side has unit norm, so the system stays benign up to the
blow-up. It is integrated with an embedded Dormand-Prince 5(4) pair and
standard local-error step control, stopping at the first accepted step whose
state norm reaches the threshold radius r(eps).

The rescaling method applies only to pure power laws b(x) = x^p: whenever the
solution reaches a threshold M, the next cycle restarts from exactly 1 (the
unscaled solution at M^j, divided by M^j), which maps the problem onto itself
with time rescaled by M^(1-p). The restart drops the last step's overshoot
past M. Cycles repeat until the remaining exact tail is below eps/2; that tail,
which lies in [eps/(2*M^(p-1)), eps/2), is left out of the estimate.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import thresholds
from .errors import InputError, SolverError
from .integrate import DEGENERATE, SolverConfig, StepBudgetExceeded, run_record, run_setup
from .linalg import safe_norm
from .problems import RunResult, ScalarProblem, VectorProblem, require_shapes


class MinStepUnderflow(SolverError):
    """The arc-length controller pushed the step below 1e-300."""


class InvalidParameter(InputError):
    """A baseline's p, M, x0 or rk_tol is outside the range its method runs on."""


@dataclass(frozen=True)
class ArcLength:
    """solve_arclength as a method of a catalog entry's table."""


@dataclass(frozen=True)
class Rescaling:
    """solve_rescaling_1d for b(x) = x^power as a method of a catalog entry's table."""

    power: float


# Dormand-Prince 5(4) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_STAGES = 7

_SAFETY = 0.9
_ORDER_EXP = 0.2
_FAC_MIN = 0.2
_FAC_MAX = 5.0


def _arc_rhs(rhs, y):
    """Unit-speed augmented field d(x, t)/ds."""
    x = y[:-1]
    bx = np.asarray(rhs(x), dtype=float)
    speed = math.hypot(1.0, safe_norm(bx))
    out = np.empty(y.shape[0])
    out[:-1] = bx / speed
    out[-1] = 1.0 / speed
    return out


def solve_arclength(
    problem: ScalarProblem | VectorProblem,
    eps: float,
    rk_tol: float,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Arc-length RK5(4) blow-up estimate; cost is counted in stage evaluations."""
    if not 0 < rk_tol < math.inf:  # rk_tol = inf would switch off error control
        raise InvalidParameter(f"rk_tol must be positive and finite, got {rk_tol!r}")
    cfg = cfg or SolverConfig()
    law = ArcLength()
    _, r, warnings = run_setup(problem, eps, law, (ArcLength,))

    scalar = isinstance(problem, ScalarProblem)
    if scalar:
        y = np.array([float(problem.x0), 0.0])
        rhs = lambda x: np.array([problem.rhs(float(x[0]))])
    else:
        y = np.concatenate([np.asarray(problem.x0, dtype=float), [0.0]])
        rhs = problem.rhs

    n_evals = 0
    attempts = 0
    ks = [None] * _STAGES

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.01 * (1.0 + safe_norm(y))
        state_norm = safe_norm(y[:-1])
        if not state_norm < r:
            warnings.append(DEGENERATE.format(r, "<=", "|x0|", state_norm))
        elif not scalar:  # once, where the first stage reads b(x0)
            require_shapes(problem.dim, rhs(y[:-1]))
        while state_norm < r:
            if attempts >= cfg.max_steps:
                raise StepBudgetExceeded(f"exceeded {cfg.max_steps} attempted RK steps")
            if h < 1e-300:
                raise MinStepUnderflow(f"arc-length step underflow: h = {h!r}")
            attempts += 1
            for i in range(_STAGES):
                yi = y
                if i:
                    acc = _A[i][0] * ks[0]
                    for j in range(1, i):
                        aij = _A[i][j]
                        if aij:
                            acc = acc + aij * ks[j]
                    yi = y + h * acc
                ks[i] = _arc_rhs(rhs, yi)
            n_evals += _STAGES

            y5 = y + h * sum(b * k for b, k in zip(_B5, ks) if b)
            y4 = y + h * sum(b * k for b, k in zip(_B4, ks) if b)
            scale = rk_tol + rk_tol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))

            if err <= 1.0:
                y = y5
                state_norm = safe_norm(y[:-1])
            factor = _FAC_MAX if err == 0.0 else min(
                _FAC_MAX, max(_FAC_MIN, _SAFETY * err ** -_ORDER_EXP)
            )
            h *= factor
    return run_record(law, float(y[-1]), n_evals, float(y[0]) if scalar else y[:-1], r, eps,
                      start, warnings, rk_tol=rk_tol, attempts=attempts)


def solve_rescaling_1d(
    p_exponent: float, x0: float, M: float, eps: float, cfg: SolverConfig | None = None
) -> RunResult:
    """Threshold-rescaling estimate for x' = x^p, x(0) = x0, with threshold M.

    Cycle j integrates y' = y^p from y = x0 (j = 0) or exactly y = 1 (j > 0; the
    overshoot past M is dropped) to y >= M with a uniform Euler step,
    contributing M^((1-p)j) * T_j of physical time. Cycles stop once the exact
    remaining tail M^((1-p)j)/(p-1) drops below eps/2. That tail, in
    [eps/(2*M^(p-1)), eps/2) for eps <= 2/(p-1), is not added to tau_hat, so
    tau_hat falls short of the blow-up time by it on top of the Euler error.
    Each cycle takes at least one step, and cycle 0 at least a quarter of its
    exact time over h, so a cycle estimate or cycle-0 bound above cfg.max_steps
    raises StepBudgetExceeded up front, as does a run that needs more steps.
    """
    if not p_exponent > 1:
        raise InvalidParameter(f"need p > 1, got {p_exponent!r}")
    if not 1 < M < math.inf:  # M = inf would make the step h zero
        raise InvalidParameter(f"need 1 < M < inf, got M = {M!r}")
    if p_exponent * math.log(M) >= math.log(sys.float_info.max):
        raise InvalidParameter(f"M^p overflows float64 for M = {M!r}, p = {p_exponent!r}")
    if not 0 < x0 < M:
        raise InvalidParameter(f"need 0 < x0 < M, got x0 = {x0!r}")
    thresholds.require_tolerance(eps)
    max_steps = (cfg or SolverConfig()).max_steps

    p = p_exponent
    log_m = math.log(M)
    estimate = math.log(2.0 / ((p - 1.0) * eps)) / ((p - 1.0) * log_m)
    if estimate > max_steps:  # inf at a subnormal eps, where 2 / ((p - 1) eps) overflows
        raise StepBudgetExceeded(f"about {estimate:.3g} cycles exceed {max_steps} steps")
    j_est = max(1, math.ceil(estimate))
    h = eps / (2.0 * j_est * log_m)
    # Cycle 0's exact time over h bounds its steps from below: Euler lags the convex
    # solution, and rounding to nearest at most doubles a step's increment; 4h keeps
    # a margin over 2h for the rounding of y^p h.
    try:
        n0 = (x0 ** (1.0 - p) - M ** (1.0 - p)) / ((p - 1.0) * 4.0 * h)
    except OverflowError:  # x0^(1-p) is past float64
        n0 = math.inf
    if n0 > max_steps:
        raise StepBudgetExceeded(f"cycle 0 takes at least {n0:.3g} steps of h = {h!r}, "
                                 f"over {max_steps}")

    tau = 0.0
    steps = 0
    cycle_times: list[float] = []
    y = x0
    start = time.perf_counter()
    j = 0
    while True:
        y = x0 if j == 0 else 1.0
        t_cycle = 0.0
        for n in range(max_steps - steps):  # y < M here: each cycle takes a step
            y += (y**p) * h
            t_cycle += h
            if not y < M:
                break
        else:
            raise StepBudgetExceeded(f"exceeded {max_steps} steps in cycle {j}")
        steps += n + 1
        tau += M ** ((1.0 - p) * j) * t_cycle
        cycle_times.append(t_cycle)
        j += 1
        # after cycle j-1 the unscaled solution sits at M^j; exact remaining tail:
        if M ** ((1.0 - p) * j) / (p - 1.0) < eps / 2.0:
            break
    return run_record(Rescaling(p), tau, steps, y, M, eps, start, [], cycles=j,
                      cycle_times=tuple(cycle_times), h_cycle=h, cycles_estimate=j_est)
