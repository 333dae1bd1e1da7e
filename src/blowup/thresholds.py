"""Truncation-radius rules r(eps) and the tail bounds they guarantee.

Each rule picks r(eps) so that the hitting time of radius r(eps) is within
O(eps) of the true blow-up time. Rules that only define r implicitly (through
b(r) = F^-1(eps) or b'(r) = eps^-1 log(eps^-1)) are solved by bracketed
bisection plus a few Newton polish steps. The R^n rules PolyND and LogND
are the field's growth bound on b(x)·x, and give r(eps) in closed form.

radius evaluates every rule's formula on one path that reads float64
overflow as +inf. A radius above the float64 range is clamped to RADIUS_CAP,
and cap_warnings gives the warning the solvers attach to such a run, since the
tail bound is then no longer <= eps. An infinite root-solve target raises
BracketFailure, and a NaN radius raises SolverError. A tolerance outside
0 < eps < inf is an InputError (require_tolerance), in every solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InputError, SolverError

# Largest radius a rule may request: finite, with float64 headroom above it
# (to about 1.8e308) for the last step of a run, which lands beyond r.
RADIUS_CAP = 1e250


class BracketFailure(SolverError):
    """No sign change found within 200 doublings/halvings of the start point."""


class NonMonotone(SolverError):
    """The sampled function decreased across the bracket."""


@dataclass(frozen=True)
class FInverse:
    """Radius solving b(r) = f_inv(eps); the classic 1D route."""

    f_inv: Callable[[float], float]


@dataclass(frozen=True)
class BPrimeLog:
    """Radius solving b'(r) = eps^-1 * log(eps^-1); 1D alternative route.

    The problem must satisfy the standing bound x <= b'(x)^C with C = 1, which
    the sampler checks; C enters the tail estimate only, never the radius.
    """


@dataclass(frozen=True)
class ExplicitRadius:
    """User-supplied closed form r(eps). ``tail_is_eps`` records whether the
    closed form was constructed so that the tail integral equals eps exactly."""

    r_of_eps: Callable[[float], float]
    tail_is_eps: bool = True


@dataclass(frozen=True)
class PolyND:
    """Polynomial growth bound c_check*|x|^(2+alpha) <= b(x)·x of an R^n field,
    which gives r(eps) = (1/(c_check*alpha*eps))^(1/alpha).

    ``nominal`` marks a working reconstruction that is not claimed to hold;
    the sampler evaluates it for information but does not count failures.
    """

    c_check: float
    alpha: float
    nominal: bool = False


@dataclass(frozen=True)
class LogND:
    """Slow growth bound c_check*|x|^2*log(|x|)^(1+alpha) <= b(x)·x (needs
    delta > 1), which gives r(eps) = exp((1/(c_check*alpha*eps))^(1/alpha))."""

    c_check: float
    alpha: float


ThresholdRule = FInverse | BPrimeLog | ExplicitRadius | PolyND | LogND


def _solve_increasing(f, fprime, start: float, target: float) -> float:
    """Solve f(x) = target for increasing f by bracket expansion + bisection.

    Brackets by geometric doubling (or halving, if f(start) already exceeds
    the target). Bisection runs to relative width 1e-12, then up to three
    Newton steps polish the root when a derivative is available.
    """
    if not (target > 0 and math.isfinite(target)):
        raise BracketFailure(f"target {target!r} is not a positive finite value")

    def probe(x):
        try:
            v = float(f(x))
        except (OverflowError, ValueError):
            return math.inf
        if math.isnan(v):
            return math.inf
        return v

    f_start = probe(start)
    lo = hi = start
    f_lo = f_hi = f_start
    if f_start < target:
        for _ in range(200):
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi = probe(hi)
            if f_hi < f_lo and math.isfinite(f_hi):
                raise NonMonotone(f"f({hi!r}) = {f_hi!r} < f({lo!r}) = {f_lo!r}")
            if f_hi >= target:
                break
        else:
            raise BracketFailure(f"no bracket above {start!r} after 200 doublings")
    elif f_start > target:
        for _ in range(200):
            hi, f_hi = lo, f_lo
            lo *= 0.5
            f_lo = probe(lo)
            if math.isfinite(f_lo) and f_lo > f_hi:
                raise NonMonotone(f"f({lo!r}) = {f_lo!r} > f({hi!r}) = {f_hi!r}")
            if f_lo <= target:
                break
        else:
            raise BracketFailure(f"no bracket below {start!r} after 200 halvings")
    else:
        return start

    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if probe(mid) < target:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    if fprime is not None:
        for _ in range(3):
            try:
                d = float(fprime(x))
            except (OverflowError, ValueError):
                break
            if not math.isfinite(d) or d <= 0:
                break
            fx = probe(x)
            if not math.isfinite(fx):
                break
            step = (fx - target) / d
            nxt = x - step
            if not math.isfinite(nxt) or nxt < 0.5 * lo or nxt > 2.0 * hi:
                break
            x = nxt
    return x


def require_tolerance(epsilon: float) -> None:
    """Raise InputError unless 0 < epsilon < inf, the tolerances every solver runs."""
    if not 0.0 < epsilon < math.inf:
        raise InputError(f"eps must satisfy 0 < eps < inf, got {epsilon!r}")


def cap_warnings(r: float) -> list[str]:
    """The run warning for a radius clamped to RADIUS_CAP, if r is one."""
    if r >= RADIUS_CAP:
        return [
            f"radius capped at {RADIUS_CAP:g} (float64 range); tail bound is no longer <= eps"
        ]
    return []


def radius(rule: ThresholdRule, problem, epsilon: float) -> float:
    """Truncation radius r(eps) for the given rule; clamped to RADIUS_CAP. The formula
    gives r itself, or for FInverse and BPrimeLog the target of a root solve."""
    require_tolerance(epsilon)
    try:
        if isinstance(rule, FInverse):
            value = float(rule.f_inv(epsilon))
        elif isinstance(rule, BPrimeLog):
            value = math.log(1.0 / epsilon) / epsilon
        elif isinstance(rule, ExplicitRadius):
            value = float(rule.r_of_eps(epsilon))
        elif isinstance(rule, PolyND):
            value = (1.0 / (rule.c_check * rule.alpha * epsilon)) ** (1.0 / rule.alpha)
        elif isinstance(rule, LogND):
            value = math.exp((1.0 / (rule.c_check * rule.alpha * epsilon)) ** (1.0 / rule.alpha))
        else:
            raise TypeError(f"unknown threshold rule {rule!r}")
    except OverflowError:
        value = math.inf
    if isinstance(rule, FInverse):
        value = _solve_increasing(problem.rhs, problem.rhs_deriv, problem.x0, value)
    elif isinstance(rule, BPrimeLog):
        value = _solve_increasing(problem.rhs_deriv, problem.rhs_second, problem.x0, value)
    elif math.isnan(value):
        raise SolverError(f"{type(rule).__name__} gives radius nan at eps = {epsilon!r}")
    return value if value < RADIUS_CAP else RADIUS_CAP


def tau_tail_bound(rule: ThresholdRule, problem, epsilon: float) -> float:
    """Analytic bound on |tau - tau_r(eps)| implied by the rule.

    The capped-radius regime is NOT reflected here: this is the uncapped
    design bound (eps for all rules except BPrimeLog, whose construction gives
    (C+1)*log(b'(r))/b'(r) with C = 1). Returns NaN for explicit radii with
    unknown tail.
    """
    require_tolerance(epsilon)
    if isinstance(rule, (FInverse, PolyND, LogND)):
        return epsilon
    if isinstance(rule, ExplicitRadius):
        return epsilon if rule.tail_is_eps else math.nan
    if isinstance(rule, BPrimeLog):
        r = radius(rule, problem, epsilon)
        bp = float(problem.rhs_deriv(r))
        if bp <= 0:
            return math.nan
        return 2.0 * math.log(bp) / bp
    raise TypeError(f"unknown threshold rule {rule!r}")
