"""Step-size laws, one frozen dataclass each.

A law's ``step_size(problem, eps, r)`` gives the step the solvers take:
a function h(x) of the state for the adaptive 1D laws, h(x, bx) with
bx = b(x) for the adaptive R^n laws, or a plain float for the constant-step
laws. solve_nd calls it once per run. solve_1d does the same for Uniform1D but
inlines the Adaptive1D and Taylor1D formulas in its loop, since a call per
step costs 20-30%; the tests check that the inlined steps equal step_size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from . import linalg
from .errors import SolverError


class NonpositiveDerivative(SolverError):
    """b' was <= 0 at the probe point; the 1D laws need b' > 0."""


def _probe_deriv(bd, k: float, x: float, r: float) -> float:
    """b'(min(k*x, r)), which the adaptive 1D laws need positive."""
    probe = min(k * x, r)
    d = float(bd(probe))
    if d <= 0.0:
        raise NonpositiveDerivative(f"b'({probe!r}) = {d!r}")
    return d


@dataclass(frozen=True)
class Adaptive1D:
    """h = eps / sqrt(b'(min(k*x, r)))."""

    def step_size(self, problem, eps: float, r: float):
        bd, k, sqrt = problem.rhs_deriv, problem.k, math.sqrt

        def h(x):
            return eps / sqrt(_probe_deriv(bd, k, x, r))
        return h


@dataclass(frozen=True)
class Taylor1D:
    """Second (and in principle higher) order Taylor update with
    h = eps^(1/m) / b'(min(k*x, r))^(m/(m+1))."""

    m_bar: int = 2

    def __post_init__(self):
        if self.m_bar < 2:
            raise ValueError("m_bar must be >= 2")

    def step_size(self, problem, eps: float, r: float):
        bd, k = problem.rhs_deriv, problem.k
        root, power = eps ** (1.0 / self.m_bar), self.m_bar / (self.m_bar + 1.0)

        def h(x):
            return root / _probe_deriv(bd, k, x, r) ** power
        return h


@dataclass(frozen=True)
class Uniform1D:
    """Constant h = min(eps/log(b(r)/b(x0)), 1/(2 b'(r)))."""

    def step_size(self, problem, eps: float, r: float) -> float:
        x0 = float(problem.x0)
        br, b0 = float(problem.rhs(r)), float(problem.rhs(x0))
        if not br > b0:
            raise ValueError(f"need b(r) > b(x0), got b({r!r}) = {br!r}, b({x0!r}) = {b0!r}")
        h_bar = eps / math.log(br / b0)
        d = float(problem.rhs_deriv(r))
        if d <= 0.0:
            raise NonpositiveDerivative(f"b'({r!r}) = {d!r}")
        return min(h_bar, 1.0 / (2.0 * d))


@dataclass(frozen=True)
class AdaptiveND:
    """h = eps / sqrt(max(||b'(x)||, 1))."""

    def step_size(self, problem, eps: float, r: float):
        jac, dim, sqrt = problem.jacobian, problem.dim, math.sqrt

        def h(x, bx):
            # looked up on the module at each call, so a patched spectral_norm is seen
            sn = linalg.spectral_norm(jac, x, dim)
            return eps / sqrt(sn if sn > 1.0 else 1.0)
        return h


@dataclass(frozen=True)
class AltND:
    """h = eps * sqrt(|b(x)|) / sqrt(|b'(x) b(x)|); avoids spectral norms.

    Where b'(x) b(x) = 0 the law has no scale and the AdaptiveND step is taken.
    ``cap`` optionally clips h, e.g. to the CFL-type 1/(2 m^2) of the
    reaction-diffusion grid.
    """

    cap: Optional[float] = None

    def step_size(self, problem, eps: float, r: float):
        jac, cap = problem.jacobian, self.cap
        jvp, dense = jac.jvp, jac.dense
        adaptive = AdaptiveND().step_size(problem, eps, r)
        norm, sqrt = linalg.safe_norm, math.sqrt

        def h(x, bx):
            jn = norm(jvp(x, bx) if jvp is not None else dense(x) @ bx)
            step = adaptive(x, bx) if jn <= 0.0 else eps * sqrt(norm(bx)) / sqrt(jn)
            return cap if cap is not None and step > cap else step
        return h


@dataclass(frozen=True)
class LogNDImplicitN:
    """h = sqrt(eps / (N * max(1, ||b'(x)||))); N resolved by an outer
    fixed-point iteration when n_guess == 0 (see integrate.solve_log_nd)."""

    n_guess: int = 0

    def step_size(self, problem, eps: float, r: float):
        if self.n_guess < 1:
            raise ValueError("LogNDImplicitN needs n_guess >= 1 here; use solve_log_nd")
        jac, dim, n_guess, sqrt = problem.jacobian, problem.dim, self.n_guess, math.sqrt

        def h(x, bx):
            sn = linalg.spectral_norm(jac, x, dim)
            return sqrt(eps / (n_guess * (sn if sn > 1.0 else 1.0)))
        return h


@dataclass(frozen=True)
class UniformND:
    """Constant h = eps / log(r), optionally clipped to a stability cap; needs
    r > e so the step stays positive and sane."""

    cap: Optional[float] = None

    def step_size(self, problem, eps: float, r: float) -> float:
        if not r > math.e:
            raise ValueError(f"uniform n-d law needs r > e, got {r!r}")
        h = eps / math.log(r)
        return h if self.cap is None else min(h, self.cap)


@dataclass(frozen=True)
class PowerUniformND:
    """Constant h = eps^exponent (used where the cost analysis gives eps^(gamma/alpha))."""

    exponent: float

    def step_size(self, problem, eps: float, r: float) -> float:
        return eps ** self.exponent


LAWS_1D = (Adaptive1D, Taylor1D, Uniform1D)
LAWS_ND = (AdaptiveND, AltND, LogNDImplicitN, UniformND, PowerUniformND)

StepLaw = Union[LAWS_1D + LAWS_ND]
