"""Step-size laws, one frozen dataclass each.

The R^n laws and Uniform1D have ``step_size(problem, eps, r)``, which gives the
step the solvers take: h(x, bx) with bx = b(x) for the adaptive R^n laws, or a
plain float for the constant-step laws. solve_nd calls it once per run, and
solve_1d calls Uniform1D's once. The two per-state 1D laws, Adaptive1D and
Taylor1D, have no step_size: solve_1d computes their steps in its loop, since a
call per step costs 20-30%. LogNDImplicitN has none either: solve_log_nd
resolves its step count N by running LogNDFixedN passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from . import linalg
from .errors import SolverError


class NonpositiveDerivative(SolverError):
    """b' was <= 0 at the probe point; the 1D laws need b' > 0."""


class NonincreasingField(SolverError):
    """b(r) is not above b(x0), or one is NaN; Uniform1D needs b to grow to r."""


@dataclass(frozen=True)
class Adaptive1D:
    """h = eps / sqrt(b'(min(k*x, r))); solve_1d computes it."""


@dataclass(frozen=True)
class Taylor1D:
    """Second-order Taylor update with h = eps^(1/2) / b'(min(k*x, r))^(2/3);
    solve_1d computes it."""


@dataclass(frozen=True)
class Uniform1D:
    """Constant h = min(eps/log(b(r)/b(x0)), 1/(2 b'(r)))."""

    def step_size(self, problem, eps: float, r: float) -> float:
        x0 = float(problem.x0)
        br, b0 = float(problem.rhs(r)), float(problem.rhs(x0))
        if not br > b0:
            raise NonincreasingField(
                f"need b(r) > b(x0), got b({r!r}) = {br!r}, b({x0!r}) = {b0!r}")
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
class LogNDFixedN:
    """h = sqrt(eps / (N * max(1, ||b'(x)||))) for a given step count N >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"LogNDFixedN needs n >= 1, got {self.n!r}")

    def step_size(self, problem, eps: float, r: float):
        jac, dim, n, sqrt = problem.jacobian, problem.dim, self.n, math.sqrt

        def h(x, bx):
            sn = linalg.spectral_norm(jac, x, dim)
            return sqrt(eps / (n * (sn if sn > 1.0 else 1.0)))
        return h


@dataclass(frozen=True)
class LogNDImplicitN:
    """The LogNDFixedN law with N the run's own step count, found by the outer
    fixed-point iteration of integrate.solve_log_nd; solve_nd does not take it."""


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
LAWS_ND = (AdaptiveND, AltND, LogNDFixedN, UniformND, PowerUniformND)

StepLaw = Union[LAWS_1D + LAWS_ND + (LogNDImplicitN,)]
