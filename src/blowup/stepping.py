"""Step-size laws, one frozen dataclass each, holding the law's data.

A law whose step is a formula of the state (Adaptive1D, Taylor1D, AdaptiveND,
AltND, LogNDFixedN) is step text in integrate's step tables, from which
solve_1d and solve_nd generate their loops, since a call per step costs 20-30%.
A constant-step law (Uniform1D, UniformND, PowerUniformND) has
``step_size(problem, eps, r)``, which the solvers call once per run.
LogNDImplicitN has neither: solve_log_nd resolves its step count N by running
LogNDFixedN passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError, SolverError


class NonpositiveDerivative(SolverError):
    """b' was <= 0 at the probe point; the 1D laws need b' > 0."""


class NonincreasingField(SolverError):
    """b(r) is not above b(x0), or one is NaN; Uniform1D needs b to grow to r."""


def _require_positive_cap(law) -> None:
    """A step cap is None or above 0, inf included: a cap of 0 holds the state
    still, a negative one runs it backwards, and a NaN one clips nothing."""
    if law.cap is not None and not law.cap > 0.0:
        raise InputError(f"{type(law).__name__} needs cap > 0 or None, got {law.cap!r}")


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
    """h = eps / sqrt(max(||b'(x)||, 1)); solve_nd computes it."""


@dataclass(frozen=True)
class AltND:
    """h = eps * sqrt(|b(x)|) / sqrt(|b'(x) b(x)|); avoids spectral norms.

    Where b'(x) b(x) = 0 the law has no scale and the AdaptiveND step is taken.
    ``cap`` optionally clips h, e.g. to the CFL-type 1/(2 m^2) of the
    reaction-diffusion grid. solve_nd computes it.
    """

    cap: Optional[float] = None

    def __post_init__(self):
        _require_positive_cap(self)


@dataclass(frozen=True)
class LogNDFixedN:
    """h = sqrt(eps / (N * max(1, ||b'(x)||))) for a given step count N >= 1;
    solve_nd computes it."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"LogNDFixedN needs n >= 1, got {self.n!r}")


@dataclass(frozen=True)
class LogNDImplicitN:
    """The LogNDFixedN law with N the run's own step count, found by the outer
    fixed-point iteration of integrate.solve_log_nd, which predicts the next
    guess as ceil(N_actual^2 / G) from a pass run with guess G; solve_nd does
    not take it."""


@dataclass(frozen=True)
class UniformND:
    """Constant h = eps / log(r), optionally clipped to a stability cap; needs
    r > e so the step stays positive and sane, and raises SolverError at an eps
    whose radius is not."""

    cap: Optional[float] = None

    def __post_init__(self):
        _require_positive_cap(self)

    def step_size(self, problem, eps: float, r: float) -> float:
        if not r > math.e:
            raise SolverError(f"uniform n-d law needs r > e, got {r!r} at eps = {eps!r}")
        h = eps / math.log(r)
        return h if self.cap is None else min(h, self.cap)


@dataclass(frozen=True)
class PowerUniformND:
    """Constant h = eps^exponent (used where the cost analysis gives eps^(gamma/alpha))."""

    exponent: float

    def __post_init__(self):
        # eps^p shrinks with eps only for p > 0; NaN fails this test too
        if not self.exponent > 0.0:
            raise InputError(f"PowerUniformND needs exponent > 0, got {self.exponent!r}")

    def step_size(self, problem, eps: float, r: float) -> float:
        return eps ** self.exponent


LAWS_1D = (Adaptive1D, Taylor1D, Uniform1D)
LAWS_ND = (AdaptiveND, AltND, LogNDFixedN, UniformND, PowerUniformND)

StepLaw = Union[LAWS_1D + LAWS_ND + (LogNDImplicitN,)]
