"""Built-in experiment problems with their constants, thresholds and references.

Entry ids double as the CLI's --problem vocabulary. "xlog_c" and "slowlog_c"
take the exponent c as a parameter; "rd" takes the grid refinement m; the
other ids take none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .baselines import ArcLength, Rescaling
from .errors import BlowupError
from .linalg import JacobianAccess
from .problems import ScalarProblem, VectorProblem
from .stepping import (
    Adaptive1D,
    AdaptiveND,
    AltND,
    LogNDImplicitN,
    PowerUniformND,
    Taylor1D,
    Uniform1D,
    UniformND,
)
from .thresholds import BPrimeLog, ExplicitRadius, FInverse, LogND, PolyND


class UnknownId(BlowupError):
    """No catalog entry under that id and parameters."""


@dataclass(frozen=True)
class Exact:
    value: float


@dataclass(frozen=True)
class Pseudo:
    """Reference is a pseudo solution: the adaptive method run at eps_ref.
    eps_ref None means "the finest epsilon of the study at hand"."""

    eps_ref: Optional[float]


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    problem: ScalarProblem | VectorProblem
    methods: Mapping[str, object]
    reference: Exact | Pseudo | None  # None: no reference, as for an --expr problem
    notes: str = ""


# The method table of every 1D entry and of an --expr problem.
SCALAR_METHODS = {"adaptive": Adaptive1D(), "taylor2": Taylor1D(), "uniform": Uniform1D(),
                  "arclength": ArcLength()}


def list_ids() -> tuple[str, ...]:
    return IDS


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pow(v: float, k: int) -> float:
    """v ** k for an integer k >= 1, with overflow to +-inf as numpy gives it
    (Python's float ** raises OverflowError)."""
    try:
        return v ** k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


@lru_cache(maxsize=None)
def _sq() -> CatalogEntry:
    problem = ScalarProblem(
        rhs=lambda x: x * x,
        rhs_deriv=lambda x: 2.0 * x,
        x0=0.5,
        k=1.1,
        threshold=FInverse(lambda e: e ** -2.0),
    )
    return CatalogEntry(
        id="sq",
        problem=problem,
        methods={**SCALAR_METHODS, "rescaling": Rescaling(2.0)},
        reference=Exact(2.0),
        notes="b = x^2 from x0 = 1/2; tau = 2; radius solves b(r) = eps^-2, i.e. r = 1/eps",
    )


@lru_cache(maxsize=None)
def _expsq() -> CatalogEntry:
    problem = ScalarProblem(
        rhs=lambda x: _exp(x * x),
        rhs_deriv=lambda x: 2.0 * x * _exp(x * x),
        rhs_second=lambda x: (2.0 + 4.0 * x * x) * _exp(x * x),
        x0=1.0,
        k=1.1,
        threshold=BPrimeLog(),
    )
    return CatalogEntry(
        id="expsq",
        problem=problem,
        methods=SCALAR_METHODS,
        reference=Pseudo(2.0**-33),
        notes=(
            "b = exp(x^2) from x0 = 1; no closed-form tau. The published protocol "
            "uses eps_ref = 2^-33 (~1e10 steps); desk-scale studies substitute a "
            "coarser eps_ref and must say so. C = 1 in the tail bound since "
            "b'(x) = 2x exp(x^2) >= x on [1, inf)."
        ),
    )


@lru_cache(maxsize=None)
def _xlog(c: float) -> CatalogEntry:
    if not c > 0:
        raise UnknownId(f"xlog_c needs c > 0, got {c!r}")

    def rhs(x):
        return x * math.log(x) ** (1.0 + c)

    def rhs_deriv(x):
        lx = math.log(x)
        return lx ** (1.0 + c) + (1.0 + c) * lx**c

    problem = ScalarProblem(
        rhs=rhs,
        rhs_deriv=rhs_deriv,
        x0=2.0,
        k=1.1,
        threshold=ExplicitRadius(lambda e: _exp((c * e) ** (-1.0 / c)), tail_is_eps=True),
    )
    return CatalogEntry(
        id="xlog_c",
        problem=problem,
        methods=SCALAR_METHODS,
        reference=Exact(1.0 / (c * math.log(2.0) ** c)),
        notes=(
            f"b = x log(x)^(1+c) with c = {c}; tau = 1/(c log(2)^c). The closed-form "
            "radius exp((c*eps)^(-1/c)) leaves float64 range quickly for small c*eps; "
            "runs then integrate to the capped radius and carry a warning."
        ),
    )


@lru_cache(maxsize=None)
def _uncoupled() -> CatalogEntry:
    def rhs(x):
        x1, x2 = x
        return (_pow(x1, 3), _pow(x2, 5))

    def jac(x):
        x1, x2 = x
        return ((3.0 * _pow(x1, 2), 0.0), (0.0, 5.0 * _pow(x2, 4)))

    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=JacobianAccess.from_dense(jac),
        # b.x = x1^4 + x2^6 >= 0.5*|x|^4 on |x| >= sqrt(3) (minimum ~0.5488 on the
        # boundary circle), so c_check = 0.5 is an honest constant; 1.0 is not.
        threshold=PolyND(c_check=0.5, alpha=2.0),
        delta=math.sqrt(3.0) * (1.0 - 1e-9),
        x0=np.array([math.sqrt(2.0), 1.0]),
    )
    return CatalogEntry(
        id="uncoupled",
        problem=problem,
        methods={
            "adaptive": AdaptiveND(),
            "alt": AltND(),
            "uniform": PowerUniformND(2.0),  # h = eps^(gamma/alpha) = eps^2
            "log-uniform": UniformND(),
            "arclength": ArcLength(),
        },
        reference=Exact(0.25),
        notes="b = (x1^3, x2^5) from (sqrt(2), 1); both components explode at tau = 1/4",
    )


@lru_cache(maxsize=None)
def _coupled() -> CatalogEntry:
    def rhs(x):
        x1, x2 = x
        s = x1 * x1 + x2 * x2
        return (x1 * s, x2 * s)

    def jac(x):
        x1, x2 = x
        return (
            (3.0 * x1 * x1 + x2 * x2, 2.0 * x1 * x2),
            (2.0 * x1 * x2, x1 * x1 + 3.0 * x2 * x2),
        )

    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=JacobianAccess.from_dense(jac),
        threshold=PolyND(c_check=1.0, alpha=2.0),  # b.x = |x|^4 exactly
        delta=math.sqrt(5.0) * (1.0 - 1e-9),
        x0=np.array([1.0, 2.0]),
    )
    return CatalogEntry(
        id="coupled",
        problem=problem,
        methods={
            "adaptive": AdaptiveND(),
            "alt": AltND(),
            "uniform": UniformND(),  # the log-uniform law IS this example's uniform
            "log-uniform": UniformND(),
            "arclength": ArcLength(),
        },
        reference=Pseudo(2.0**-27),
        notes=(
            "b = (x1^3 + x1 x2^2, x2^3 + x1^2 x2) from (1, 2); errors are measured "
            "against a pseudo solution per the published protocol (the field happens "
            "to be |x|^2 x, so tau = 1/(2|x0|^2) = 0.1 serves as an extra sanity check)"
        ),
    )


def _log_weighted(a_coef: float, b_coef: float, x1: float, x2: float) -> float:
    """log(a*x1^2 + b*x2^2), stable for components near the float64 ceiling."""
    m = max(abs(x1), abs(x2))
    u1 = x1 / m
    u2 = x2 / m
    return 2.0 * math.log(m) + math.log(a_coef * u1 * u1 + b_coef * u2 * u2)


@lru_cache(maxsize=None)
def _slowlog(c: float) -> CatalogEntry:
    if not c > 0:
        raise UnknownId(f"slowlog_c needs c > 0, got {c!r}")
    one_c = 1.0 + c

    def rhs(x):
        x1, x2 = x
        l1 = _log_weighted(1.0, 2.0, x1, x2)
        l2 = _log_weighted(2.0, 1.0, x1, x2)
        return (x1 * l1**one_c, x2 * l2**one_c)

    def jac(x):
        x1, x2 = x
        m = max(abs(x1), abs(x2))
        u1, u2 = x1 / m, x2 / m
        l1 = _log_weighted(1.0, 2.0, x1, x2)
        l2 = _log_weighted(2.0, 1.0, x1, x2)
        q1 = u1 * u1 + 2.0 * u2 * u2
        q2 = 2.0 * u1 * u1 + u2 * u2
        return (
            (l1**one_c + one_c * l1**c * (2.0 * u1 * u1 / q1),
             one_c * l1**c * (4.0 * u1 * u2 / q1)),
            (one_c * l2**c * (4.0 * u1 * u2 / q2),
             l2**one_c + one_c * l2**c * (2.0 * u2 * u2 / q2)),
        )

    # l_i >= log(x1^2 + x2^2) = 2 log|x| > 0 on |x| > delta, so b.x >= 2^(1+c) |x|^2
    # log(|x|)^(1+c), with equality on the axes; round that best constant down.
    c_check = math.floor(10.0 * 2.0 ** one_c) / 10.0
    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=JacobianAccess.from_dense(jac),
        threshold=LogND(c_check=c_check, alpha=c),
        delta=5.0 * (1.0 - 1e-9),
        x0=np.array([4.0, 3.0]),
    )
    return CatalogEntry(
        id="slowlog_c",
        problem=problem,
        methods={
            "adaptive": LogNDImplicitN(),  # resolved by the implicit-N outer loop
            "uniform": UniformND(),
            "log-uniform": UniformND(),
            "arclength": ArcLength(),
        },
        reference=Pseudo(2.0**-17),
        notes=(
            f"slow log-growth field with c = {c}; c_check = {c_check} is the exact "
            "constant 2^(1+c) rounded down one decimal. The slow-growth "
            "radius exp((1/(c_check*alpha*eps))^(1/alpha)) exceeds float64 range for "
            "small eps; runs then integrate to the capped radius (warning attached)."
        ),
    )


@lru_cache(maxsize=None)
def build_reaction_diffusion(m: int) -> VectorProblem:
    """Method-of-lines discretisation of u_t = u_xx + u^2 on (0,1) with zero
    boundary values and u(x, 0) = 100 sin(pi x), on the grid k/m, k = 1..m-1."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    m2 = float(m * m)
    n = m - 1

    # One correlate call gives (v[i-1] - 2 v[i]) + v[i+1], summed left to right
    # with exact products, so it equals the padded three-slice stencil bit for
    # bit. "full"[1:-1] rather than "same": for n < 3 numpy swaps the operands.
    stencil = np.array([1.0, -2.0, 1.0])

    def rhs(x):
        out = np.correlate(x, stencil, "full")[1:-1]
        out *= m2
        out += x * x
        return out

    def jvp(x, v):
        out = np.correlate(v, stencil, "full")[1:-1]
        out *= m2
        out += 2.0 * x * v
        return out

    if n == 2:  # solve_nd carries a planar state as a float pair; the kernels need arrays
        array_rhs, array_jvp = rhs, jvp

        def rhs(x):
            return array_rhs(np.asarray(x, dtype=float))

        def jvp(x, v):
            return array_jvp(np.asarray(x, dtype=float), v)

    x0 = 100.0 * np.sin(np.pi * np.arange(1, m) / m)
    return VectorProblem(
        dim=n,
        rhs=rhs,
        jacobian=JacobianAccess.matrix_free(jvp),
        # Working reconstruction: the growth bound is not claimed to hold for this
        # field (the diffusion term breaks it near the initial profile); it exists
        # to make r(eps) = 1/eps computable. Sampler treats it as nominal.
        threshold=PolyND(c_check=1.0, alpha=1.0, nominal=True),
        delta=1.0,
        x0=x0,
    )


@lru_cache(maxsize=None)
def _rd(m: int) -> CatalogEntry:
    if m < 2:
        raise UnknownId(f"rd needs m >= 2, got {m!r}")
    problem = build_reaction_diffusion(m)
    cap = 1.0 / (2.0 * m * m)
    return CatalogEntry(
        id="rd",
        problem=problem,
        methods={
            "adaptive": AltND(cap=cap),
            "alt": AltND(),
            "uniform": UniformND(cap=cap),  # reconstructed: min(eps/log r, 1/(2 m^2))
            "arclength": ArcLength(),
        },
        reference=Pseudo(None),
        notes=(
            f"semi-discretised reaction-diffusion system, m = {m} (dimension {m - 1}); "
            "reference is the finest adaptive run of the study at hand"
        ),
    )


# id -> (builder, {the parameter the id takes: its default}, or {} for none)
_BUILDERS = {
    "sq": (_sq, {}),
    "expsq": (_expsq, {}),
    "xlog_c": (_xlog, {"c": 0.5}),
    "uncoupled": (_uncoupled, {}),
    "coupled": (_coupled, {}),
    "slowlog_c": (_slowlog, {"c": 0.5}),
    "rd": (_rd, {"m": 32}),
}
IDS = tuple(_BUILDERS)


def get(id: str, c: float | None = None, m: int | None = None) -> CatalogEntry:
    """Look up a catalog entry; xlog_c/slowlog_c take c (default 0.5), rd takes
    m (default 32). None stands for the default; a c or m that the id does not
    take raises UnknownId."""
    if id not in _BUILDERS:
        raise UnknownId(f"unknown problem id {id!r}; known: {', '.join(IDS)}")
    build, params = _BUILDERS[id]
    given = {name: v for name, v in (("c", c), ("m", m)) if v is not None}
    extra = sorted(given.keys() - params.keys())
    if extra:
        raise UnknownId(f"problem {id!r} takes no parameter {extra[0]}")
    return build(*(type(default)(given.get(name, default)) for name, default in params.items()))
