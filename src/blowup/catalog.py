"""Built-in experiment problems with their constants, thresholds and references.

Entry ids double as the CLI's --problem vocabulary. "xlog_c" and "slowlog_c"
take the exponent c as a parameter; "rd" takes the grid refinement m; the
other ids take none.
"""
from __future__ import annotations

import math
import numbers
import textwrap
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from . import expr
from .baselines import ArcLength, Rescaling
from .errors import InputError
from .expr import Add, Call, Div, Max, Mul, Num, Pow, Var
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


class UnknownId(InputError):
    """No catalog entry under that id and parameters."""


@dataclass(frozen=True)
class Exact:
    value: float


@dataclass(frozen=True)
class Pseudo:
    """Reference is a pseudo solution: the adaptive method run at eps_ref.
    eps_ref None names no tolerance: run_study and reference_value raise
    NoReference for it unless given an eps_ref. run_rd_study never reads the
    entry's reference: its vary-eps table takes each method's finest run."""

    eps_ref: Optional[float]


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: a cache key
class CatalogEntry:
    id: str
    problem: ScalarProblem | VectorProblem
    methods: Mapping[str, object]
    reference: Exact | Pseudo | None  # None: no reference, as for an --expr problem
    notes: str = ""


# The method table of every 1D entry and of an --expr problem.
SCALAR_METHODS = {"adaptive": Adaptive1D(), "taylor2": Taylor1D(), "uniform": Uniform1D(),
                  "arclength": ArcLength()}


@lru_cache(maxsize=None)
def _sq() -> CatalogEntry:
    problem = ScalarProblem(
        rhs=expr.compile(expr.parse("x*x")),
        rhs_deriv=expr.compile(expr.parse("2*x")),
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
        rhs=expr.compile(expr.parse("exp(x*x)")),
        rhs_deriv=expr.compile(expr.parse("2*x*exp(x*x)")),
        rhs_second=expr.compile(expr.parse("(2 + 4*x*x)*exp(x*x)")),
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
            "b = exp(x^2) from x0 = 1; tau = (sqrt(pi)/2) erfc(1) = 0.13940279264033098. "
            "The reference stays the published protocol's pseudo solution, eps_ref = 2^-33 "
            "(~1e10 steps), until the scalar-sweep benchmark workload drops its --eps-ref "
            "(ROADMAP item 2); desk-scale studies substitute a coarser eps_ref and must say "
            "so. C = 1 in the tail bound since b'(x) = 2x exp(x^2) >= x on [1, inf)."
        ),
    )


@lru_cache(maxsize=None)
def _xlog(c: float) -> CatalogEntry:
    one_c = Num(1.0 + c)
    log_x = Call("log", Var())  # one node, so b' takes the log once
    problem = ScalarProblem(
        rhs=expr.compile(Mul(Var(), Pow(log_x, one_c))),
        rhs_deriv=expr.compile(Add(Pow(log_x, one_c), Mul(one_c, Pow(log_x, Num(c))))),
        x0=2.0,
        k=1.1,
        threshold=ExplicitRadius(expr.compile(Call("exp", Pow(Mul(Num(c), Var()), Num(-1.0 / c)))),
                                 tail_is_eps=True),
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


# The planar variables, and the planar field (b1, b2) and its Jacobian
# ((db1/dx1, db1/dx2), (db2/dx1, db2/dx2)) as compiled trees, which solve_nd's
# loop computes inline
X1, X2 = Var(1), Var(2)


def _planar(rhs: tuple, jac: tuple) -> tuple:
    return expr.compile(rhs, dim=2), JacobianAccess(dense=expr.compile(jac, dim=2))


@lru_cache(maxsize=None)
def _uncoupled() -> CatalogEntry:
    # x^3 and x^5 with float exponents, since float ** int converts the int
    rhs, jac = _planar((Pow(X1, Num(3.0)), Pow(X2, Num(5.0))),
                       ((Mul(Num(3.0), Pow(X1, Num(2.0))), Num(0.0)),
                        (Num(0.0), Mul(Num(5.0), Pow(X2, Num(4.0))))))
    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=jac,
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
    # s = |x|^2 and b = s x; J = s I + 2 x x^T, with each product taken left
    # to right, and x1^2, x2^2 and 2 x1 x2 one node each
    x11, x22, x12 = Mul(X1, X1), Mul(X2, X2), Mul(Mul(Num(2.0), X1), X2)
    s = Add(x11, x22)
    rhs, jac = _planar((Mul(X1, s), Mul(X2, s)),
                       ((Add(Mul(Mul(Num(3.0), X1), X1), x22), x12),
                        (x12, Add(x11, Mul(Mul(Num(3.0), X2), X2)))))
    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=jac,
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


@lru_cache(maxsize=None)
def _slowlog(c: float) -> CatalogEntry:
    # l1 = log(x1^2 + 2 x2^2) and l2 = log(2 x1^2 + x2^2), taken as 2 log(m) plus
    # the log of q1 or q2 over u = x/m, m = max|x_i|, so that squares near the
    # float64 ceiling do not overflow. b_i = x_i l_i^(1+c), and J_ij is
    # [i = j] l_i^(1+c) + (1+c) l_i^c x_i dl_i/dx_j, with m's scaling cancelled
    one_c, m = Num(1.0 + c), Max(Call("abs", X1), Call("abs", X2))
    u1, u2, log_m2 = Div(X1, m), Div(X2, m), Mul(Num(2.0), Call("log", m))
    s1, s2 = Mul(Mul(Num(2.0), u1), u1), Mul(Mul(Num(2.0), u2), u2)
    q1, q2 = Add(Mul(u1, u1), s2), Add(s1, Mul(u2, u2))
    l1, l2 = Add(log_m2, Call("log", q1)), Add(log_m2, Call("log", q2))
    p1, p2 = Pow(l1, one_c), Pow(l2, one_c)
    g1, g2 = Mul(one_c, Pow(l1, Num(c))), Mul(one_c, Pow(l2, Num(c)))
    w = Mul(Mul(Num(4.0), u1), u2)
    rhs, jac = _planar((Mul(X1, p1), Mul(X2, p2)),
                       ((Add(p1, Mul(g1, Div(s1, q1))), Mul(g1, Div(w, q1))),
                        (Mul(g2, Div(w, q2)), Add(p2, Mul(g2, Div(s2, q2))))))
    # l_i >= log(x1^2 + x2^2) = 2 log|x| > 0 on |x| > delta, so b.x >= 2^(1+c) |x|^2
    # log(|x|)^(1+c), with equality on the axes; round that best constant down.
    c_check = math.floor(10.0 * 2.0 ** (1.0 + c)) / 10.0
    problem = VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=jac,
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


try:  # the C function behind np.correlate, without its dispatcher
    from numpy._core.multiarray import correlate2 as _correlate
except ImportError:  # numpy < 2
    from numpy.core.multiarray import correlate2 as _correlate


def _kernel(text: str, args: str, data: dict):
    """The function of args that runs the statements text, in {out}, {x} and {v},
    on the names of data and returns out; solve_nd's array loop writes its text."""
    body = textwrap.indent(text.format(out="out", x="x", v="v"), "    ")
    exec(f"def kernel({args}):\n{body}    return out\n", scope := dict(data))
    scope["kernel"].text, scope["kernel"].data = text, data
    return scope["kernel"]


@lru_cache(maxsize=None)
def _rd(m: int) -> CatalogEntry:
    """Method-of-lines discretisation of u_t = u_xx + u^2 on (0,1) with zero
    boundary values and u(x, 0) = 100 sin(pi x), on the grid k/m, k = 1..m-1."""
    if m < 2:
        raise UnknownId(f"rd needs m >= 2, got {m!r}")
    m2 = float(m * m)
    n = m - 1

    # The Laplacian is one call of numpy's correlation kernel, which gives
    # (v[i-1] - 2 v[i]) + v[i+1], summed left to right with exact products, so it
    # equals the padded three-slice stencil bit for bit. Scaling by a power of two
    # is exact (short of overflow and subnormals), so where m^2 is one it is folded
    # into the stencil: correlate(v, m^2 [1, -2, 1]) has the bytes of
    # m^2 correlate(v, [1, -2, 1]). For n < 3 numpy swaps the operands and "same"
    # (mode 1) returns 3 values, so those grids slice "full" (mode 2) instead.
    folded = m & (m - 1) == 0
    stencil = np.array([1.0, -2.0, 1.0]) * (m2 if folded else 1.0)
    laplacian = ("{out} = correlate({v}, stencil, 1)\n" if n >= 3 else
                 "{out} = correlate({v}, stencil, 2)[1:-1]\n")
    laplacian += "" if folded else "{out} *= m2\n"
    data = {"correlate": _correlate, "stencil": stencil, "m2": m2}
    rhs = _kernel(laplacian.replace("{v}", "{x}") + "{out} += {x} * {x}\n", "x", data)
    jvp = _kernel(laplacian + "{out} += 2.0 * {x} * {v}\n", "x, v", data)

    x0 = 100.0 * np.sin(np.pi * np.arange(1, m) / m)
    problem = VectorProblem(
        dim=n,
        rhs=rhs,
        jacobian=JacobianAccess(jvp=jvp),
        # Working reconstruction: the growth bound is not claimed to hold for this
        # field (the diffusion term breaks it near the initial profile); it exists
        # to make r(eps) = 1/eps computable. Sampler treats it as nominal.
        threshold=PolyND(c_check=1.0, alpha=1.0, nominal=True),
        delta=1.0,
        x0=x0,
    )
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
    take, a c that is not a finite real above 0 and an m that is not integral
    raise UnknownId."""
    if id not in _BUILDERS:
        raise UnknownId(f"unknown problem id {id!r}; known: {', '.join(IDS)}")
    build, params = _BUILDERS[id]
    given = {name: v for name, v in (("c", c), ("m", m)) if v is not None}
    extra = sorted(given.keys() - params.keys())
    if extra:
        raise UnknownId(f"problem {id!r} takes no parameter {extra[0]}")
    if c is not None and not (isinstance(c, numbers.Real) and 0.0 < c < math.inf):
        raise UnknownId(f"problem {id!r} needs a finite real c > 0, got {c!r}")
    if m is not None and not (isinstance(m, numbers.Real) and float(m).is_integer()):
        # int(m) would truncate 4.5 to 4
        raise UnknownId(f"problem {id!r} needs an integral m, got {m!r}")
    return build(*(type(default)(given.get(name, default)) for name, default in params.items()))
