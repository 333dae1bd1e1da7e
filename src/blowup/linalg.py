"""Jacobian norm machinery.

The spectral norm (induced matrix 2-norm) is exact on the dense Jacobian: a
closed form in the entries for 2x2 matrices, the largest singular value from
numpy's SVD for every other size. A matrix-free Jacobian has no 2-norm here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError


class TransposeUnavailable(InputError):
    """Matrix-free access cannot produce a 2-norm."""


@dataclass(frozen=True)
class JacobianAccess:
    """Either a dense Jacobian function or a matrix-free Jacobian-vector product.

    Exactly one of ``dense`` and ``jvp`` must be set.
    """

    dense: Optional[Callable] = None
    jvp: Optional[Callable] = None

    def __post_init__(self):
        if (self.dense is None) == (self.jvp is None):
            raise InputError("exactly one of dense/jvp must be provided")


def safe_norm(x) -> float:
    """Euclidean norm that survives |x|^2 overflowing float64; inf if any |x_i| is."""
    # x.dot reaches the same BLAS ddot as np.dot and x @ x with less call overhead;
    # a sequence, which has no dot method, costs the array path nothing
    try:
        s = x.dot(x)
    except AttributeError:
        x = np.asarray(x, dtype=float)
        s = x.dot(x)
    if s != math.inf:
        return math.sqrt(s)
    m = float(np.max(np.abs(x)))
    if m == math.inf:
        return m
    u = np.divide(x, m)
    return m * math.sqrt(np.dot(u, u))


# The float forms of spectral_norm on the 2x2 Jacobian ((j11, j12), (j21, j22))
# and of pair_norm on the pair ({0}, {1}), with hypot only where the sum of squares
# s overflows, as it rounds unlike sqrt(s) below: one text each, in the names of
# TEXT_NAMES (floats only), that both functions and solve_nd's planar loop compile
SN_2X2 = "0.5 * (hypot(j11 + j22, j21 - j12) + hypot(j11 - j22, j12 + j21))"
PAIR_NORM = "(sqrt(s) if (s := {0} * {0} + {1} * {1}) != inf else hypot({0}, {1}))"
TEXT_NAMES = {"hypot": math.hypot, "sqrt": math.sqrt, "inf": math.inf}
# The norm of the array {0} with safe_norm's bits, in TEXT_NAMES' names and norm
# (safe_norm, for an overflowing dot), which solve_nd's array loop writes inline
ARRAY_NORM = "(sqrt(s) if (s := {0}.dot({0})) != inf else norm({0}))"
# ARRAY_NORM's bits on 2 {0}: 2 sqrt(s) while the dot scales by exactly 4, from s = 2^-900
# (far above the squares that round as subnormals) to 2^1022; else safe_norm({0} + {0})
DOUBLED_NORM = ("(2.0 * sqrt(s) if 2.0 ** -900 <= (s := {0}.dot({0})) < 2.0 ** 1022"
                " else norm({0} + {0}))")
_closed_2x2 = eval(f"lambda j11, j12, j21, j22: {SN_2X2}", dict(TEXT_NAMES))
_pair_floats = eval(f"lambda a, b: {PAIR_NORM.format('a', 'b')}", dict(TEXT_NAMES))


def pair_norm(x) -> float:
    """The Euclidean norm of a planar vector, a pair of floats, on Python floats:
    sqrt of |x|^2, or math.hypot where |x|^2 overflows (past 2^512), which can
    differ from safe_norm's rescaled dot there by up to 2 ulps. solve_nd's
    planar loop computes the same text inline."""
    a, b = x
    return _pair_floats(a, b)


def spectral_norm(jac: JacobianAccess, x, dim: int | None = None, seed=None) -> float:
    """||J(x)||_2, exact on the dense Jacobian.

    A 2x2 Jacobian [[a, b], [c, d]], an array or nested sequences of floats,
    takes the closed form
    sigma_max = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2 on Python
    floats; every other size takes the largest singular value from numpy's
    SVD. ``seed`` is accepted and ignored; both paths are deterministic.
    """
    if jac.dense is None:
        raise TransposeUnavailable(
            "matrix-free Jacobian: 2-norm needs a transpose product; use the "
            "|b'(x)b(x)|-based step law instead"
        )
    J = np.asarray(jac.dense(x), dtype=float)
    n = J.shape[0]
    if dim is not None and n != dim:
        raise InputError(f"dense Jacobian is {n}x{J.shape[1]}, expected dim {dim}")
    if J.shape != (2, 2):
        return float(np.linalg.svd(J, compute_uv=False)[0])
    (a, b), (c, d) = J.tolist()
    return _closed_2x2(a, b, c, d)
