import math
import random

import pytest

from blowup import expr


_D = expr.MAX_DEPTH
# Input shapes by the way they nest: the input for k repetitions, and the largest k
# whose input is MAX_DEPTH levels deep or less.
NESTING_SHAPES = {
    "parentheses": (lambda k: "(" * k + "x" + ")" * k, _D - 1),
    "minus": (lambda k: "-" * k + "x", _D - 1),
    "sqrt": (lambda k: "sqrt(" * k + "x" + ")" * k, _D - 1),
    "sum": (lambda k: "x" + "+x" * k, _D - 1),
    "quotients": (lambda k: "x" + "/x" * k, _D - 1),
    "right powers": (lambda k: "x^" * k + "x", _D - 1),
    "left powers": (lambda k: "(" * k + "x" + "^x)" * k, (_D - 1) // 2),
    "powers over x": (lambda k: "x" + "^x/x" * k, _D - 2),
}


def gen_expr(rng: random.Random, depth: int = 0):
    """Random AST over the full grammar; leaves get likelier with depth."""
    leaf_p = 0.3 + 0.2 * depth
    if rng.random() < leaf_p or depth >= 4:
        if rng.random() < 0.5:
            return expr.Var()
        return expr.Num(round(rng.uniform(0.1, 4.0), 3))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "call"])
    if kind == "add":
        return expr.Add(gen_expr(rng, depth + 1), gen_expr(rng, depth + 1))
    if kind == "sub":
        return expr.Sub(gen_expr(rng, depth + 1), gen_expr(rng, depth + 1))
    if kind == "mul":
        return expr.Mul(gen_expr(rng, depth + 1), gen_expr(rng, depth + 1))
    if kind == "div":
        return expr.Div(gen_expr(rng, depth + 1), gen_expr(rng, depth + 1))
    if kind == "pow":
        # keep exponents literal so powers stay in the real domain more often
        return expr.Pow(gen_expr(rng, depth + 1), expr.Num(rng.choice([0.5, 1.5, 2.0, 3.0, -1.0])))
    if kind == "neg":
        return expr.Neg(gen_expr(rng, depth + 1))
    return expr.Call(rng.choice(list(expr.FUNCTIONS)), gen_expr(rng, depth + 1))


def central_fd(f, x: float, eta: float):
    return (f(x + eta) - f(x - eta)) / (2.0 * eta)


def derivative_matches_fd(ast, points, rel_tol=1e-5) -> tuple[int, int]:
    """(checked, failed) counts of |symbolic - central FD| <= rel_tol*max(1, |FD|);
    the tree and its derivative are compiled once."""
    f, df = expr.compile(ast), expr.compile(expr.differentiate(ast))
    checked = failed = 0
    for x in points:
        eta = 1e-6 * max(1.0, abs(x))
        try:
            fd = central_fd(f, x, eta)
            sym = df(x)
        except expr.DomainError:
            continue
        if not (math.isfinite(fd) and math.isfinite(sym)):
            continue
        if abs(fd) > 1e8:  # near-singular; FD itself is unreliable there
            continue
        checked += 1
        if abs(sym - fd) > rel_tol * max(1.0, abs(fd)):
            failed += 1
    return checked, failed


@pytest.fixture(scope="session")
def expr_corpus():
    rng = random.Random(20240817)
    return [gen_expr(rng) for _ in range(200)]
