"""Golden expression table: the exact value, or the first error, of about 1,500
expressions at fixed points, so that a change to how expressions evaluate is
checked against the recorded behaviour, not only against itself.

The expressions are 500 random trees of ``conftest.gen_expr`` with their first
and second derivatives, the deepest input of each nesting shape of
``conftest.NESTING_SHAPES`` with its two derivatives, the non-finite literal
cases, and a few CLI-style inputs. Each outcome is ``repr(value)`` or
``"<ErrorType>: <message>"``; an outcome longer than LONG characters (a
DomainError that prints a large subtree) is kept as its first characters and
the sha256 of the whole, so the check stays byte for byte.

Regenerate the table with

    PYTHONPATH=src python tests/test_golden_expr.py
"""
import hashlib
import json
import math
import pathlib
import random

import pytest

from blowup import expr
from blowup.expr import Neg, Num, Pow, Var

from conftest import NESTING_SHAPES, gen_expr

TABLE = pathlib.Path(__file__).with_name("golden_expr.json")
SEED = 18
TREES = 500
POINTS = (0.0, -0.0, 0.5, 1.1, 2.0, 7.5, -0.5, -3.0, 1e-200, 1e200, -1e200)
LONG = 200

NON_FINITE = {
    "inf": Num(math.inf),
    "-inf": Num(-math.inf),
    "nan": Num(math.nan),
    "0*inf": expr._mul(Num(0.0), Num(math.inf)),
    "x^1e999": expr.parse("x^1e999"),
    "(-inf)^3": Pow(Num(-math.inf), Num(3.0)),
    "x^nan": Pow(Var(), Num(math.nan)),
    "-nan": Neg(Num(math.nan)),
    "(-2)^x": Pow(Num(-2.0), Var()),
    "(-0)^-1": Pow(Num(-0.0), Num(-1.0)),
}
TEXTS = ("x^2", "x^-2", "x^0.5", "x*log(x)^1.5", "exp(x^2)", "sin(exp(x))", "cos(x^3)",
         "0^x", "x^x", "1/(x - 2)", "sqrt(x - 1)", "log(x)^2 - x", "2^3^2 + x")


def cases():
    """(key, tree) for every expression of the table, in table order."""
    out = []

    def with_derivatives(key, tree):
        d1 = expr.differentiate(tree)
        out.extend([(key, tree), (f"{key} d1", d1), (f"{key} d2", expr.differentiate(d1))])

    rng = random.Random(SEED)
    for i in range(TREES):
        with_derivatives(f"gen {i}", gen_expr(rng))
    for shape, (make, deepest) in NESTING_SHAPES.items():
        with_derivatives(f"deepest {shape}", expr.parse(make(deepest)))
    for name, tree in NON_FINITE.items():
        with_derivatives(f"literal {name}", tree)
    for text in TEXTS:
        with_derivatives(f"text {text}", expr.parse(text))
    return out


def _recorded(text: str) -> str:
    if len(text) <= LONG:
        return text
    return f"{text[:64]}... sha256={hashlib.sha256(text.encode()).hexdigest()}"


def outcomes(tree) -> list[str]:
    """The table value of one expression: its outcome at each of POINTS, from
    one compiled function."""
    f = expr.compile(tree)
    out = []
    for x in POINTS:
        try:
            text = repr(f(x))
        except Exception as exc:  # the first error of any kind is part of the record
            text = f"{type(exc).__name__}: {exc}"
        out.append(_recorded(text))
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())


def test_table_covers_every_expression(golden):
    assert list(golden) == [key for key, _ in CASES]


@pytest.mark.parametrize("group", ["gen", "deepest", "literal", "text"])
def test_expressions_match_table(golden, group):
    moved = [key for key, tree in CASES
             if key.split()[0] == group and outcomes(tree) != golden[key]]
    assert not moved


if __name__ == "__main__":
    rows = [f"  {json.dumps(key)}: {json.dumps(outcomes(tree))}" for key, tree in CASES]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(rows)} expressions to {TABLE}")
