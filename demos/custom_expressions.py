#!/usr/bin/env python3
"""User-supplied right-hand sides through the expression language.

The parser handles {x, literals, + - * / ^, exp, log, sin, cos, sqrt} with
exact symbolic differentiation, so the adaptive law gets a true b' instead of
finite differences. The same machinery backs the CLI:

    blowup run --expr "x^2" --x0 0.5 --k 1.1 --threshold "finverse:eps^-2" --eps 2^-12
"""
import math

from blowup import expr
from blowup.integrate import solve_1d
from blowup.problems import ScalarProblem
from blowup.thresholds import FInverse

ast = expr.parse("x^2")
d_ast = expr.differentiate(ast)
print(f"b(x)  = {expr.pretty(ast)}")
print(f"b'(x) = {expr.pretty(d_ast)}")
print(f"b'(3) = {expr.evaluate(d_ast, 3.0)}")

# compile each tree once into a Python function; evaluate compiles on every call
finv = expr.parse("eps^-2", var="eps")
problem = ScalarProblem(
    rhs=expr.compile(ast),
    rhs_deriv=expr.compile(d_ast),
    x0=0.5,
    k=1.1,
    threshold=FInverse(expr.compile(finv)),
)
res = solve_1d(problem, 2.0**-12)
print(f"\ntau estimate = {res.tau_hat:.10f}  (|tau - 2| = {abs(res.tau_hat - 2):.2e})")

print("\nricher expressions differentiate cleanly too:")
for text in ("exp(x^2)", "x*log(x)^1.5", "sqrt(x)/(1 + cos(x)^2)"):
    a = expr.parse(text)
    f, df = expr.compile(a), expr.compile(expr.differentiate(a))
    x0 = 2.0
    eta = 1e-6 * x0
    fd = (f(x0 + eta) - f(x0 - eta)) / (2 * eta)
    print(f"  d/dx {text:<24} at x=2: symbolic {df(x0):.6f}, "
          f"finite-diff {fd:.6f}")

print("\nparse errors carry byte offsets:")
try:
    expr.parse("2x")
except expr.ExprSyntaxError as exc:
    print(f"  '2x' -> offset {exc.offset}: {exc.message}")
