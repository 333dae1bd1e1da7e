import math
import random
import re

import pytest

from blowup import catalog, expr
from blowup.errors import InputError
from blowup.expr import (
    Add,
    Call,
    DomainError,
    ExprSyntaxError,
    Max,
    Mul,
    Neg,
    Num,
    Pow,
    Var,
    differentiate,
    evaluate,
    parse,
    pretty,
)

from conftest import NESTING_SHAPES, derivative_matches_fd, gen_expr


class TestParse:
    def test_power(self):
        assert parse("x^2") == Pow(Var(), Num(2.0))

    def test_function_call(self):
        assert parse("exp(x^2)") == Call("exp", Pow(Var(), Num(2.0)))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("2x")
        assert exc.value.offset == 1

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-x^2"), 3.0) == -9.0

    def test_signed_exponent(self):
        assert evaluate(parse("x^-2"), 2.0) == 0.25

    def test_left_associative_sub_div(self):
        assert evaluate(parse("1-2-3"), 0.0) == -4.0
        assert evaluate(parse("8/4/2"), 0.0) == 1.0

    def test_custom_variable_name(self):
        assert evaluate(parse("eps^-2", var="eps"), 2.0**-10) == 2.0**20

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("y + 1")

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("exp(x")

    def test_scientific_literals(self):
        assert evaluate(parse("1e-3 + x"), 0.0) == 1e-3

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2^3^2", "2^3^2"),
            ("2^-3^2", "2^(-3^2)"),
            ("-x^-x", "-x^(-x)"),
            ("-(-x)", "--x"),
            ("1-(2-3)", "1 - (2 - 3)"),
            ("x/(4/2)", "x/(4/2)"),
            ("(x^x)^x", "(x^x)^x"),
            ("3.25 - -x", "3.25 - -x"),
            (".5*x", "0.5*x"),
            ("1.e3", "1000"),
            ("1E+2*x", "100*x"),
            ("x\t*\nx", "x*x"),
            ("exp (x)", "exp(x)"),
            # a number takes an exponent only where a digit follows e[+-]
            ("2e", (1, "expected operator or end of input")),
            ("1e+", (1, "expected operator or end of input")),
            ("1.5e-3x", (6, "expected operator or end of input")),
            ("1e5.3", (3, "expected operator or end of input")),
            ("0x1", (1, "expected operator or end of input")),
            ("1..2", (0, "bad number literal '1..2'")),
            (".", (0, "unexpected character '.'")),
            ("x $ 1", (2, "unexpected character '$'")),
            ("é", (0, "unknown identifier 'é' (variable is 'x')")),
            ("_a", (0, "unknown identifier '_a' (variable is 'x')")),
            ("exp", (3, "expected '('")),
            ("exp(x", (5, "expected ')'")),
            ("sin()", (4, "expected a number, variable, function call or '('")),
            ("   ", (3, "expected a number, variable, function call or '('")),
            ("x)", (1, "expected operator or end of input")),
        ],
    )
    def test_tree_or_error(self, text, expected):
        if isinstance(expected, str):
            assert pretty(parse(text)) == expected
        else:
            with pytest.raises(ExprSyntaxError) as exc:
                parse(text)
            assert (exc.value.offset, exc.value.message) == expected


@pytest.mark.parametrize(
    "build, operands, expected",
    [
        (expr._add, (Num(-0.0), Num(0.0)), "0"),
        (expr._add, (Num(-0.0), Var()), "x"),
        (expr._sub, (Num(-0.0), Num(0.0)), "-0"),
        (expr._sub, (Num(0.0), Var()), "-x"),
        (expr._sub, (Var(), Num(-0.0)), "x"),
        (expr._mul, (Num(1.0), Num(-0.0)), "-0"),
        (expr._mul, (Num(-0.0), Var()), "0"),
        (expr._mul, (Num(0.0), Num(math.inf)), "(1e999 - 1e999)"),
        (expr._div, (Num(-0.0), Num(2.0)), "-0"),
        (expr._div, (Num(0.0), Num(0.0)), "0"),
        (expr._div, (Num(1.0), Num(0.0)), "1/0"),
        (expr._div, (Var(), Num(0.0)), "x/0"),
        (expr._neg, (Num(0.0),), "-0"),
        (expr._pow, (Num(0.0), Num(0.0)), "1"),
        (expr._pow, (Num(0.0), Num(-0.0)), "1"),
        (expr._pow, (Num(0.0), Num(-1.0)), "0^-1"),
        (expr._pow, (Num(-0.0), Num(1.0)), "-0"),
        (expr._pow, (Num(10.0), Num(400.0)), "1e999"),
        (expr._pow, (Num(-10.0), Num(401.0)), "-1e999"),
        (expr._pow, (Num(-10.0), Num(400.0)), "1e999"),
    ],
)
def test_constant_folding(build, operands, expected):
    """Literal operands fold to their value, a literal outside the domain (0^0,
    u/0) does not, and the identities 0+u, u-0, 0-u, 0*u, 0/u, u^0 and u^1 apply."""
    assert pretty(build(*operands)) == expected


def test_emit_computes_a_shared_subtree_once():
    square = expr.Mul(expr.Var(), expr.Var())
    tree = expr.Add(square, expr.Call("exp", square))
    lines, _ = expr.emit(tree, "x", {}, "v")
    assert sum(line.endswith(" = x * x") for line in lines) == 1
    f = expr.compile(tree)
    assert f.tree is tree and f(1.5) == 2.25 + math.exp(2.25)


class TestIndexedVariables:
    """Var(1) .. Var(n) are the variables of a vector x: pretty and compile keep
    the index, parse reads only the scalar x, and differentiate takes only x."""

    def test_pretty(self):
        tree = expr.Sub(Mul(Var(1), Pow(Var(2), Num(2.0))), Var(2))
        assert pretty(tree) == "x1*x2^2 - x2" and pretty(tree, "u") == "u1*u2^2 - u2"

    def test_parse_reads_only_the_scalar_variable(self):
        message = "unknown identifier 'x1' (variable is 'x')"
        with pytest.raises(ExprSyntaxError, match=re.escape(message)):
            parse("x1^2")

    def test_differentiate_refuses_a_vector_variable(self):
        # d/dx of x1*x2 is no partial; summing the partials would be a silent wrong answer
        with pytest.raises(InputError, match="scalar x only, not x2"):
            differentiate(Mul(Num(3.0), Var(2)))
        assert differentiate(Mul(Var(), Var())) == Add(Var(), Var())

    def test_compile_a_tuple_of_trees_of_a_vector(self):
        # one emission for the whole tuple: x1*x2, which both entries hold, once
        x12 = Mul(Var(1), Var(2))
        tree = ((Add(x12, Var(1)), Num(0.0)), (x12,))
        lines, values = expr.emit(tree, "x", {}, "v")
        assert values == (("v1", "(0.0)"), ("v0",))
        assert sum(line.endswith(" = x1 * x2") for line in lines) == 1
        f = expr.compile(tree, dim=2)
        assert f.tree is tree and f((3.0, 0.5)) == ((4.5, 0.0), (1.5,))


class TestCodeBuiltKinds:
    """abs and Max, which only code builds: they compute as builtin abs and max,
    NaN and signed zeros included, pretty prints them, differentiate refuses
    them and parse knows neither."""

    VALUES = [0.0, -0.0, 1.5, -1.5, 2.0, -2.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]

    def test_floats_are_the_builtins(self):
        f = expr.compile((Call("abs", Var(1)), Max(Var(1), Var(2))), dim=2)
        for a in self.VALUES:
            for b in self.VALUES:
                assert repr(f((a, b))) == repr((abs(a), max(a, b)))
        # max(a, b) keeps a unless b > a: the first of two equal zeros, and a NaN first
        assert math.copysign(1.0, f((-0.0, 0.0))[1]) == -1.0
        assert math.isnan(f((math.nan, 1.0))[1]) and f((1.0, math.nan))[1] == 1.0

    def test_pretty(self):
        assert pretty(Max(Call("abs", Var(1)), Num(1.0))) == "max(abs(x1), 1)"
        assert pretty(Mul(Num(2.0), Max(Var(), Num(-1.0)))) == "2*max(x, -1)"

    @pytest.mark.parametrize("e", [Call("abs", Var()), Max(Var(), Num(1.0)),
                                   Mul(Var(), Call("exp", Call("abs", Var())))])
    def test_differentiate_refuses_them(self, e):
        with pytest.raises(InputError, match="scalar x only, not (abs|max)"):
            differentiate(e)

    @pytest.mark.parametrize("text", ["abs(x)", "max(x)", "max(x, 1)"])
    def test_parse_knows_neither(self, text):
        with pytest.raises(ExprSyntaxError):
            parse(text)


class TestNestingBound:
    D = expr.MAX_DEPTH

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_deepest_input_has_two_printable_derivatives(self, shape):
        make, deepest = NESTING_SHAPES[shape]
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {self.D} levels"):
            parse(make(deepest + 1))
        second = differentiate(differentiate(parse(make(deepest))))
        assert math.isfinite(evaluate(second, 1.1))
        assert pretty(second)

    def test_forty_term_sum_still_parses(self):
        assert evaluate(differentiate(parse("+".join(["x*x"] * 40))), 1.0) == 80.0


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("x^2"), 0.5) == 0.25

    def test_log_domain(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), -1.0)

    def test_x_log_sq(self):
        assert evaluate(parse("x*log(x)^2"), 2.0) == pytest.approx(
            2.0 * math.log(2.0) ** 2, rel=1e-15
        )

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), -4.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), 0.0)

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_trig_domain(self, fn):
        # sin and cos of +-inf are undefined; NaN passes through as for the other kinds
        f = expr.compile(parse(f"{fn}(x)"))
        for x in (math.inf, -math.inf):
            with pytest.raises(DomainError, match=re.escape(
                    f"{fn} of infinite value {x!r} in '{fn}(x)'")):
                f(x)
        assert math.isnan(f(math.nan))
        assert f(0.7) == getattr(math, fn)(0.7)

    def test_negative_base_integer_exponent(self):
        assert evaluate(parse("(0-2)^2"), 0.0) == 4.0

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(DomainError):
            evaluate(parse("(0-2)^0.5"), 0.0)

    def test_nan_base_fractional_exponent(self):
        # NaN is no negative base: the error names it as NaN, on a parsed tree and
        # on slowlog_c's compiled field at an infinite coordinate, where l1 is NaN
        with pytest.raises(DomainError, match=re.escape(
                "NaN base with non-integer exponent in 'x^1.5'")):
            evaluate(parse("x^1.5"), math.nan)
        with pytest.raises(DomainError, match="^NaN base with non-integer exponent in '"):
            catalog.get("slowlog_c").problem.rhs((math.inf, 1.0))
        assert math.isnan(evaluate(parse("x^2"), math.nan))  # an integral power stays NaN

    @pytest.mark.parametrize("x", [0.0, -0.0], ids=["+0", "-0"])
    def test_zero_base(self, x):
        # 0 to a positive power is 0, to a NaN power NaN, to a nonpositive one an error
        assert evaluate(parse("x^1.5"), x) == 0.0
        assert evaluate(parse("(-x)^1.5"), x) == 0.0
        with pytest.raises(DomainError, match=re.escape(
                "0 raised to nonpositive power in 'x^(-1.5)'")):
            evaluate(parse("x^-1.5"), x)
        assert math.isnan(evaluate(Pow(Var(), Num(math.nan)), x))
        with pytest.raises(DomainError, match="negative base -1.0 with non-integer exponent"):
            evaluate(parse("(x - 1)^1.5"), x)

    def test_exp_overflow_is_inf(self):
        assert evaluate(parse("exp(x)"), 1e6) == math.inf

    def test_power_overflow_keeps_the_sign(self):
        # a negative base to an odd power overflows to -inf, to an even one to +inf
        assert evaluate(parse("x^3"), -1e200) == -math.inf
        assert evaluate(parse("(0-10)^401"), 0.0) == -math.inf
        assert evaluate(parse("x^(0-3)"), -1e-200) == -math.inf
        assert evaluate(parse("x^4"), -1e200) == math.inf
        assert evaluate(parse("x^3"), 1e200) == math.inf


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x^2"))
        assert evaluate(d, 3.0) == 6.0

    def test_chain_rule_exp(self):
        d = differentiate(parse("exp(x^2)"))
        assert evaluate(d, 1.0) == pytest.approx(2.0 * math.e, rel=1e-14)

    def test_product_and_chain(self):
        # d/dx of x*log(x)^1.5 at x=2: log(2)^1.5 + 1.5*log(2)^0.5
        d = differentiate(parse("x*log(x)^1.5"))
        expected = math.log(2.0) ** 1.5 + 1.5 * math.log(2.0) ** 0.5
        assert evaluate(d, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_general_power(self):
        # d/dx x^x = x^x (log x + 1)
        d = differentiate(parse("x^x"))
        assert evaluate(d, 2.0) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-14)

    def test_constant_folding_only_on_literals(self):
        d = differentiate(parse("2*3 + x"))
        assert d == Num(1.0)

    def test_trig(self):
        d = differentiate(parse("sin(x) + cos(x)"))
        assert evaluate(d, 0.7) == pytest.approx(math.cos(0.7) - math.sin(0.7), rel=1e-14)


def test_derivative_matches_finite_differences(expr_corpus):
    rng = random.Random(99)
    total_checked = total_failed = 0
    for ast in expr_corpus:
        points = [rng.uniform(0.1, 10.0) for _ in range(20)]
        checked, failed = derivative_matches_fd(ast, points)
        total_checked += checked
        total_failed += failed
    assert total_checked > 1000
    assert total_failed == 0


def test_pretty_parse_round_trip(expr_corpus):
    rng = random.Random(7)
    for ast in expr_corpus:
        rendered = pretty(ast)
        reparsed = parse(rendered)
        for _ in range(10):
            x = rng.uniform(0.1, 10.0)
            try:
                expected = evaluate(ast, x)
            except DomainError:
                with pytest.raises(DomainError):
                    evaluate(reparsed, x)
                continue
            got = evaluate(reparsed, x)
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert got == expected


@pytest.mark.parametrize("base", [-2.0, -0.0, -0.5, -1e100, -1e200])
@pytest.mark.parametrize("exponent", [2.0, 3.0, 0.5, Pow(Num(-2.0), Num(2.0))])
def test_negative_literal_base_round_trip(base, exponent):
    """A negative literal base prints in parentheses: -2^2 would parse as -(2^2).
    Folding leaves such a base behind where the power is outside the domain."""
    exp_node = exponent if isinstance(exponent, Pow) else Num(exponent)
    for e in (Pow(Num(base), exp_node), expr._pow(Num(base), exp_node),
              Pow(Var(), Pow(Num(base), exp_node))):
        for x in (0.0, 1.5):
            try:
                expected = evaluate(e, x)
            except DomainError:
                with pytest.raises(DomainError):
                    evaluate(parse(pretty(e)), x)
                continue
            assert repr(evaluate(parse(pretty(e)), x)) == repr(expected)


@pytest.mark.parametrize("e", [
    Num(math.inf), Num(-math.inf), Num(math.nan),
    expr._mul(Num(0.0), Num(math.inf)),  # folds to nan
    differentiate(parse("x^1e999")),  # folds its literals to inf
    Pow(Num(-math.inf), Num(3.0)), Pow(Var(), Num(math.nan)), Neg(Num(math.nan)),
], ids=["inf", "-inf", "nan", "0*inf", "d(x^1e999)", "(-inf)^3", "x^nan", "-nan"])
def test_non_finite_literal_round_trip(e):
    """parse has no inf or nan; pretty writes them as 1e999 and 1e999 - 1e999."""
    for x in (0.5, 1.5):
        assert repr(evaluate(parse(pretty(e)), x)) == repr(evaluate(e, x))


def test_negative_base_prints_in_parentheses():
    assert pretty(Pow(Num(-2.0), Num(2.0))) == "(-2)^2"
    assert pretty(expr._pow(Num(-2.0), Num(0.5))) == "(-2)^0.5"
    assert pretty(Pow(Num(-0.0), Num(2.0))) == "(-0)^2"
    assert pretty(Pow(Num(2.0), Num(-2.0))) == "2^-2"


def test_round_trip_on_corpus_strings():
    corpus = [
        "x^2",
        "exp(x^2)",
        "x*log(x)^1.5",
        "-x^2 + 3*x - 1/x",
        "sqrt(x)/(1 + cos(x)^2)",
        "x^-2",
        "2^3^2 + x",
    ]
    rng = random.Random(3)
    for s in corpus:
        a = parse(s)
        b = parse(pretty(a))
        for _ in range(10):
            x = rng.uniform(0.5, 5.0)
            try:
                expected = evaluate(a, x)
            except DomainError:
                with pytest.raises(DomainError):
                    evaluate(b, x)
                continue
            assert evaluate(b, x) == expected
