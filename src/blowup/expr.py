"""Arithmetic expressions of a scalar or a vector, with exact symbolic
differentiation of scalar ones.

Grammar (EBNF), in order of increasing precedence; ``^`` is right-associative
and binds tighter than unary minus:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'log' | 'sin' | 'cos' | 'sqrt'

There is no implicit multiplication: ``2x`` is a syntax error. ``log`` is the
natural logarithm. ``a^b`` with non-integer ``b`` requires ``a >= 0``, and
``0^b`` requires ``b > 0``; ``0^nan`` is NaN, as ``0.0 ** nan`` is. Each
operator, function call and pair of parentheses nests one level, and input
nested deeper than MAX_DEPTH levels is a syntax error, so that a tree and its
first two derivatives stay within the recursion limit. A tree built in code
may also hold a vector's variables ``Var(1)`` .. ``Var(n)``, ``Call("abs", u)``
and ``Max(a, b)`` (builtin abs and max): ``pretty`` prints them as x1 .. xn,
abs(u) and max(a, b), and ``differentiate`` refuses them.

``emit`` turns a tree into straight-line Python statements, one per distinct
node. ``compile`` makes them a Python function of x that carries its tree, or
its tuple of trees as a planar field and its Jacobian are, and the solvers'
loops write them inline. A caller that evaluates a tree more than once
compiles it once, where ``evaluate`` compiles per call.
"""
from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .errors import InputError

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExprSyntaxError(InputError):
    """Parse failure; carries the byte offset and what was expected there."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset
        self.message = message


class DomainError(InputError):
    """Evaluation left the real domain (log/sqrt/negative-base powers, x/0)."""


@dataclass(frozen=True)
class Var:
    index: int = 0  # 0 is the scalar variable x; i >= 1 is x_i of a vector


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Sub:
    a: object
    b: object


@dataclass(frozen=True)
class Mul:
    a: object
    b: object


@dataclass(frozen=True)
class Div:
    a: object
    b: object


@dataclass(frozen=True)
class Pow:
    a: object
    b: object


@dataclass(frozen=True)
class Max:
    a: object
    b: object


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Call:
    fn: str
    a: object


Expr = Var | Num | Add | Sub | Mul | Div | Pow | Max | Neg | Call


# --- scanner ------------------------------------------------------------------

# One token per match: whitespace, a number (digits and dots starting at a digit
# or at '.digit', with an exponent only where a digit follows e[+-]), an
# identifier, an operator, the end of the input, or any other character.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, offset) triples; kinds: num, ident, op, end."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, val, off = m.lastgroup, m.group(), m.start()
        if kind == "space":
            continue
        if kind == "bad":
            raise ExprSyntaxError(off, f"unexpected character {val!r}")
        if kind == "num":
            try:
                val = float(val)
            except ValueError:
                raise ExprSyntaxError(off, f"bad number literal {val!r}") from None
        out.append((kind, val, off))
    return out


# --- recursive-descent parser -------------------------------------------------

# The deepest second derivatives tried are 284 levels deep at 48 (380 at 64);
# pretty takes two frames a level, which leaves 430 of the default 1000 to callers.
MAX_DEPTH = 48

# the left-associative operators, one table per precedence, loosest first
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


def parse(text: str, var: str = "x") -> Expr:
    """Parse ``text`` into an AST whose single variable is named ``var``."""
    tokens = _tokenize(text)
    pos = 0

    def take(ops) -> str | None:
        """Consume the next token and return it if it is an operator in ops."""
        nonlocal pos
        kind, val, _ = tokens[pos]
        if kind == "op" and val in ops:
            pos += 1
            return val
        return None

    def expect(op: str) -> None:
        if not take(op):
            raise ExprSyntaxError(tokens[pos][2], f"expected {op!r}")

    def checked(depth: int, off: int) -> int:
        """depth, or a syntax error at off when it exceeds MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(off, f"expression nested deeper than {MAX_DEPTH} levels")
        return depth

    # Each rule returns (node, depth) for a construct inside `outer` levels;
    # checking outer + 1 before descending bounds the parser's own recursion.
    def binary(i: int, outer: int):
        if i == len(_BINARY):
            return unary(outer)
        node, depth = binary(i + 1, outer)
        while op := take(_BINARY[i]):
            off = tokens[pos - 1][2]
            rhs, rhs_depth = binary(i + 1, outer)
            node, depth = _BINARY[i][op](node, rhs), checked(max(depth, rhs_depth) + 1, off)
        return node, depth

    def unary(outer: int):
        off = tokens[pos][2]
        if take("-"):
            node, depth = unary(checked(outer + 1, off))
            return Neg(node), checked(depth + 1, off)
        node, depth = atom(outer)
        off = tokens[pos][2]
        if take("^"):
            rhs, rhs_depth = unary(checked(outer + 1, off))
            return Pow(node, rhs), checked(max(depth, rhs_depth) + 1, off)
        return node, depth

    def atom(outer: int):
        nonlocal pos
        kind, val, off = tokens[pos]
        pos += 1
        if kind == "num":
            return Num(val), 1
        if kind == "ident":
            if val == var:
                return Var(), 1
            if val not in FUNCTIONS:
                raise ExprSyntaxError(off, f"unknown identifier {val!r} (variable is {var!r})")
            expect("(")
        elif (kind, val) != ("op", "("):
            raise ExprSyntaxError(off, "expected a number, variable, function call or '('")
        node, depth = binary(0, checked(outer + 1, off))
        expect(")")
        return (Call(val, node) if kind == "ident" else node), checked(depth + 1, off)

    node, _ = binary(0, 0)
    kind, _, off = tokens[pos]
    if kind != "end":
        raise ExprSyntaxError(off, "expected operator or end of input")
    return node


# --- evaluation ---------------------------------------------------------------


def float_pow(base: float, exponent: float) -> float:
    """base ** exponent for a base >= 0 or an integer exponent, with
    overflow to +-inf as numpy gives it (Python's float ** raises
    OverflowError): the sign of a negative base survives an odd power."""
    try:
        return base ** exponent
    except OverflowError:
        return -math.inf if base < 0.0 and exponent % 2 else math.inf


def _checked_div(node) -> float:
    """Raise for node's zero denominator; the Div statement calls it on no other."""
    raise DomainError(f"division by zero in '{pretty(node)}'")


def _checked_pow(base: float, exponent: float, node) -> float:
    if base > 0.0:
        return float_pow(base, exponent)
    if base == 0.0:
        if exponent <= 0.0:
            raise DomainError(f"0 raised to nonpositive power in '{pretty(node)}'")
        return float_pow(base, exponent)  # +-0.0, or NaN for a NaN exponent
    if float(exponent).is_integer():
        return float_pow(base, int(exponent))
    what = "NaN base" if base != base else f"negative base {base!r}"
    raise DomainError(f"{what} with non-integer exponent in '{pretty(node)}'")


def _checked_log(v: float, node) -> float:
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r} in '{pretty(node)}'")
    return math.log(v)


def _checked_sqrt(v: float, node) -> float:
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v!r} in '{pretty(node)}'")
    return math.sqrt(v)


def _checked_trig(v: float, node) -> float:
    if math.isinf(v):
        raise DomainError(f"{node.fn} of infinite value {v!r} in '{pretty(node)}'")
    return math.sin(v) if node.fn == "sin" else math.cos(v)


# Each node kind's float semantics, as a Python statement that sets {v} from its
# operand values {0} and {1}; {n} is the node, which a DomainError prints. A checked
# kind computes inline where its operands are inside the domain and calls its
# helper, which raises or takes the overflow rule, everywhere else. emit writes
# one statement per distinct node, and _fold reaches them through compile.
_SEMANTICS = {
    Add: "{v} = {0} + {1}",
    Sub: "{v} = {0} - {1}",
    Mul: "{v} = {0} * {1}",
    Neg: "{v} = -{0}",
    Max: "{v} = {1} if {1} > {0} else {0}",  # builtin max(a, b), NaN and -0.0 included
    Div: "{v} = {0} / {1} if {1} != 0.0 else _checked_div({n})",
    Pow: "try:\n    {v} = {0} ** {1} if {0} > 0.0 else _checked_pow({0}, {1}, {n})\n"
         "except OverflowError:\n    {v} = _checked_pow({0}, {1}, {n})",
    "exp": "try:\n    {v} = _exp({0})\nexcept OverflowError:\n    {v} = _inf",
    "log": "{v} = _log({0}) if {0} > 0.0 else _checked_log({0}, {n})",
    "sin": "{v} = _sin({0}) if -_inf < {0} < _inf else _checked_trig({0}, {n})",
    "cos": "{v} = _cos({0}) if -_inf < {0} < _inf else _checked_trig({0}, {n})",
    "sqrt": "{v} = _sqrt({0}) if {0} >= 0.0 else _checked_sqrt({0}, {n})",
    "abs": "{v} = abs({0})",
}
_HELPERS = {"_checked_div": _checked_div, "_checked_pow": _checked_pow,
            "_checked_log": _checked_log, "_checked_sqrt": _checked_sqrt,
            "_checked_trig": _checked_trig, "_exp": math.exp, "_log": math.log,
            "_sin": math.sin, "_cos": math.cos, "_sqrt": math.sqrt, "_inf": math.inf}


def _operands(e: Expr) -> tuple:
    """e's operand subtrees, left first."""
    if isinstance(e, (Var, Num)):
        return ()
    return (e.a,) if isinstance(e, (Neg, Call)) else (e.a, e.b)


def emit(e, var: str, namespace: dict, tag: str) -> tuple[list[str], str | tuple]:
    """e, a tree or a nested tuple of trees, as straight-line Python statements
    of the variable named var (x_i is var followed by i), and the text of its
    value, or the tuple of them in e's shape: one statement per distinct node,
    each the node's float operation of _SEMANTICS, in the order a node-by-node
    evaluation first reaches it, left operand first. So every value and every
    first DomainError is the same as evaluating the tree node by node. A
    subtree that e holds more than once (differentiate reuses its operands, and
    two trees of a tuple may share one) is computed once into its own local, so
    the code grows with the distinct nodes, not with the expanded tree, which
    reaches 330,000 nodes for the second derivative of the deepest input.
    Finite literals are written as source; the helpers, the non-finite literals
    and the nodes (which a DomainError prints) are bound in namespace. Every
    name emit makes starts with tag, which keeps the emissions that share one
    namespace apart."""
    namespace.update(_HELPERS)
    texts: dict[int, str] = {}
    lines: list[str] = []

    def visit(node):
        if isinstance(node, tuple):
            return tuple(visit(child) for child in node)
        if isinstance(node, Var):
            return f"{var}{node.index or ''}"
        if id(node) in texts:
            return texts[id(node)]
        operands = []
        for child in _operands(node):
            operands.append(visit(child))
        i = len(texts)
        if isinstance(node, Num) and math.isfinite(node.value):
            text = f"({node.value!r})"
        elif isinstance(node, Num):
            text = f"{tag}c{i}"
            namespace[text] = node.value
        else:
            text = f"{tag}{i}"
            namespace[f"{tag}n{i}"] = node
            kind = node.fn if isinstance(node, Call) else type(node)
            lines.extend(_SEMANTICS[kind].format(*operands, v=text, n=f"{tag}n{i}").split("\n"))
        texts[id(node)] = text
        return text

    return lines, visit(e)


def _display(value) -> str:
    """emit's value text, or its nested tuple of texts as one tuple display."""
    return value if isinstance(value, str) else f"({', '.join(map(_display, value))},)"


def compile(e, dim: int = 1) -> Callable:
    """e, a tree or a nested tuple of trees, as a Python function of x, a float
    or, where dim is above 1, a sequence (x1, .., x<dim>), that returns e's
    value or values in e's shape. It is generated by emit and compiled once, and
    carries e as its ``tree``, which the solvers' loops emit inline."""
    namespace: dict = {}
    lines, result = emit(e, "x", namespace, "v")
    if dim > 1:
        lines.insert(0, ", ".join(f"x{i}" for i in range(1, dim + 1)) + " = x")
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def f(x):\n{body}    return {_display(result)}\n", namespace)
    f = namespace["f"]
    f.tree = e
    return f


def evaluate(e: Expr, x: float) -> float:
    """IEEE-754 double evaluation; raises DomainError outside the real domain.
    It compiles e on every call."""
    return compile(e)(x)


# --- smart constructors (constant folding only) --------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)


def _fold(cls, *operands):
    """cls(*operands), evaluated to a literal when every operand is one, else
    reduced by the first identity that applies; a literal node outside the
    domain (0^0, u/0) is not evaluated, but its identities still apply."""
    node = cls(*operands)
    if all(isinstance(e, Num) for e in operands):
        try:
            return Num(compile(node)(0.0))
        except DomainError:
            pass
    match node:
        case (Add(Num(0.0), u) | Add(u, Num(0.0)) | Sub(u, Num(0.0)) | Mul(Num(1.0), u)
              | Mul(u, Num(1.0)) | Div(u, Num(1.0)) | Pow(u, Num(1.0))):
            return u
        case Sub(Num(0.0), u):
            return _neg(u)
        case Mul(Num(0.0), _) | Mul(_, Num(0.0)) | Div(Num(0.0), _):
            return _ZERO
        case Pow(_, Num(0.0)):
            return _ONE
    return node


_add, _sub, _mul, _div, _pow, _neg = (partial(_fold, cls) for cls in (Add, Sub, Mul, Div, Pow, Neg))


# --- differentiation ------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative in the scalar x; literal subtrees are constant-folded,
    nothing more. A tree of a vector's variables, abs or max raises InputError."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var) and e.index or isinstance(e, Max) or getattr(e, "fn", "") == "abs":
        raise InputError(f"differentiate takes parsed trees of the scalar x only, not {pretty(e)}")
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.a))
    if isinstance(e, Add):
        return _add(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Sub):
        return _sub(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.a), e.b), _mul(e.a, differentiate(e.b)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.a), e.b), _mul(e.a, differentiate(e.b)))
        return _div(num, _pow(e.b, Num(2.0)))
    if isinstance(e, Pow):
        if isinstance(e.b, Num):
            # power rule: d(u^c) = c*u^(c-1)*u'
            c = e.b.value
            return _mul(_mul(Num(c), _pow(e.a, Num(c - 1.0))), differentiate(e.a))
        # general case: u^v * (v'*log(u) + v*u'/u)
        du, dv = differentiate(e.a), differentiate(e.b)
        bracket = _add(_mul(dv, Call("log", e.a)), _mul(e.b, _div(du, e.a)))
        return _mul(Pow(e.a, e.b), bracket)
    if isinstance(e, Call):
        du = differentiate(e.a)
        if e.fn == "exp":
            return _mul(Call("exp", e.a), du)
        if e.fn == "log":
            return _div(du, e.a)
        if e.fn == "sin":
            return _mul(Call("cos", e.a), du)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", e.a), du))
        if e.fn == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", e.a)))
    raise TypeError(f"not an expression node: {e!r}")


# --- pretty printing -------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5, Max: 5}


def pretty(e: Expr, var: str = "x") -> str:
    """Render the AST; parse(pretty(e)) evaluates identically to e."""

    def wrap(child, limit: int) -> str:
        s = pretty(child, var)
        return f"({s})" if _PREC[type(child)] < limit else s

    if isinstance(e, Num):  # parse knows no inf or nan, but 1e999 overflows to inf
        if math.isnan(e.value):
            return "(1e999 - 1e999)"
        text = f"{abs(e.value):.17g}" if math.isfinite(e.value) else "1e999"
        return "-" + text if math.copysign(1.0, e.value) < 0 else text
    if isinstance(e, Var):
        return f"{var}{e.index or ''}"
    if isinstance(e, Neg):
        return "-" + wrap(e.a, 3)
    if isinstance(e, Add):
        return f"{wrap(e.a, 1)} + {wrap(e.b, 2)}"
    if isinstance(e, Sub):
        return f"{wrap(e.a, 1)} - {wrap(e.b, 2)}"
    if isinstance(e, Mul):
        return f"{wrap(e.a, 2)}*{wrap(e.b, 3)}"
    if isinstance(e, Div):
        return f"{wrap(e.a, 2)}/{wrap(e.b, 3)}"
    if isinstance(e, Pow):
        # right-associative; left operand must be atomic-or-parenthesised, and a
        # negative literal too, since -2^2 parses as -(2^2)
        base = wrap(e.a, 5)
        if base.startswith("-"):
            base = f"({base})"
        return f"{base}^{wrap(e.b, 4)}"
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.a, var)})"
    if isinstance(e, Max):
        return f"max({pretty(e.a, var)}, {pretty(e.b, var)})"
    raise TypeError(f"not an expression node: {e!r}")
