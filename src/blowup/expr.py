"""Single-variable arithmetic expressions with exact symbolic differentiation.

Grammar (EBNF), in order of increasing precedence; ``^`` is right-associative
and binds tighter than unary minus:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'log' | 'sin' | 'cos' | 'sqrt'

There is no implicit multiplication: ``2x`` is a syntax error. ``log`` is the
natural logarithm. ``a^b`` with non-integer ``b`` requires ``a > 0``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    pass


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
class Neg:
    a: object


@dataclass(frozen=True)
class Call:
    fn: str
    a: object


Expr = Var | Num | Add | Sub | Mul | Div | Pow | Neg | Call


# --- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, offset) triples; kinds: num, ident, op, end."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(i, f"bad number literal {lit!r}") from None
            out.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, f"unexpected character {ch!r}")
    out.append(("end", None, n))
    return out


# --- recursive-descent parser -------------------------------------------------


class _Parser:
    def __init__(self, tokens, var):
        self.toks = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            self.next()
            return
        raise ExprSyntaxError(off, f"expected {op!r}")

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(node, self.unary())
        return node

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val == self.var:
                return Var()
            if val in FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Call(val, inner)
            raise ExprSyntaxError(off, f"unknown identifier {val!r} (variable is {self.var!r})")
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(off, "expected a number, variable, function call or '('")


def parse(text: str, var: str = "x") -> Expr:
    """Parse ``text`` into an AST whose single variable is named ``var``."""
    p = _Parser(_tokenize(text), var)
    node = p.expr()
    kind, _, off = p.peek()
    if kind != "end":
        raise ExprSyntaxError(off, "expected operator or end of input")
    return node


# --- evaluation ---------------------------------------------------------------


def _eval_pow(base: float, exponent: float, node) -> float:
    if base > 0.0:
        try:
            return base ** exponent
        except OverflowError:
            return math.inf
    if float(exponent).is_integer():
        if base == 0.0 and exponent <= 0.0:
            raise DomainError(f"0 raised to nonpositive power in '{pretty(node)}'")
        try:
            return base ** int(exponent)
        except OverflowError:
            return math.inf
        except ZeroDivisionError:
            raise DomainError(f"0 raised to negative power in '{pretty(node)}'") from None
    raise DomainError(
        f"negative base {base!r} with non-integer exponent in '{pretty(node)}'"
    )


def evaluate(e: Expr, x: float) -> float:
    """IEEE-754 double evaluation; raises DomainError outside the real domain."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -evaluate(e.a, x)
    if isinstance(e, Add):
        return evaluate(e.a, x) + evaluate(e.b, x)
    if isinstance(e, Sub):
        return evaluate(e.a, x) - evaluate(e.b, x)
    if isinstance(e, Mul):
        return evaluate(e.a, x) * evaluate(e.b, x)
    if isinstance(e, Div):
        num, den = evaluate(e.a, x), evaluate(e.b, x)
        if den == 0.0:
            raise DomainError(f"division by zero in '{pretty(e)}'")
        return num / den
    if isinstance(e, Pow):
        return _eval_pow(evaluate(e.a, x), evaluate(e.b, x), e)
    if isinstance(e, Call):
        v = evaluate(e.a, x)
        if e.fn == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        if e.fn == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v!r} in '{pretty(e)}'")
            return math.log(v)
        if e.fn == "sin":
            return math.sin(v)
        if e.fn == "cos":
            return math.cos(v)
        if e.fn == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v!r} in '{pretty(e)}'")
            return math.sqrt(v)
    raise TypeError(f"not an expression node: {e!r}")


# --- smart constructors (constant folding only) --------------------------------


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    return Neg(a)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            return Num(_eval_pow(a.value, b.value, Pow(a, b)))
        except DomainError:
            pass
    return Pow(a, b)


# --- differentiation ------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative; literal subtrees are constant-folded, nothing more."""
    if isinstance(e, Num):
        return Num(0.0)
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

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def _prec(e) -> int:
    return _PREC[type(e)]


def pretty(e: Expr, var: str = "x") -> str:
    """Render the AST; parse(pretty(e)) evaluates identically to e."""

    def wrap(child, limit: int) -> str:
        s = pretty(child, var)
        return f"({s})" if _prec(child) < limit else s

    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            return f"-{abs(e.value):.17g}"
        return f"{e.value:.17g}"
    if isinstance(e, Var):
        return var
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
        # right-associative; left operand must be atomic-or-parenthesised
        return f"{wrap(e.a, 5)}^{wrap(e.b, 4)}"
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.a, var)})"
    raise TypeError(f"not an expression node: {e!r}")
