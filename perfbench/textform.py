"""Parse the engine's text forms into sympy, independently of the engine.

The engine prints exact values over Q(i)[atoms] as plain text:

    5/16*h1*X1*Y1*pi*Omega3 + (-1/12+5/12i)*h1*X2*Y2*pi^2 + -1*A[1,1,4]
    (num) / (den)

Coefficients are Gaussian rationals written ``p/q``, ``p/qi`` (meaning
(p/q)*i), ``i`` or ``(a+bi)``; atoms are identifiers, optionally with an
index list such as ``A[1,1,4]``; ``^`` is an integer power.  The collected
form of a boundary density wraps coefficients of the reporting basis in
brackets: ``[c] * g(X^T,Y^T) + [c] * Xn*Yn + [c] * Xn*dYn + [c] (outside
basis)``.

Nothing here imports the engine: the benchmark checks the engine's outputs
with sympy's own arithmetic.
"""

from __future__ import annotations

import re
from typing import Dict, List

import sympy

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[[0-9,]+\])?)"
    r"|(?P<op>[-+*/^()]))"
)

_SYMBOLS: Dict[str, sympy.Symbol] = {}


def symbol(name: str) -> sympy.Symbol:
    s = _SYMBOLS.get(name)
    if s is None:
        s = _SYMBOLS[name] = sympy.Symbol(name)
    return s


def _tokens(text: str) -> List[tuple]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    return out


def _number(tok: str) -> sympy.Expr:
    imag = tok.endswith("i")
    body = tok[:-1] if imag else tok
    if "/" in body:
        p, q = body.split("/")
        val = sympy.Rational(int(p), int(q))
    else:
        val = sympy.Integer(int(body))
    return val * sympy.I if imag else val


class _Parser:
    """Recursive descent: sum of products of (signed) powers of atoms."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, op=None):
        tok = self.peek()
        if tok[0] is None or (op is not None and tok != ("op", op)):
            raise ValueError(f"expected {op!r} at token {self.pos}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> sympy.Expr:
        out = self.sum()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing input at token {self.pos}: {self.peek()[1]!r}")
        return out

    def sum(self) -> sympy.Expr:
        terms = [self.product()]
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            t = self.product()
            terms.append(t if op == "+" else -t)
        return sympy.Add(*terms)

    def product(self) -> sympy.Expr:
        factors = [self.unary()]
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            f = self.unary()
            factors.append(f if op == "*" else sympy.Pow(f, -1))
        return sympy.Mul(*factors)

    def unary(self) -> sympy.Expr:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> sympy.Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return sympy.Pow(base, self.unary())
        return base

    def atom(self) -> sympy.Expr:
        kind, tok = self.take()
        if kind == "num":
            return _number(tok)
        if kind == "name":
            return sympy.I if tok == "i" else symbol(tok)
        if tok == "(":
            inner = self.sum()
            self.take(")")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def parse(text: str) -> sympy.Expr:
    """The sympy value of an engine text form (`ScalarExpr.text()`)."""
    return _Parser(text).parse()


def is_zero(expr: sympy.Expr) -> bool:
    """Exact zero test for a rational function over Q(i)."""
    expr = sympy.expand(expr)
    if expr == 0:
        return True
    num, _ = sympy.fraction(sympy.together(expr))
    return sympy.expand(num) == 0


def equal(a: sympy.Expr, b: sympy.Expr) -> bool:
    return is_zero(a - b)


_BASIS = (
    ("] * g(X^T,Y^T)", "tangential"),
    ("] * Xn*Yn", "normal"),
    ("] * Xn*dYn", "normal_dyn"),
    ("] (outside basis)", "leftover"),
)


def parse_collected(text: str) -> Dict[str, sympy.Expr]:
    """Split a collected form into its basis coefficients (absent ones are 0)."""
    out = {key: sympy.Integer(0) for _, key in _BASIS}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        if text[pos] != "[":
            raise ValueError(f"collected form: expected '[' at {pos}")
        hits = [(text.find(marker, pos), marker, key) for marker, key in _BASIS]
        hits = [h for h in hits if h[0] >= 0]
        if not hits:
            raise ValueError("collected form: no basis marker")
        at, marker, key = min(hits)
        out[key] = parse(text[pos + 1:at])
        pos = at + len(marker)
        if text.startswith(" + ", pos):
            pos += 3
        elif pos != len(text):
            raise ValueError(f"collected form: expected ' + ' at {pos}")
    return out


def reassemble(collected: Dict[str, sympy.Expr]) -> sympy.Expr:
    """The density a collected form stands for, with g(X^T,Y^T) = sum X_jY_j."""
    x = [symbol(f"X{j}") for j in range(1, 5)]
    y = [symbol(f"Y{j}") for j in range(1, 5)]
    tang = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
    return (
        collected["tangential"] * tang
        + collected["normal"] * x[3] * y[3]
        + collected["normal_dyn"] * x[3] * symbol("dYn")
        + collected["leftover"]
    )
