"""Exact arithmetic over the Gaussian rationals Q(i).

Every coefficient in the engine lives here, as one canonical integer triple
(a, b, d) that means (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  Equal
values have equal triples, so equality and hashing compare three ints, and
every operation runs on Python ints, with a fast path for d == 1.

The triple rule has one home: `_canon` for one value, and two dict-level
kernels for the term loops of a sparse polynomial, `_terms_product` (the
coefficient dict of a product; keys add) and `_terms_add` (acc += +/-terms
in place).  Each runs its whole loop on the triples, with no GRat operator
called per term, so a polynomial pays one call per loop, not one per term.

`fractions.Fraction` appears only at the edges: the constructor accepts it,
and the read-only `re` and `im` views return it.  Floats only appear through
the explicit `to_complex` escape hatch used by the numeric oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

_FracLike = Union[int, Fraction]


def _parts(x: _FracLike):
    """(numerator, denominator) of an int or Fraction input."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _qstr(n: int, d: int) -> str:
    """The text of n/d in lowest terms, as `str(Fraction(n, d))` writes it."""
    g = gcd(n, d)
    if g != d:
        return f"{n // g}/{d // g}"
    return str(n // g)


class GRat:
    """A Gaussian rational (a + b*i)/d, stored as its canonical triple."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: _FracLike = 0, im: _FracLike = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        rn, rd = _parts(re)
        jn, jd = _parts(im)
        # each part is in lowest terms, so a prime dividing d = lcm(rd, jd)
        # misses at least one numerator: the triple is already canonical
        d = rd * jd // gcd(rd, jd)
        self.a, self.b, self.d = rn * (d // rd), jn * (d // jd), d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: "GRat | int | Fraction") -> "GRat":
        if isinstance(value, GRat):
            return value
        return GRat(value)

    # -- views -------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_one(self) -> bool:
        return self.a == 1 and self.d == 1 and not self.b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GRat:
            other = GRat.of(other)
        d = self.d
        if d == other.d:
            a = self.a + other.a
            b = self.b + other.b
            if d == 1:
                return _raw(a, b, 1)
            return _canon(a, b, d)
        e = other.d
        return _canon(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GRat:
            other = GRat.of(other)
        d = self.d
        if d == other.d:
            a = self.a - other.a
            b = self.b - other.b
            if d == 1:
                return _raw(a, b, 1)
            return _canon(a, b, d)
        e = other.d
        return _canon(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return GRat.of(other) - self

    def __mul__(self, other):
        if type(other) is not GRat:
            other = GRat.of(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d == 1:
            return _raw(a * c - b * e, a * e + b * c, 1)
        return _canon(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self) -> "GRat":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero Gaussian rational")
            # gcd(a, d) = 1 already
            return _raw(d, 0, a) if a > 0 else _raw(-d, 0, -a)
        return _canon(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        return self * GRat.of(other).inverse()

    def __rtruediv__(self, other):
        return GRat.of(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons / hash ------------------------------------------------

    def __eq__(self, other):
        if type(other) is not GRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GRat(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _qstr(a, d)
        if not a:
            if b == d:
                return "i"
            if b == -d:
                return "-i"
            return f"{_qstr(b, d)}i"
        sign = "+" if b > 0 else "-"
        mag = abs(b)
        imag = "i" if mag == d else f"{_qstr(mag, d)}i"
        return f"{_qstr(a, d)}{sign}{imag}"

    def __repr__(self):
        return f"GRat({self.re!r}, {self.im!r})"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GRat:
    """A GRat from a triple that is already canonical."""
    z = _new(GRat)
    z.a = a
    z.b = b
    z.d = d
    return z


def _canon(a: int, b: int, d: int) -> GRat:
    """A GRat from (a + b i)/d with d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    z = _new(GRat)
    if g == 1:
        z.a = a
        z.b = b
        z.d = d
    else:
        z.a = a // g
        z.b = b // g
        z.d = d // g
    return z


def _terms_add(acc: dict, terms: dict, sign: int = 1) -> None:
    """acc += sign * terms in place, sign 1 or -1, over any keys: a key new
    to acc takes the coefficient (negated when sign is -1), and a sum that
    cancels is deleted, so acc keeps no zero coefficient."""
    get = acc.get
    new = _new
    for m, c in terms.items():
        cur = get(m)
        if cur is None:
            if sign > 0:
                acc[m] = c
            else:
                z = new(GRat)
                z.a = -c.a
                z.b = -c.b
                z.d = c.d
                acc[m] = z
            continue
        d, e = cur.d, c.d
        if d == e:
            a = cur.a + sign * c.a
            b = cur.b + sign * c.b
            if not (a or b):
                del acc[m]
                continue
            g = 1 if d == 1 else gcd(a, b, d)
        else:
            # canonical triples of opposite values share their d, so this
            # sum is not zero
            a = cur.a * e + sign * c.a * d
            b = cur.b * e + sign * c.b * d
            d *= e
            g = gcd(a, b, d)
        z = new(GRat)
        if g == 1:
            z.a = a
            z.b = b
            z.d = d
        else:
            z.a = a // g
            z.b = b // g
            z.d = d // g
        acc[m] = z


def _terms_product(st: dict, ot: dict) -> dict:
    """The coefficient dict of the product of two polynomials, given theirs:
    each pair of terms adds its keys and multiplies its triples.

    A key's first pair builds a fresh GRat, not yet canonical, and a later
    pair on that key adds into it in place over the lcm of the two
    denominators; no other code sees these objects until the last pass
    divides each by gcd(a, b, d) and drops the zeros."""
    acc: dict = {}
    get = acc.get
    new = _new
    rows = [(m, c.a, c.b, c.d) for m, c in ot.items()]
    for m1, c1 in st.items():
        a1, b1, d1 = c1.a, c1.b, c1.d
        for m2, a2, b2, d2 in rows:
            m = m1 + m2
            cur = get(m)
            if cur is None:
                z = new(GRat)
                z.a = a1 * a2 - b1 * b2
                z.b = a1 * b2 + b1 * a2
                z.d = d1 * d2
                acc[m] = z
                continue
            d, e = cur.d, d1 * d2
            if d == e:
                cur.a += a1 * a2 - b1 * b2
                cur.b += a1 * b2 + b1 * a2
            else:
                g = gcd(d, e)
                u, v = e // g, d // g
                cur.a = cur.a * u + (a1 * a2 - b1 * b2) * v
                cur.b = cur.b * u + (a1 * b2 + b1 * a2) * v
                cur.d = d * u
    zeros = []
    for m, z in acc.items():
        a, b, d = z.a, z.b, z.d
        if not (a or b):
            zeros.append(m)
        elif d != 1:
            g = gcd(a, b, d)
            if g != 1:
                z.a = a // g
                z.b = b // g
                z.d = d // g
    for m in zeros:
        del acc[m]
    return acc


ZERO = GRat(0)
ONE = GRat(1)
I = GRat(0, 1)
