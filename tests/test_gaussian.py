"""Gaussian rationals as canonical integer triples, against a Fraction-pair oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from wresidue import scalars
from wresidue.gaussian import GRat, I


# ---------------------------------------------------------------------------
# the oracle: (re, im) pairs of Fractions
# ---------------------------------------------------------------------------

def ref(z):
    return (Fraction(z.re), Fraction(z.im))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return ref_inv(out) if k < 0 else out


def assert_canonical(z):
    assert type(z) is GRat
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1


parts = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)
grats = st.builds(GRat, parts, parts)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(grats, grats)
def test_add_sub_neg(x, y):
    for z, want in (
        (x + y, ref_add(ref(x), ref(y))),
        (x - y, ref_sub(ref(x), ref(y))),
        (-x, ref_sub((0, 0), ref(x))),
    ):
        assert_canonical(z)
        assert ref(z) == want


@settings(max_examples=300, deadline=None)
@given(grats, grats)
def test_mul_div_inverse(x, y):
    z = x * y
    assert_canonical(z)
    assert ref(z) == ref_mul(ref(x), ref(y))
    assume(not y.is_zero())
    for z, want in (
        (y.inverse(), ref_inv(ref(y))),
        (x / y, ref_mul(ref(x), ref_inv(ref(y)))),
    ):
        assert_canonical(z)
        assert ref(z) == want


@settings(max_examples=200, deadline=None)
@given(grats, st.integers(-5, 7))
def test_pow(x, k):
    assume(k >= 0 or not x.is_zero())
    z = x ** k
    assert_canonical(z)
    assert ref(z) == ref_pow(ref(x), k)


@settings(max_examples=200, deadline=None)
@given(grats, parts)
def test_mixed_operands(x, q):
    r = (Fraction(q), Fraction(0))
    for z, want in (
        (x + q, ref_add(ref(x), r)),
        (q + x, ref_add(r, ref(x))),
        (q - x, ref_sub(r, ref(x))),
        (x * q, ref_mul(ref(x), r)),
        (q * x, ref_mul(r, ref(x))),
    ):
        assert_canonical(z)
        assert ref(z) == want
    assert (GRat(q) == q) and (x == q) == (ref(x) == r)
    if not x.is_zero():
        z = q / x
        assert_canonical(z)
        assert ref(z) == ref_mul(r, ref_inv(ref(x)))


def test_zero_has_no_inverse():
    for op in (lambda: GRat(0).inverse(), lambda: I / GRat(0), lambda: GRat(0) ** -2):
        with pytest.raises(ZeroDivisionError):
            op()


# ---------------------------------------------------------------------------
# one value, one triple
# ---------------------------------------------------------------------------

def test_equal_values_have_equal_triples_and_hashes():
    builds = [
        (GRat(Fraction(2, 4)), GRat(1) / GRat(2)),
        (GRat(Fraction(3, 6), Fraction(-1, 3)), GRat(3, -2) / GRat(6)),
        (GRat(0), GRat(Fraction(5, 7)) - GRat(Fraction(10, 14))),
        (I, GRat(1) / GRat(0, -1)),
        (GRat(2), (GRat(1, 1) * GRat(1, -1))),
    ]
    for x, y in builds:
        assert_canonical(x)
        assert_canonical(y)
        assert x == y and hash(x) == hash(y)
        assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
    assert GRat(Fraction(4, 2)) == 2 and GRat(Fraction(1, 2)) == Fraction(1, 2)
    assert GRat(1, 1) != 1 and GRat(Fraction(1, 2)) != GRat(Fraction(1, 3))


def test_re_and_im_are_fractions():
    z = GRat(Fraction(-3, 4), Fraction(5, 6))
    assert (z.a, z.b, z.d) == (-9, 10, 12)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (Fraction(-3, 4), Fraction(5, 6))
    assert type(GRat(3).re) is Fraction and GRat(3).im == 0
    with pytest.raises(AttributeError):
        z.re = Fraction(1)


STR_TABLE = [
    ((0, 0), "0"),
    ((5, 0), "5"),
    ((-7, 0), "-7"),
    ((Fraction(3, 4), 0), "3/4"),
    ((Fraction(-3, 4), 0), "-3/4"),
    ((0, 1), "i"),
    ((0, -1), "-i"),
    ((0, 2), "2i"),
    ((0, Fraction(-2, 3)), "-2/3i"),
    ((1, 1), "1+i"),
    ((1, -1), "1-i"),
    ((Fraction(1, 2), Fraction(1, 2)), "1/2+1/2i"),
    ((Fraction(-1, 2), Fraction(-5, 6)), "-1/2-5/6i"),
    ((3, Fraction(2, 7)), "3+2/7i"),
    ((Fraction(3, 2), -1), "3/2-i"),
    ((0, Fraction(1, 1)), "i"),
]


@pytest.mark.parametrize("args,text", STR_TABLE)
def test_str(args, text):
    assert str(GRat(*args)) == text


def test_to_complex():
    assert GRat(Fraction(1, 3), Fraction(-2, 7)).to_complex() == complex(1 / 3, -2 / 7)


# ---------------------------------------------------------------------------
# names the benchmark tracer (perfbench/tracer.py) rebinds
# ---------------------------------------------------------------------------

def test_tracer_names_exist():
    cls = vars(GRat)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        assert callable(cls[name])
    # the tracer wraps the first name of each pair and binds both to it
    assert cls["__rmul__"] is cls["__mul__"]
    assert cls["__radd__"] is cls["__add__"]
    assert callable(scalars._structured_gcd)
    assert callable(scalars._poly_gcd_uncached)


def test_sub_neg_inverse_do_not_dispatch_through_add_or_mul(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(a, b):
            calls.append(name)
            return fn(a, b)
        return wrapper

    cls = vars(GRat)
    monkeypatch.setattr(GRat, "__add__", counting("add", cls["__add__"]))
    monkeypatch.setattr(GRat, "__mul__", counting("mul", cls["__mul__"]))
    x, y = GRat(Fraction(1, 2), 3), GRat(Fraction(-2, 3), Fraction(1, 5))
    assert x - y == GRat(Fraction(7, 6), Fraction(14, 5))
    assert -x == GRat(Fraction(-1, 2), -3)
    assert 1 - x == GRat(Fraction(1, 2), -3)
    assert x.inverse() == GRat(Fraction(2, 37), Fraction(-12, 37))
    assert calls == []
