"""The scalar kernel: packed monomials, stripping of the known denominator
bases by exact division, and cross-cancelled rational arithmetic, each
against a plain reimplementation."""

import pytest
from hypothesis import given, settings, strategies as st

from wresidue import scalars
from wresidue.gaussian import GRat
from wresidue.scalars import (
    EngineError,
    MAX_EXP,
    Poly,
    REG,
    ScalarExpr,
    mono_divides,
    mono_items,
    mono_pack,
)

_N = len(REG)

# exponent dicts over a few registry ids spread from the first to the last
_ids = st.sampled_from([0, 1, 2, 3, 4, 5, 14, 40, 100, 150, _N - 2, _N - 1])
_exps = st.dictionaries(_ids, st.integers(1, 9), max_size=5)


def old_key(items):
    """The graded-lex key the tuple monomials were sorted by."""
    return (sum(e for _, e in items), tuple((-s, e) for s, e in items))


def as_items(exps):
    return tuple(sorted(exps.items()))


@given(_exps, _exps)
@settings(max_examples=300, deadline=None)
def test_packed_order_is_the_graded_lex_key(ea, eb):
    a, b = as_items(ea), as_items(eb)
    ma, mb = mono_pack(a), mono_pack(b)
    assert mono_items(ma) == a and mono_items(mb) == b
    assert (ma < mb) == (old_key(a) < old_key(b))
    assert (ma == mb) == (a == b)


@given(_exps, _exps)
@settings(max_examples=300, deadline=None)
def test_divides_and_quotient_agree_with_fieldwise_check(ea, eb):
    ma, mb = mono_pack(as_items(ea)), mono_pack(as_items(eb))
    fieldwise = all(ea.get(s, 0) >= e for s, e in eb.items())
    assert mono_divides(ma, mb) == fieldwise
    if fieldwise:
        diff = {s: ea[s] - eb.get(s, 0) for s in ea if ea[s] != eb.get(s, 0)}
        assert mono_items(ma - mb) == as_items(diff)
    # a product is the sum of the packed ints
    prod_ = {s: ea.get(s, 0) + eb.get(s, 0) for s in set(ea) | set(eb)}
    assert ma + mb == mono_pack(as_items(prod_))


def test_exponent_and_degree_limits_raise():
    xi1, h1 = REG.id_of("xi1"), REG.id_of("h1")
    assert mono_items(Poly.var(xi1, MAX_EXP).leading()[0]) == ((xi1, MAX_EXP),)
    with pytest.raises(EngineError):
        Poly.var(xi1, MAX_EXP + 1)
    with pytest.raises(EngineError):
        mono_pack(((xi1, 128),))
    with pytest.raises(EngineError):
        mono_pack(((xi1, 100), (h1, 28)))
    with pytest.raises(EngineError):
        mono_pack(((xi1, -1),))
    with pytest.raises(EngineError):
        Poly.var(xi1, 64) * Poly.var(h1, 64)
    with pytest.raises(EngineError):
        Poly.var(xi1, 100) * (Poly.const(1) + Poly.var(xi1, 28))
    # the tuple keys of the checking constructor are packed the same way
    with pytest.raises(EngineError):
        Poly({((xi1, 128),): GRat(1)})
    assert (Poly.var(xi1, 63) * Poly.var(h1, 64)).leading()[0] == mono_pack(
        ((xi1, 63), (h1, 64)))
    assert Poly.var(xi1) ** 127 == Poly.var(xi1, 127)


# ---------------------------------------------------------------------------
# stripping the known denominator bases: the exact division is the
# divisibility witness
# ---------------------------------------------------------------------------

_coeff = st.builds(
    GRat,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
_poly_names = st.sampled_from(["xi1", "xi2", "xi3", "xin", "shx", "h1", "X1", "pi"])


@st.composite
def polys(draw, max_terms=4):
    out = Poly()
    for _ in range(draw(st.integers(1, max_terms))):
        mono = {}
        for _ in range(draw(st.integers(0, 3))):
            v = REG.id_of(draw(_poly_names))
            mono[v] = mono.get(v, 0) + draw(st.integers(1, 3))
        out = out + Poly({as_items(mono): draw(_coeff)})
    return out


@pytest.mark.parametrize("idx", range(4))
@given(q=polys())
@settings(max_examples=40, deadline=None)
def test_witness_never_rules_out_a_multiple_of_the_base(idx, q):
    base = scalars._BASES[idx][0]
    if q.is_zero():
        q = Poly.const(1)
    mult, rest = scalars._strip(base * q, idx)
    assert mult >= 1
    assert base ** mult * rest == base * q


def test_witness_rules_out_a_non_multiple():
    x1 = Poly.var(REG.id_of("xi1"))
    for idx, (base, _) in enumerate(scalars._BASES):
        p = base * base + x1
        assert scalars._strip(p, idx) == (0, p)


# ---------------------------------------------------------------------------
# cross-cancelled ScalarExpr operations against the normalizing constructor
# ---------------------------------------------------------------------------

# the engine's denominator bases: xin -/+ i, |xi|^2 and shx^2 |xi'|^2 + xin^2
_factors = [base for base, _ in scalars._BASES]


@st.composite
def fractions_(draw):
    """Rational functions whose denominators share factors with each other
    and with numerators, so that every cancellation path runs.  The
    denominators are products of the engine's bases, as in every report, so
    each gcd is the structured one (the generic gcd can stall on random
    input)."""
    den = Poly.const(draw(_coeff.filter(lambda c: not c.is_zero())))
    for f in draw(st.lists(st.sampled_from(_factors), max_size=3)):
        den = den * f
    num = draw(polys())
    for f in draw(st.lists(st.sampled_from(_factors), max_size=2)):
        num = num * f
    return ScalarExpr(num, den)


@given(fractions_(), fractions_())
@settings(max_examples=80, deadline=None)
def test_mul_and_add_equal_the_normalizing_constructor(a, b):
    assert a * b == ScalarExpr(a.num * b.num, a.den * b.den)
    assert a + b == ScalarExpr(a.num * b.den + b.num * a.den, a.den * b.den)
    assert a - a == scalars.S_ZERO and (a - a).den == scalars.P_ONE
    if not a.is_zero():
        assert a.inverse() == ScalarExpr(a.den, a.num)
    assert a ** 2 == ScalarExpr(a.num * a.num, a.den * a.den)


@given(fractions_(), polys(), st.sampled_from(_factors))
@settings(max_examples=60, deadline=None)
def test_sums_and_products_that_cancel_a_denominator_factor(a, q, f):
    # a + b and a * c are polynomials although a, b and c have denominators
    b = ScalarExpr(q * a.den - a.num, a.den)
    assert a + b == ScalarExpr.from_poly(q)
    c = ScalarExpr(q * a.den, f)
    assert a * c == ScalarExpr(a.num * q, f)
    assert c * a == a * c
