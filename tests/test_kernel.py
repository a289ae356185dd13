"""The scalar kernel: packed monomials and their two orders, stripping of the known denominator
bases by exact division, cross-cancelled rational arithmetic, and the
triple kernels of products, sums and the co-sphere reduction, each against
a plain reimplementation."""

import functools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from wresidue import scalars
from wresidue.gaussian import GRat, _terms_add
from wresidue.scalars import (
    EngineError,
    MAX_EXP,
    Poly,
    REG,
    ScalarExpr,
    mono_divides,
    mono_items,
    mono_pack,
    mono_rank,
    poly_divexact,
    poly_text,
)
from wresidue.verify import _rand_halfline

_N = len(REG)

# exponent dicts over a few registry ids spread from the first to the last
_ids = st.sampled_from([0, 1, 2, 3, 4, 5, 14, _N // 3, _N // 2, 2 * _N // 3, _N - 2, _N - 1])
_exps = st.dictionaries(_ids, st.integers(1, 9), max_size=5)
_coeff = st.builds(
    GRat,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


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
    assert (mono_rank(ma) < mono_rank(mb)) == (old_key(a) < old_key(b))
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


@given(st.dictionaries(st.integers(0, 14), st.integers(1, 40), max_size=6))
@settings(max_examples=200, deadline=None)
def test_a_monomial_over_low_ids_is_as_wide_as_its_highest_id(exps):
    # ids 0-14 are the cotangent variables, shx, h1, X, Y and dYn: with the
    # degree byte that is 16 bytes, whatever the registry holds after them
    items = as_items(exps)
    if sum(exps.values()) > MAX_EXP:
        with pytest.raises(EngineError):
            mono_pack(items)
        return
    m = mono_pack(items)
    assert m.bit_length() <= 128
    assert mono_items(m) == items
    half = {s: e // 2 for s, e in exps.items() if e // 2}
    prod_ = Poly.var(REG.id_of("xi1")) * Poly({as_items(half): GRat(1)})
    assert all(k.bit_length() <= 128 for k in prod_.terms)


# ---------------------------------------------------------------------------
# exact division in the native int order of the packed monomials
# ---------------------------------------------------------------------------

# low and high ids, so that the native order (highest id first) and the
# graded-lex order pick different leading terms
_div_names = st.sampled_from(["xi1", "xi3", "xin", "shx", "h1", "A[1,2,3]", "R[1,2,1,2]",
                              "gXTYT", "pi", "Omega3"])


@st.composite
def div_polys(draw, max_terms=4):
    out = Poly()
    for _ in range(draw(st.integers(1, max_terms))):
        mono = {}
        for _ in range(draw(st.integers(0, 3))):
            v = REG.id_of(draw(_div_names))
            mono[v] = mono.get(v, 0) + draw(st.integers(1, 3))
        out = out + Poly({as_items(mono): draw(_coeff)})
    return out


@given(div_polys(), div_polys(), _coeff.filter(lambda c: not c.is_zero()))
@settings(max_examples=150, deadline=None)
def test_exact_division_recovers_the_quotient_and_rejects_a_non_multiple(a, b, c):
    if b.is_zero():
        return
    assert poly_divexact(a * b, b) == a
    if not b.is_const():
        # b divides no nonzero constant, so it divides no a*b + c
        with pytest.raises(EngineError):
            poly_divexact(a * b + Poly.const(c), b)


def test_exact_division_where_the_two_orders_disagree():
    xi1, pi, om = (Poly.var(REG.id_of(n)) for n in ("xi1", "pi", "Omega3"))
    b = xi1 * xi1 + pi  # graded-lex leads with xi1^2, the native order with pi
    assert b.leading()[0] == mono_pack(((REG.id_of("xi1"), 2),))
    assert max(b.terms) == mono_pack(((REG.id_of("pi"), 1),))
    a = xi1 * om + Poly.const(GRat(0, 1))
    assert poly_divexact(a * b, b) == a
    with pytest.raises(EngineError):
        poly_divexact(a * b + xi1, b)


def test_a_failing_division_stops_at_the_degree_bound(monkeypatch):
    from wresidue import scalars

    steps = []
    monkeypatch.setattr(scalars, "mono_divides",
                        lambda a, b: steps.append(a) or mono_divides(a, b))
    xi1, pi = (Poly.var(REG.id_of(n)) for n in ("xi1", "pi"))
    b = pi + xi1 * xi1  # leads with pi natively: each step trades pi for xi1^2
    for k in (1, 3, 100, MAX_EXP):
        steps.clear()
        with pytest.raises(EngineError, match="inexact polynomial division"):
            poly_divexact(pi ** k, b)
        # deg(a) < deg(b) fails before any step; otherwise pi^(k-1), the
        # first quotient term, already passes deg(a) - deg(b)
        assert len(steps) == (k >= 2), k
    with pytest.raises(EngineError, match="inexact polynomial division"):
        poly_divexact(pi, b * pi)


# ---------------------------------------------------------------------------
# the renderers list terms in graded-lex order
# ---------------------------------------------------------------------------

@given(st.lists(_exps, min_size=1, max_size=8, unique_by=lambda e: as_items(e)))
@settings(max_examples=100, deadline=None)
def test_renderers_list_terms_in_the_graded_lex_key(monos):
    from wresidue.report import _poly_tree

    items = [as_items(e) for e in monos]
    # coefficient k + 2 marks term k in every rendering
    p = Poly({it: GRat(k + 2) for k, it in enumerate(items)})
    want = sorted(range(len(items)), key=lambda k: old_key(items[k]), reverse=True)
    assert [int(part.split("*")[0]) - 2 for part in poly_text(p).split(" + ")] == want
    tree = _poly_tree(p)
    assert [t["coeff"]["re"][0] - 2 for t in tree] == want
    assert [tuple((REG.id_of(n), e) for n, e in t["monomial"]) for t in tree] == [
        items[k] for k in want]


# ---------------------------------------------------------------------------
# stripping the known denominator bases: the exact division is the
# divisibility witness
# ---------------------------------------------------------------------------

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


def _plain_strip(work, idx, cap=None):
    """The strip loop with no root check: divide until a division fails."""
    base = scalars._BASES[idx][0]
    mult = 0
    while mult != cap:
        try:
            work = poly_divexact(work, base)
        except EngineError:
            break
        mult += 1
    return mult, work


@given(polys(), st.sampled_from(range(4)), st.integers(0, 3), polys(), st.sampled_from(range(4)),
       st.one_of(st.none(), st.integers(0, 4)))
@settings(max_examples=250, deadline=None)
def test_strip_with_the_root_check_equals_the_plain_division_loop(p, made_of, k, q, idx, cap):
    """p * base^k * q for any of the four bases, stripped by any of them,
    capped or not: the check before each division by a linear base
    (p(xin = +/-i) = 0) gives the multiplicity and quotient that dividing
    until a division fails gives."""
    work = p * scalars._BASES[made_of][0] ** k * q
    if work.is_zero():
        return
    assert scalars._strip(work, idx, cap) == _plain_strip(work, idx, cap)


def _base_divides(p, idx):
    try:
        poly_divexact(p, scalars._BASES[idx][0])
    except EngineError:
        return False
    return True


@given(polys(), st.sampled_from([0, 1]), st.integers(0, 2), st.one_of(st.none(), polys()))
@settings(max_examples=200, deadline=None)
def test_the_root_check_agrees_with_exact_division(p, made_of, k, q):
    """p(xin = i) = 0 exactly when xin - i divides p, and p(xin = -i) = 0
    exactly when xin + i does, on multiples of either base and on sums that
    are not."""
    work = p * scalars._BASES[made_of][0] ** k
    if q is not None:
        work = work + q
    for idx, quarter in scalars._LINEAR_ROOTS.items():
        assert scalars._vanishes_at_root(work, quarter) == _base_divides(work, idx)


@given(polys(), st.sampled_from([0, 1]), _coeff.filter(lambda c: not c.is_zero()),
       st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_the_root_check_looks_past_a_first_group_that_vanishes(r, idx, c, e):
    """The terms that share the first term's rest vanish at the root and
    the terms of another rest do not: p does not vanish there, and the
    linear base does not divide it."""
    vanishing = (r if r.terms else Poly.const(1)) * scalars._BASES[idx][0]
    # X2 is in no term of vanishing, so this term's rest is a group of its own
    other = Poly({((REG.id_of("xin"), e), (REG.id_of("X2"), 1)): c})
    p = Poly({**vanishing.terms, **other.terms}, _trusted=True)
    first = next(iter(p.terms)) & scalars._REST_FIELDS
    group = Poly({m: v for m, v in p.terms.items() if m & scalars._REST_FIELDS == first},
                 _trusted=True)
    assert _base_divides(group, idx)
    assert not scalars._vanishes_at_root(p, scalars._LINEAR_ROOTS[idx])
    assert not _base_divides(p, idx)


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


@given(fractions_(), fractions_(), st.lists(st.sampled_from(_factors), max_size=2))
@settings(max_examples=80, deadline=None)
def test_factored_product_equals_the_normalizing_constructor(a, b, shared):
    """a/b * c/d with both denominators over the known bases, c holding some
    bases of b and the two denominators some bases in common: the product
    strips its numerators with no gcd and equals ScalarExpr(a*c, b*d)."""
    extra = functools.reduce(operator.mul, shared, Poly.const(1))
    c = ScalarExpr(b.num * a.den, b.den * extra)
    wants = [ScalarExpr(x.num * y.num, x.den * y.den) for x, y in ((a, c), (c, a), (a, b))]

    def no_gcd(*_):
        raise AssertionError("a product over factored denominators ran a gcd")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "poly_gcd", no_gcd)
        assert [a * c, c * a, a * b] == wants


def _generic_canonical(num, den):
    """(num, den) cancelled by the generic gcd and scaled to a monic den."""
    if num.is_zero():
        return scalars.P_ZERO, scalars.P_ONE
    if not den.is_const():
        g = scalars._poly_gcd_uncached(num, den)
        num, den = poly_divexact(num, g), poly_divexact(den, g)
    inv = den.leading()[1].inverse()
    return num.scale(inv), den.scale(inv)


# (xin -/+ i shx): the linear bases once shx = 1
_SHIFTED = [Poly.var(scalars.XIN) + Poly.var(scalars.SHX).scale(GRat(0, s)) for s in (-1, 1)]


@st.composite
def halfline_products(draw):
    """A random rational of `verify._rand_halfline` and a factor u * N / D:
    u a quadratic in shx, N a product of powers of xin -/+ i and
    xin -/+ i shx, D a product of up to two of xin -/+ i and at most one
    shx^2 |xi'|^2 + xin^2, never 1.  Restriction changes the denominators:
    the last base becomes (xin - i)(xin + i) on the sphere, and
    xin -/+ i shx a linear base at shx = 1.  |xi|^2 and higher powers of
    the last base stay out of the inputs, because the generic gcd can
    stall on them."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    f = _rand_halfline(rng, decay=rng.choice((0, 1, 2)))
    shx = Poly.var(scalars.SHX)
    num = Poly()
    for e in range(3):
        num = num + (shx ** e).scale(draw(_coeff))
    if num.is_zero():
        num = Poly.const(1)
    lin_minus, lin_plus, _, sphere_shx = _factors
    for base, e in draw(st.lists(st.tuples(st.sampled_from([lin_minus, lin_plus] + _SHIFTED),
                                          st.integers(1, 3)), max_size=2)):
        num = num * base ** e
    den = sphere_shx if draw(st.booleans()) else Poly.const(1)
    for base in draw(st.lists(st.sampled_from([lin_minus, lin_plus]),
                              min_size=int(den.is_const()), max_size=2)):
        den = den * base
    return f, ScalarExpr(num, den)


@given(halfline_products())
@settings(max_examples=60, deadline=None)
def test_products_and_restrictions_equal_the_generic_gcd(pair):
    """`__mul__`, `subst_shx_one` and `restrict_sphere` cancel over the known
    bases; each equals the uncancelled result normalized by the generic gcd.
    The inputs stay small, and `subst_shx_one` is checked only where shx
    is not in the denominator, which would put |xi|^2 there: the generic
    gcd can stall on those and on the paper's stage values."""
    f, k = pair
    h = f * k
    assert (h.num, h.den) == _generic_canonical(f.num * k.num, f.den * k.den)

    def at_one(p):
        return scalars._poly_subst_one(p, scalars.SHX)

    def on_sphere(p):
        return scalars._poly_reduce_sphere(at_one(p))

    got = h.restrict_sphere()
    assert (got.num, got.den) == _generic_canonical(on_sphere(h.num), on_sphere(h.den))
    if scalars.SHX not in h.den.variables():
        got = h.subst_shx_one()
        assert (got.num, got.den) == _generic_canonical(at_one(h.num), at_one(h.den))


# ---------------------------------------------------------------------------
# the n-ary sum and the quotient rule against the `+` fold and the
# normalizing constructor
# ---------------------------------------------------------------------------

# a denominator that does not factor over the bases: `scalar_sum` folds
_NON_FACTORING = Poly.var(REG.id_of("h1")) + Poly.const(3)


@st.composite
def sums_(draw):
    """0-6 terms: base-product denominators, a repeated denominator, a term
    that cancels another, and at times one denominator off the bases."""
    xs = draw(st.lists(fractions_(), max_size=3))
    if xs and draw(st.booleans()):
        x = draw(st.sampled_from(xs))
        xs.append(ScalarExpr(draw(polys()) * x.den + x.num, x.den))
    if xs and draw(st.booleans()):
        xs.append(-draw(st.sampled_from(xs)))
    if draw(st.booleans()):
        xs.append(ScalarExpr(draw(polys()), _NON_FACTORING))
    return draw(st.permutations(xs))


@given(sums_())
@settings(max_examples=150, deadline=None)
def test_scalar_sum_equals_the_add_fold(xs):
    assert scalars.scalar_sum(xs) == functools.reduce(operator.add, xs, scalars.S_ZERO)


@given(sums_(), sums_())
@settings(max_examples=60, deadline=None)
def test_signed_scalar_sum_equals_the_fold(xs, ys):
    """Terms subtracted in the sum, without their negations formed first."""
    want = functools.reduce(operator.add, xs + [-y for y in ys], scalars.S_ZERO)
    assert scalars.scalar_sum(xs, ys) == want
    assert scalars.scalar_sum(iter(xs), iter(ys)) == want
    assert scalars.scalar_sum(ys, ys).is_zero()


# a fixed factor off the bases: two denominators that hold it take the
# general route of a sum, gcd(b, d) then gcd(t, gcd(b, d)); it stays small,
# because the generic gcd can stall on random input
_OFF_BASES = Poly.var(REG.id_of("xi1")) + Poly.var(REG.id_of("h1"))


@st.composite
def pairs_sharing_powers(draw):
    """a/b and c/d whose denominators share some bases at the same power,
    some of them with a sum q/k that cancels bases of both.  In the generic
    kind b and d share `_OFF_BASES` and at most one linear base each, and
    half of those pairs have a sum that cancels it."""
    kind = draw(st.sampled_from(("shared", "cancel", "any", "generic")))
    if kind == "generic":
        # small inputs: at most one linear base beside the shared factor
        lin = st.sampled_from(_factors[:2] + [Poly.const(1)])
        a = ScalarExpr(draw(polys(max_terms=2)), _OFF_BASES * draw(lin))
        extra = draw(lin)
        if draw(st.booleans()):
            return a, ScalarExpr(draw(polys(max_terms=2)), _OFF_BASES * extra)
        kind = "cancel"
    else:
        a = draw(fractions_())
        extra = Poly.const(1)
        for f in draw(st.lists(st.sampled_from(_factors), max_size=2)):
            extra = extra * f
    if kind == "shared":
        return a, ScalarExpr(draw(polys()), a.den * extra)
    if kind == "cancel":
        q = draw(polys())
        return a, ScalarExpr(q * a.den - a.num * extra, extra * a.den)
    return a, draw(fractions_())


@given(pairs_sharing_powers())
@settings(max_examples=120, deadline=None)
def test_two_term_add_equals_the_normalizing_constructor(pair):
    a, c = pair
    want = ScalarExpr(a.num * c.den + c.num * a.den, a.den * c.den)
    assert a + c == want and c + a == want
    assert scalars.scalar_sum([a, c]) == want


@given(pairs_sharing_powers())
@settings(max_examples=120, deadline=None)
def test_two_term_sub_equals_the_normalizing_constructor(pair):
    a, c = pair
    want = ScalarExpr(a.num * c.den - c.num * a.den, a.den * c.den)
    assert a - c == want and c - a == -want
    assert (a - a).is_zero() and a - scalars.S_ZERO == a and scalars.S_ZERO - a == -a


def _count_base_tests(monkeypatch):
    """The size of every dividend that a base is tested against: by an
    exact division, or by the check before it (a root of a linear base)."""
    calls = []
    for name in ("poly_divexact", "_vanishes_at_root"):
        def counted(a, *rest, real=getattr(scalars, name)):
            calls.append(len(a.terms))
            return real(a, *rest)

        monkeypatch.setattr(scalars, name, counted)
    return calls


def test_sum_tests_no_base_that_only_one_term_carries_at_top_power(monkeypatch):
    lin_minus, lin_plus, sphere, _ = _factors
    xi1, h1 = (ScalarExpr.var(n) for n in ("xi1", "h1"))
    # xin - i: top power 2 in t1 only; xin + i: 2 in t2 only; |xi|^2: 1 in t3 only
    t1 = ScalarExpr(xi1.num, lin_minus ** 2)
    t2 = ScalarExpr(h1.num + Poly.const(1), lin_plus ** 2 * lin_minus)
    t3 = ScalarExpr(xi1.num * h1.num, sphere * lin_minus * lin_plus)
    terms = [t1, t2, t3]
    want = functools.reduce(operator.add, terms)
    scalars.scalar_sum(terms)  # factors the denominators once
    calls = _count_base_tests(monkeypatch)
    assert scalars.scalar_sum(terms) == want
    assert calls == []
    # two terms at the top power of xin - i: that base is tested
    assert scalars.scalar_sum(terms + [t1]) == want + t1
    assert calls


_DIFF_VARS = [REG.id_of(n) for n in ("xin", "xi1", "shx", "X1")]


@given(fractions_(), st.sampled_from(_DIFF_VARS))
@settings(max_examples=150, deadline=None)
def test_differentiate_equals_the_normalizing_quotient_rule(f, v):
    n, d = f.num, f.den
    assert f.differentiate(v) == ScalarExpr(n.diff(v) * d - n * d.diff(v), d * d)


def test_differentiate_cancels_a_base_free_of_the_variable():
    lin_minus, _, sphere, _ = _factors
    f = ScalarExpr(lin_minus + sphere, lin_minus * sphere)
    got = f.differentiate("xi1")
    assert got == ScalarExpr(Poly.var(REG.id_of("xi1")).scale(-2), sphere * sphere)
    assert got.den == sphere * sphere


# ---------------------------------------------------------------------------
# the triple kernels against the operator loops they replaced
# ---------------------------------------------------------------------------

def _ref_accumulate(acc, terms, sign=1):
    """acc += sign * terms with one GRat operator per term: the loop that
    `_terms_add` replaced."""
    for m, c in terms.items():
        if sign < 0:
            c = -c
        cur = acc.get(m)
        if cur is None:
            acc[m] = c
        else:
            s = cur + c
            if s.is_zero():
                del acc[m]
            else:
                acc[m] = s


def _ref_product(st_, ot):
    """The coefficient dict of a product, one GRat product and sum per pair
    of terms: the loop of `Poly.__mul__` before `_terms_product`."""
    out = {}
    for m1, c1 in st_.items():
        for m2, c2 in ot.items():
            _ref_accumulate(out, {m1 + m2: c1 * c2})
    return out


def _ref_reduce_sphere(p):
    """xi3^(2k+r) -> (1 - xi1^2 - xi2^2)^k xi3^r, each term expanded against
    the k-th power: the reduction before Horner's rule."""
    xi3 = REG.id_of("xi3")
    complement = {0: GRat(1), mono_pack(((REG.id_of("xi1"), 2),)): GRat(-1),
                  mono_pack(((REG.id_of("xi2"), 2),)): GRat(-1)}
    out = {}
    for m, c in p.terms.items():
        k = dict(mono_items(m)).get(xi3, 0) // 2
        power = {0: GRat(1)}
        for _ in range(k):
            power = _ref_product(power, complement)
        rest = m - mono_pack(((xi3, 2 * k),))
        _ref_accumulate(out, {rest + cm: c * cc for cm, cc in power.items()})
    return out


def _triples(terms):
    """The exact triples, so that a sum or product left undivided by
    gcd(a, b, d) differs from the canonical one."""
    return {m: (c.a, c.b, c.d) for m, c in terms.items()}


def _canonical(terms):
    return all(c.d > 0 and math.gcd(c.a, c.b, c.d) == 1 and (c.a or c.b)
               for c in terms.values())


# few keys over low and high ids, so that products and sums collide often
_KEY_POOL = [mono_pack(items) for items in (
    (), ((0, 1),), ((0, 2),), ((1, 1),), ((0, 1), (1, 1)), ((3, 1),), ((0, 1), (3, 2)),
    ((_N - 1, 1),), ((0, 1), (_N - 1, 1)))]
_int_coeff = st.builds(GRat, st.integers(-3, 3), st.integers(-3, 3))  # d = 1
_frac_part = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_mixed_coeff = st.builds(GRat, _frac_part, _frac_part)  # mixed denominators
_kernel_coeff = st.one_of(_int_coeff, _mixed_coeff, st.just(GRat(1))).filter(
    lambda c: not c.is_zero())
_kernel_terms = st.dictionaries(st.sampled_from(_KEY_POOL), _kernel_coeff, min_size=1,
                                max_size=6)


@given(_kernel_terms, _kernel_terms)
@settings(max_examples=300, deadline=None)
def test_product_equals_the_operator_loop(a, b):
    """Both product paths (two multi-term operands, and a one-term operand
    with a unit or other coefficient) give the triples of the old loop."""
    got = (Poly(a, _trusted=True) * Poly(b, _trusted=True)).terms
    want = _ref_product(a, b)
    assert _triples(got) == _triples(want)
    assert _canonical(got)


@given(_kernel_terms, _kernel_terms)
@settings(max_examples=200, deadline=None)
def test_product_with_cancelling_cross_terms(a, b):
    """(a + b)(a - b) = a^2 - b^2: the cross terms cancel exactly."""
    pa, pb = Poly(a, _trusted=True), Poly(b, _trusted=True)
    plus, minus = pa + pb, pa - pb
    got = (plus * minus).terms
    assert _triples(got) == _triples(_ref_product(plus.terms, minus.terms))
    assert _triples(got) == _triples((pa * pa - pb * pb).terms)
    assert _canonical(got)


@given(_kernel_terms, _kernel_terms, st.sampled_from([1, -1]))
@settings(max_examples=300, deadline=None)
def test_sum_and_difference_equal_the_operator_loop(a, b, sign):
    got = dict(a)
    _terms_add(got, b, sign)
    want = dict(a)
    _ref_accumulate(want, b, sign)
    assert _triples(got) == _triples(want)
    assert list(got) == list(want)  # the same keys in the same order
    assert _canonical(got)
    pa, pb = Poly(a, _trusted=True), Poly(b, _trusted=True)
    assert _triples((pa + pb if sign > 0 else pa - pb).terms) == _triples(want)


@given(_kernel_terms)
@settings(max_examples=100, deadline=None)
def test_a_polynomial_minus_itself_is_empty(a):
    p = Poly(a, _trusted=True)
    assert (p - p).terms == {}
    acc = dict(a)
    _terms_add(acc, a, -1)
    assert acc == {}


_sphere_names = st.sampled_from(["xi1", "xi2", "xin", "h1", "pi"])


@st.composite
def sphere_polys(draw):
    """Terms in xi1, xi2, xin and two other ids with xi3 powers up to 8."""
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = {REG.id_of("xi3"): draw(st.integers(0, 8))}
        for _ in range(draw(st.integers(0, 2))):
            v = REG.id_of(draw(_sphere_names))
            mono[v] = mono.get(v, 0) + draw(st.integers(1, 3))
        mono = {s: e for s, e in mono.items() if e}
        terms[mono_pack(as_items(mono))] = draw(_kernel_coeff)
    return Poly(terms, _trusted=True)


@given(sphere_polys())
@settings(max_examples=200, deadline=None)
def test_horner_sphere_reduction_equals_the_expansion(p):
    got = scalars._poly_reduce_sphere(p).terms
    assert _triples(got) == _triples(_ref_reduce_sphere(p))
    assert _canonical(got)
    xi3 = REG.id_of("xi3")
    assert all(dict(mono_items(m)).get(xi3, 0) < 2 for m in got)


def test_horner_sphere_reduction_cancels_to_zero():
    """xi3^8 - (1 - xi1^2 - xi2^2)^4 and xi3^2 + xi1^2 + xi2^2 - 1 vanish
    on the sphere."""
    x1, x2, x3 = (Poly.var(REG.id_of(n)) for n in ("xi1", "xi2", "xi3"))
    one = Poly.const(1)
    assert scalars._poly_reduce_sphere(x3 ** 8 - (one - x1 * x1 - x2 * x2) ** 4).terms == {}
    assert scalars._poly_reduce_sphere(x3 * x3 + x1 * x1 + x2 * x2 - one).terms == {}
    assert scalars._poly_reduce_sphere(x3 ** 7) == x3 * (one - x1 * x1 - x2 * x2) ** 3


@pytest.mark.parametrize("theorem", ["T4.6", "T5.4"])
def test_restriction_equals_the_gcd_route_on_every_stage_value(theorem, monkeypatch):
    """Every value the stage chains of a theorem restrict: the denominator
    read off the base exponents and the numerator stripped of xin -/+ i
    equal the restricted pair normalized through `poly_gcd`."""
    from wresidue.pipeline import case_stages, enumerate_cases, make_context

    seen = []
    real = ScalarExpr.restrict_sphere

    def record(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(ScalarExpr, "restrict_sphere", record)
    ctx = make_context(theorem)
    for case in enumerate_cases(ctx):
        case_stages(ctx, case)
    monkeypatch.undo()
    assert seen
    factored = 0
    for value in seen:
        on_sphere = [scalars._poly_reduce_sphere(scalars._poly_subst_one(p, scalars.SHX))
                     for p in (value.num, value.den)]
        got = value.restrict_sphere()
        assert (got.num, got.den) == (ScalarExpr(*on_sphere).num, ScalarExpr(*on_sphere).den)
        factored += scalars._exponents(value.den) is not None
    assert factored == len(seen)
