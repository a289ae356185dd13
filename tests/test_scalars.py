"""Canonical-form arithmetic over the Gaussian rationals."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from wresidue.gaussian import GRat, I
from wresidue.scalars import (
    EngineError,
    Poly,
    REG,
    ScalarExpr,
    S_ONE,
    S_ZERO,
    atom_A,
    atom_R,
    atom_T,
    atom_dT2,
    atom_dT4,
    mono_items,
    mono_pack,
    mono_rank,
    norm_xi_sq,
    poly_divexact,
    poly_gcd,
    poly_text,
    scalar_sum,
    sym,
)

XIN = sym("xin")


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


# ---------------------------------------------------------------------------
# the normalizing constructor
# ---------------------------------------------------------------------------

def test_normalize_cancels_common_factor():
    e = ScalarExpr(((XIN ** 2 - 1)).num, (XIN - 1).num)
    assert e == XIN + S_ONE


def test_normalize_identity():
    p = (1 + XIN ** 2).num
    assert ScalarExpr(p, p) == S_ONE


def test_normalize_already_canonical():
    e = (6 * XIN ** 2 - 2) / (1 + XIN ** 2) ** 3
    again = ScalarExpr(e.num, e.den)
    assert again == e


def test_normalize_zero_denominator_rejected():
    with pytest.raises(EngineError):
        ScalarExpr(S_ONE.num, Poly())


def test_normalize_idempotent():
    e = ScalarExpr((XIN ** 3 + XIN).num, (XIN ** 2 + 1).num)
    assert ScalarExpr(e.num, e.den) == e
    assert e == XIN  # (xin^2+1) cancels


def test_zero_unique_representation():
    a = (XIN - XIN) / (1 + XIN ** 2)
    assert a == S_ZERO
    assert a.num.is_zero() and a.den == S_ONE.num


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------

def test_substitute_metric_restriction():
    assert norm_xi_sq().restrict_sphere() == 1 + XIN ** 2


def test_substitute_simple():
    x1 = sym("xi1")
    assert x1.substitute({"xi1": S_ZERO}) == S_ZERO
    assert (sym("h1") * XIN).substitute({"h1": frac(2)}) == 2 * XIN


def test_substitute_zero_denominator_rejected():
    e = 1 / sym("xi1")
    with pytest.raises(EngineError):
        e.substitute({"xi1": S_ZERO})


def test_substitute_rational_binding_normalizes():
    e = sym("xi1") ** 2
    out = e.substitute({"xi1": 1 / XIN})
    assert out == 1 / XIN ** 2


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_differentiate_quotient_rule():
    e = 1 / (1 + XIN ** 2)
    d1 = e.differentiate("xin")
    assert d1 == (-2 * XIN) / (1 + XIN ** 2) ** 2
    d2 = d1.differentiate("xin")
    assert d2 == (6 * XIN ** 2 - 2) / (1 + XIN ** 2) ** 3


def test_differentiate_product_vars():
    x1, x2 = sym("xi1"), sym("xi2")
    assert (x1 * x2).differentiate("xi1") == x2


def test_differentiate_unknown_variable_rejected():
    with pytest.raises(EngineError):
        XIN.differentiate("nonexistent")


# ---------------------------------------------------------------------------
# gcd / exact division
# ---------------------------------------------------------------------------

def test_gcd_multivariate():
    x1, x2 = sym("xi1"), sym("xi2")
    a = ((x1 + x2) ** 2 * (x1 - x2)).num
    b = ((x1 + x2) * (x1 + 1)).num
    g = poly_gcd(a, b)
    assert g == (x1 + x2).num


def test_divexact_raises_on_inexact():
    with pytest.raises(EngineError):
        poly_divexact((XIN ** 2 + 1).num, (XIN + 1).num)


def test_zero_coefficients_are_dropped_at_construction():
    # property tests build numerators as Poly() + Poly({m: c}) with c possibly 0
    m = ((REG.id_of("xi1"), 1),)
    zero_term = Poly({m: GRat(0)})
    assert zero_term.is_zero()
    assert Poly() + zero_term == Poly()
    assert poly_gcd(Poly(), zero_term) == Poly()
    h1 = REG.id_of("h1")
    den = Poly.const(2) + Poly.var(h1)
    mixed = ScalarExpr(Poly({m: GRat(0), ((h1, 1),): GRat(3)}), den)
    assert mixed == ScalarExpr(Poly({((h1, 1),): GRat(3)}), den)


def test_structured_denominator_cancellation():
    n2 = norm_xi_sq()
    e = (n2 ** 3 * sym("h1")) / n2 ** 2
    assert e == n2 * sym("h1")


# ---------------------------------------------------------------------------
# atoms and registry
# ---------------------------------------------------------------------------

def test_antisymmetric_atom_normalization():
    assert atom_A(1, 2, 2) == S_ZERO
    assert atom_A(1, 3, 2) == -atom_A(1, 2, 3)
    assert atom_T(2, 4, 1) == -atom_T(2, 1, 4)
    assert atom_R(2, 1, 3, 4) == -atom_R(1, 2, 3, 4)
    assert atom_R(2, 1, 4, 3) == atom_R(1, 2, 3, 4)
    assert atom_R(1, 1, 3, 4) == S_ZERO
    assert atom_dT4([2, 1, 3, 4]) == -atom_dT4([1, 2, 3, 4])
    assert atom_dT4([1, 1, 3, 4]) == S_ZERO


@pytest.mark.parametrize("atom, arity", [(atom_T, 3), (atom_dT2, 4)])
def test_three_form_atoms_are_totally_antisymmetric(atom, arity):
    """T(e_a, e_i, e_j) and e_a(T(e_b, e_i, e_j)) change sign under every
    transposition of the three-form's slots and vanish on a repeated index."""
    first = arity - 3
    for idx in product(range(1, 5), repeat=arity):
        value = atom(*idx)
        form = idx[first:]
        if len(set(form)) < 3:
            assert value == S_ZERO, idx
            continue
        assert value != S_ZERO, idx
        for k, l in combinations(range(first, arity), 2):
            swapped = list(idx)
            swapped[k], swapped[l] = swapped[l], swapped[k]
            assert atom(*swapped) == -value, (idx, k, l)


def test_registry_holds_the_irreducible_torsion_parts():
    """A as its vector trace and axial part (4 + 4 atoms), T as a three-form
    (4) and dT2 as four derivatives of it (16): 114 indeterminates in all."""
    assert len(REG) == 114
    names = {fam: [REG.name_of(s) for s in REG.ids_of_family(fam)] for fam in "AT"}
    assert names["A"] == ["A[1]", "A[2]", "A[3]", "A[4]",
                          "A[1,2,3]", "A[1,2,4]", "A[1,3,4]", "A[2,3,4]"]
    assert [n for n in names["T"] if n.startswith("T[")] == [
        "T[1,2,3]", "T[1,2,4]", "T[1,3,4]", "T[2,3,4]"]
    assert sum(n.startswith("dT2[") for n in names["T"]) == 16


def test_registry_rejects_unknown_and_duplicates():
    with pytest.raises(EngineError):
        REG.id_of("no-such-atom")
    assert "xi1" in REG and "pi" in REG


def test_contracted_antisymmetric_sum_vanishes():
    # sum_i A[i, i, t] with i = t contributes nothing when t repeats
    total = S_ZERO
    for i in range(1, 5):
        total = total + atom_A(i, i, i)
    assert total == S_ZERO


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

_coeff = st.builds(
    GRat,
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)

_names = st.sampled_from(["xi1", "xi2", "xin", "h1", "X1"])


@st.composite
def scalars(draw):
    num = Poly()
    for _ in range(draw(st.integers(0, 3))):
        mono = {}
        for _ in range(draw(st.integers(0, 2))):
            v = REG.id_of(draw(_names))
            mono[v] = mono.get(v, 0) + draw(st.integers(1, 2))
        num = num + Poly({tuple(sorted(mono.items())): draw(_coeff)})
    den = Poly()
    while den.is_zero():
        den = Poly.const(draw(_coeff.filter(lambda c: not c.is_zero())))
        if draw(st.booleans()):
            den = den + Poly.var(REG.id_of(draw(_names)))
    return ScalarExpr(num, den)


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars(), scalars(), st.sampled_from(["xi1", "xin", "h1"]))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b, v):
    assert (a * b).differentiate(v) == a.differentiate(v) * b + a * b.differentiate(v)


@given(scalars())
@settings(max_examples=40, deadline=None)
def test_disjoint_substitutions_commute(a):
    s1 = {"X1": frac(3, 2)}
    s2 = {"h1": frac(-1, 3)}
    assert a.substitute(s1).substitute(s2) == a.substitute(s2).substitute(s1)


@given(scalars())
@settings(max_examples=40, deadline=None)
def test_numeric_evaluation_matches_raw(a):
    bindings = {
        "xi1": GRat(Fraction(1, 2)),
        "xi2": GRat(2),
        "xin": GRat(Fraction(-1, 3), 1),
        "h1": GRat(3),
        "X1": GRat(Fraction(2, 5)),
    }
    num_val = a.num.eval_numeric({REG.id_of(k): v for k, v in bindings.items()})
    den_val = a.den.eval_numeric({REG.id_of(k): v for k, v in bindings.items()})
    if den_val.is_zero():
        return
    assert a.evaluate(bindings) == num_val / den_val


def test_canonical_text_deterministic():
    e = (sym("xi1") + sym("xi2")) ** 2 / (1 + XIN ** 2)
    assert e.text() == e.text()
    assert "xi1" in e.text()


def test_memo_caches_stay_bounded_and_answers_do_not_change(monkeypatch):
    """A full memo cache is emptied and refilled: sizes stay at or under the
    bound and every result equals the one computed with unbounded room.  The
    `lru_cache` of the base products has the same bound, and a smaller one
    changes no result either."""
    import functools
    import random

    from wresidue import scalars
    from wresidue.verify import _rand_halfline

    assert scalars._base_product.cache_info().maxsize == scalars._MEMO_LIMIT

    def work():
        rng = random.Random(4)
        fs = [_rand_halfline(rng, decay=rng.choice((0, 1, 2))) for _ in range(30)]
        return [f * g + g for f, g in zip(fs, fs[1:])]

    want = work()
    monkeypatch.setattr(scalars, "_FACTOR_CACHE", {})
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 8)
    small = functools.lru_cache(maxsize=8)(scalars._base_product.__wrapped__)
    monkeypatch.setattr(scalars, "_base_product", small)
    size = stores = 0
    real_store = scalars._memo_store

    def store(cache, key, value):
        nonlocal size, stores
        real_store(cache, key, value)
        if cache is scalars._FACTOR_CACHE:
            size = max(size, len(cache))
            stores += 1

    monkeypatch.setattr(scalars, "_memo_store", store)
    assert work() == want
    assert stores > 8
    assert size <= 8
    assert 0 < small.cache_info().currsize <= 8


# ---------------------------------------------------------------------------
# the canonical text, against the factor-by-factor renderer
# ---------------------------------------------------------------------------

def _factor_poly_text(p):
    """The factor-by-factor renderer, a reference for the text tables of
    `poly_text`: the text of each factor sym^exp of each monomial, in
    ascending id order, and each coefficient's text built afresh."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=mono_rank, reverse=True):
        c = p.terms[m]
        body = "*".join(REG.name_of(s) + (f"^{e}" if e > 1 else "") for s, e in mono_items(m))
        cs = f"({c})" if c.a and c.b else str(c)
        parts.append(f"{cs}*{body}" if body else cs)
    return " + ".join(parts)


_COT = [s for s in range(len(REG)) if s <= REG.id_of("xin")]
_GEO = [s for s in range(len(REG)) if s > REG.id_of("xin")]


@st.composite
def text_monomials(draw):
    """A packed monomial: a constant, purely cotangent, purely geometric or
    mixed, over any registry id, its total degree split among its ids and
    at times at the cap of 127."""
    kind = draw(st.sampled_from(("const", "cotangent", "geometric", "mixed")))
    if kind == "const":
        return 0
    if kind == "mixed":
        ids = draw(st.lists(st.sampled_from(_COT), min_size=1, max_size=3, unique=True))
        ids += draw(st.lists(st.sampled_from(_GEO), min_size=1, max_size=3, unique=True))
    else:
        ids = draw(st.lists(st.sampled_from(_COT if kind == "cotangent" else _GEO),
                            min_size=1, max_size=4, unique=True))
    deg = draw(st.one_of(st.just(127), st.integers(len(ids), 127)))
    cuts = []
    if len(ids) > 1:
        cuts = sorted(draw(st.lists(st.integers(1, deg - 1), min_size=len(ids) - 1,
                                    max_size=len(ids) - 1, unique=True)))
    exps = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
    return mono_pack(zip(sorted(ids), exps))


@st.composite
def text_coefficients(draw):
    """A nonzero coefficient with a real part only, an imaginary part only,
    or both, over a denominator that is at times greater than 1."""
    parts = draw(st.sampled_from(("a", "b", "ab")))
    d = draw(st.integers(1, 12))
    a = draw(st.integers(-30, 30).filter(bool)) if "a" in parts else 0
    b = draw(st.integers(-30, 30).filter(bool)) if "b" in parts else 0
    return GRat(Fraction(a, d), Fraction(b, d))


@st.composite
def text_polys(draw):
    terms = draw(st.dictionaries(text_monomials(), text_coefficients(), max_size=8))
    return Poly(terms, _trusted=True)


@given(text_polys())
@settings(max_examples=300, deadline=None)
def test_poly_text_equals_the_factor_renderer(p):
    assert poly_text(p) == _factor_poly_text(p)


def test_text_tables_stay_bounded_and_texts_do_not_change(monkeypatch):
    """Full text tables (the two monomial blocks and the coefficients) are
    emptied and refilled: with room for 8 entries each, every text equals
    the factor renderer's."""
    import random

    from wresidue import scalars

    rng = random.Random(23)

    def monomial():
        ids = rng.sample(_COT, rng.randint(0, 4)) + rng.sample(_GEO, rng.randint(0, 2))
        return mono_pack((s, rng.randint(1, 3)) for s in ids)

    def coefficient():
        parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
        return GRat(*parts) if any(parts) else GRat(1)

    polys = [Poly({monomial(): coefficient() for _ in range(6)}) for _ in range(40)]
    tables = ("_COT_TEXT", "_REST_TEXT", "_COEF_TEXT")
    for name in tables:
        monkeypatch.setattr(scalars, name, {})
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 8)
    sizes = {name: 0 for name in tables}
    stores = {name: 0 for name in tables}
    real_store = scalars._memo_store

    def store(cache, key, value):
        real_store(cache, key, value)
        for name in tables:
            if cache is getattr(scalars, name):
                sizes[name] = max(sizes[name], len(cache))
                stores[name] += 1

    monkeypatch.setattr(scalars, "_memo_store", store)
    assert [poly_text(p) for p in polys] == [_factor_poly_text(p) for p in polys]
    assert min(stores.values()) > 8
    assert max(sizes.values()) <= 8


def test_restrict_sphere_off_the_known_bases_matches_exact_evaluation():
    """A denominator off the bases takes the general route: both sides are
    restricted as polynomials.  At a rational point of the unit sphere with
    shx = 1 the restriction takes the value of the unrestricted fraction."""
    xi1, xi2, xi3, h1, shx = (sym(n) for n in ("xi1", "xi2", "xi3", "h1", "shx"))
    value = (xi3 ** 4 * XIN + shx ** 2 * h1 * xi2) / (xi1 + h1 * xi3 ** 2 * shx)
    restricted = value.restrict_sphere()
    xi3_id = REG.id_of("xi3")
    assert REG.id_of("shx") not in restricted.variables()
    assert max(restricted.num.degree_in(xi3_id), restricted.den.degree_in(xi3_id)) <= 1
    point = {"xi1": Fraction(3, 13), "xi2": Fraction(4, 13), "xi3": Fraction(12, 13),
             "shx": 1, "h1": Fraction(2, 7), "xin": Fraction(5, 3)}
    assert restricted.evaluate(point) == value.evaluate(point)
    assert (S_ONE / (xi1 + h1)).restrict_sphere() == S_ONE / (xi1 + h1)


def test_scalar_sum_over_factored_denominators_cancels_exactly():
    """1/(xin - i) + 1/(xin + i) - 2 xin/(xin^2 + 1) is zero: the terms
    factor over the linear bases and sum to the zero fraction."""
    terms = (S_ONE / (XIN - ScalarExpr.const(I)), S_ONE / (XIN + ScalarExpr.const(I)))
    total = scalar_sum(terms, (frac(2) * XIN / (XIN ** 2 + S_ONE),))
    assert total.is_zero() and total == S_ZERO
