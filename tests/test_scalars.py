"""Canonical-form arithmetic over the Gaussian rationals."""

from fractions import Fraction

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
    atom_dT4,
    norm_xi_sq,
    normalize,
    poly_divexact,
    poly_gcd,
    sym,
)

XIN = sym("xin")


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_cancels_common_factor():
    e = normalize(((XIN ** 2 - 1)).num, (XIN - 1).num)
    assert e == XIN + S_ONE


def test_normalize_identity():
    p = (1 + XIN ** 2).num
    assert normalize(p, p) == S_ONE


def test_normalize_already_canonical():
    e = (6 * XIN ** 2 - 2) / (1 + XIN ** 2) ** 3
    again = normalize(e.num, e.den)
    assert again == e


def test_normalize_zero_denominator_rejected():
    with pytest.raises(EngineError):
        normalize(S_ONE.num, Poly())


def test_normalize_idempotent():
    e = normalize((XIN ** 3 + XIN).num, (XIN ** 2 + 1).num)
    assert normalize(e.num, e.den) == e
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
    bound and every result equals the one computed with unbounded room."""
    import random

    from wresidue import scalars
    from wresidue.verify import _rand_halfline

    def work():
        rng = random.Random(4)
        fs = [_rand_halfline(rng, decay=rng.choice((0, 1, 2))) for _ in range(30)]
        return [f * g + g for f, g in zip(fs, fs[1:])]

    want = work()
    caches = ("_GCD_CACHE", "_FACTOR_CACHE", "_MULT_CACHE")
    for name in caches:
        monkeypatch.setattr(scalars, name, {})
    monkeypatch.setattr(scalars, "_MEMO_LIMIT", 8)
    sizes = {name: 0 for name in caches}
    stores = {name: 0 for name in caches}
    real_store = scalars._memo_store

    def store(cache, key, value):
        real_store(cache, key, value)
        for name in caches:
            if cache is getattr(scalars, name):
                sizes[name] = max(sizes[name], len(cache))
                stores[name] += 1

    monkeypatch.setattr(scalars, "_memo_store", store)
    assert work() == want
    assert stores["_GCD_CACHE"] > 8 and stores["_MULT_CACHE"] > 8
    assert max(sizes.values()) <= 8
