"""The generic gcd against sympy over Q(i), and the suite that stalled in it.

Only random inputs reach `_poly_gcd_uncached`: the operands of a report
factor over the known denominator bases.  sympy is imported by these tests
only; the engine has no runtime dependency.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from wresidue import verify
from wresidue.gaussian import GRat
from wresidue.scalars import REG, Poly, _monic, _poly_gcd_uncached, _prem, mono_items

_GENS = {name: sympy.Symbol(name) for name in ("xi1", "xi2", "xin", "h1", "X1", "Y2")}


def to_sympy(p: Poly):
    return sympy.Add(*(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*(_GENS[REG.name_of(s)] ** e for s, e in mono_items(m)))
        for m, c in p.terms.items()
    ))


def from_sympy(expr) -> Poly:
    gens = sorted(expr.free_symbols, key=lambda g: REG.id_of(str(g))) or [_GENS["xi1"]]
    terms = {}
    for mono, c in sympy.Poly(expr, *gens, domain="QQ_I").terms():
        re, im = c.as_real_imag()
        key = tuple((REG.id_of(str(g)), e) for g, e in zip(gens, mono) if e)
        terms[key] = GRat(Fraction(re.p, re.q), Fraction(im.p, im.q))
    return Poly(terms)


def sympy_gcd(a: Poly, b: Poly) -> Poly:
    """sympy.gcd over QQ_I, made monic in registry order as the engine's
    gcd is.  The generators of one operand only go first: any order gives
    the gcd up to a unit, and in that order sympy's PRS is far faster on
    the stalled pairs (seed 4: 1 s, against over 20 s in registry order)."""
    fa, fb = to_sympy(a), to_sympy(b)
    shared = fa.free_symbols & fb.free_symbols
    gens = sorted(fa.free_symbols | fb.free_symbols,
                  key=lambda g: (g in shared, REG.id_of(str(g))))
    return _monic(from_sympy(sympy.gcd(fa, fb, *gens, domain="QQ_I")))


# The outermost generic gcd in progress where `verify.scalar_suite` at seeds
# 0-4 stalled under the primitive PRS, which took a content per remainder.
STALLED = {
    0: (
        ("Y2*xi1*(-60928/39701 - 31680*I/39701) + "
         "xi2*xin*(-859520/1151329 - 3972352*I/3453987) + "
         "Y2**2*h1*xi1*(-103196/119103 - 108872*I/119103) + "
         "Y2**3*h1*xi1*(3784/5365 + 1688*I/5365) + "
         "X1**2*Y2**2*xi1*(5968/595515 + 13712*I/198505) + "
         "Y2**3*h1**2*xi1*(528/1073 - 2188*I/3219) + "
         "X1*Y2**3*h1*xi1*(1696/5365 + 1816*I/16095) + "
         "Y2*h1*xi2*xin*(-2490112/10361961 - 10040984*I/10361961) + "
         "X1**2*Y2*xi2*xin*(-115616/5756645 + 2671072*I/51809805) + "
         "Y2**2*h1*xi2*xin*(169648/466755 + 229936*I/466755) + "
         "Y2**2*h1**2*xi2*xin*(169432/280053 - 25808*I/93351) + "
         "X1*Y2**2*h1*xi2*xin*(243536/1400265 + 31328*I/155585)"),
        ("Y2**4*h1**2*xi1**2 + X1**2*Y2**2*xi1**2*(-3328/34225 + 4896*I/34225) + "
         "X1**2*xi2**2*xin**2*(-28109312/259049025 - 537472*I/86349675) + "
         "X1*Y2**3*h1*xi1**2*(72/185 + 136*I/185) + "
         "Y2**2*h1**2*xi2**2*xin**2*(2444/7569 + 1360*I/2523) + "
         "X1*Y2*h1*xi2**2*xin**2*(-126304/466755 + 626144*I/1400265) + "
         "X1**2*Y2*xi1*xi2*xin*(-244096/992525 + 361216*I/2977575) + "
         "Y2**3*h1**2*xi1*xi2*xin*(40/29 + 68*I/87) + "
         "X1*Y2**2*h1*xi1*xi2*xin*(-608/16095 + 7072*I/5365)"),
    ),
    1: (
        ("X1*Y2**2*(924/1525 + 648*I/1525) + "
         "X1**3*Y2**3*(96/1525 - 408*I/1525) + X1*Y2*h1**4*(-36/61 - 30*I/61) + "
         "X1*h1*xi1**2*(112/549 - 208*I/1647) + "
         "X1*Y2**2*xi1*(-111/305 + 12*I/61) + "
         "X1*h1**3*xi1**2*(272/915 + 64*I/915) + "
         "Y2*h1*xi1*(-200/549 - 248*I/549) + "
         "X1**2*Y2*xi1*(-4072/19825 + 4496*I/19825) + "
         "Y2*h1**3*xi1*(24/305 - 224*I/305) + Y2*xi2*xin*(-59/183 - 13*I/61) + "
         "X1**2*Y2*xi1**2*(-246/3965 - 632*I/3965) + "
         "Y2**2*h1*xi1*(176/915 + 472*I/915) + "
         "X1**2*h1**4*xi1*(184/793 - 172*I/793) + "
         "X1**3*Y2**3*xi1*(36/305 + 6*I/61) + "
         "X1**4*Y2**2*xi1*(2112/19825 + 784*I/19825) + "
         "Y2**2*xi2*xin*(69/305 + 88*I/305) + "
         "X1**2*h1**4*xi1**2*(40/793 + 135*I/793) + "
         "X1**4*Y2**2*xi1**2*(-184/3965 + 172*I/3965) + "
         "X1*Y2*h1*xi1**2*(-608/2745 + 16*I/305) + "
         "X1*Y2*h1**4*xi1*(24/61 - 21*I/122) + "
         "X1*xi1*xi2*xin*(742/7137 - 866*I/7137) + "
         "Y2*h1**2*xi2*xin*(-6/61 - 147*I/305) + "
         "X1*Y2*xi1*xi2*xin*(-1546/11895 + 928*I/11895) + "
         "X1*h1**2*xi1*xi2*xin*(804/3965 - 62*I/3965)"),
        ("xi1 + xi2*(-52/305 - 84*I/305)"),
    ),
    2: (
        ("xin*(-192/305 - 1136*I/305) + Y2*xin*(80/183 - 32*I/61) + "
         "h1*xin**2*(-1452/1525 - 1332*I/1525) + "
         "h1**3*xin*(-808/305 - 1324*I/305) + "
         "X1**2*xin**3*(-2256/1525 + 7392*I/1525) + "
         "h1**4*xin**2*(-2481/1525 - 939*I/1525) + "
         "X1*h1**2*xi1*(-64/61 + 28*I/61) + X1*Y2**2*xi2*(-72/61 + 184*I/61) + "
         "X1*h1**2*xin*(186/305 + 582*I/305) + "
         "X1*h1**5*xin*(1047/610 + 1269*I/610) + "
         "X1*xi1**2*xin**2*(3152/305 - 464*I/305) + "
         "Y2*h1*xin**2*(12/1525 - 356*I/1525) + "
         "Y2*h1**3*xin*(52/183 - 160*I/183) + "
         "X1**2*Y2*xin**3*(-256/305 + 112*I/305) + "
         "Y2*h1**4*xin**2*(-163/1525 - 451*I/1525) + "
         "X1**2*h1*xin**4*(4716/7625 + 12348*I/7625) + "
         "X1**2*h1**4*xi1*(63/122 - 39*I/122) + "
         "X1**3*h1**2*xin**3*(126/305 - 162*I/61) + "
         "X1*Y2*h1**2*xin*(-58/305 + 94*I/305) + "
         "X1*Y2*h1**5*xin*(-51/610 + 293*I/610) + "
         "X1*h1*xi1**2*xin**3*(3768/1525 - 3936*I/1525) + "
         "X1*h1**3*xi1*xin*(-57/305 + 21*I/61) + "
         "X1**2*Y2*h1*xin**4*(-228/1525 + 84*I/305) + "
         "X1**3*Y2*h1**2*xin**3*(126/305 - 78*I/305) + "
         "X1**2*Y2**2*h1**2*xi2*(24/61 - 102*I/61) + "
         "X1**2*h1**2*xi1**2*xin**2*(-324/61 + 96*I/61) + "
         "X1*Y2**2*h1*xi2*xin*(96/305 + 324*I/305)"),
        ("-104/183 + h1 + -56*I/61"),
    ),
    3: (
        ("1/9 + 2*I/9 + X1**2*(5/6 - 13*I/12) + X1**4*(-3/2 - I/8) + "
         "xi2**3*(-112/375 - 116*I/375) + X1*xi2**4*(112/75 + 116*I/75) + "
         "Y2*h1*(-26/1125 - 2*I/125) + Y2*xi1**2*(1/2 - 7*I/18) + "
         "h1*xin*(8/375 + 44*I/375) + X1**2*xi2**3*(-89/125 + 198*I/125) + "
         "X1**3*xi2**4*(89/25 - 198*I/25) + h1**2*xin**2*(1/36 + 5*I/36) + "
         "X1**2*Y2*h1*(-19/750 + 83*I/750) + X1**2*Y2*xi1**2*(-11/12 - I/4) + "
         "Y2*xi1**2*xi2**3*(-78/125 + 338*I/375) + "
         "X1**2*h1*xin*(51/125 - 32*I/125) + "
         "Y2**2*h1*xi1**2*(-32/1125 + 74*I/1125) + "
         "X1**2*h1**2*xin**2*(23/48 - 5*I/16) + X1*Y2*h1*xi2*(26/225 + 2*I/25) + "
         "X1*Y2*xi1**2*xi2**4*(78/25 - 338*I/75) + "
         "X1*h1*xi2*xin*(-8/75 - 44*I/75) + "
         "X1**3*Y2*h1*xi2*(19/150 - 83*I/150) + "
         "Y2*h1*xi1**2*xin*(106/375 - 14*I/125) + "
         "Y2*h1**2*xi1**2*xin**2*(1/3 - 5*I/36) + "
         "X1**3*h1*xi2*xin*(-51/25 + 32*I/25) + "
         "X1*Y2**2*h1*xi1**2*xi2*(32/225 - 74*I/225) + "
         "X1*Y2*h1*xi1**2*xi2*xin*(-106/75 + 14*I/25)"),
        ("5/12 + 5*I/4 + Y2*xi1"),
    ),
    4: (
        ("h1*xin**3*(-14418/841 + 15894*I/841) + "
         "Y2**5*xi2**2*(-555/841 - 2475*I/841) + "
         "xi2**2*xin**3*(-114/29 - 24*I/29) + "
         "Y2*xi2*xin**2*(37080/841 - 6480*I/841) + "
         "Y2**3*h1*xin**2*(101664/4205 - 96102*I/4205) + "
         "h1*xi2**2*xin**3*(-15/58 - 23*I/58) + "
         "Y2**4*xi2*xin*(-12213/841 + 1179*I/841) + "
         "X1**2*Y2**5*xi2*(-46908/4205 - 14436*I/4205) + "
         "Y2**2*xi2**2*xin*(570/841 + 1860*I/841) + "
         "Y2**4*xi2**3*xin*(-15/116 + 93*I/116) + "
         "Y2**3*xi2**2*xin**2*(729/145 + 213*I/145) + "
         "h1**3*xi1**2*xin**2*(521208/21025 + 96156*I/21025) + "
         "Y2**4*h1*xi2*xin*(3348/841 + 5517*I/1682) + "
         "X1**2*h1*xi2*xin**3*(-1326/725 + 78*I/725) + "
         "Y2**2*h1*xi2*xin**3*(-6039/725 + 4779*I/1450) + "
         "X1**2*Y2**4*h1*xin*(392418/21025 - 148824*I/21025) + "
         "Y2**3*h1*xi2**2*xin**2*(-86/145 - 157*I/145) + "
         "X1**2*Y2**2*xi2*xin*(7344/841 + 1656*I/841) + "
         "X1**2*Y2**4*xi2**2*xin*(1773/725 + 1431*I/725) + "
         "Y2**2*h1**2*xi1**2*xi2**2*(1266/841 - 1446*I/841) + "
         "h1**2*xi1**2*xi2**2*xin**2*(978/725 + 2706*I/725) + "
         "h1**3*xi1**2*xi2**2*xin**2*(-144/725 + 307*I/725) + "
         "Y2*h1**2*xi1**2*xi2*xin*(-123624/4205 - 138888*I/4205) + "
         "X1**2*Y2**3*h1*xi2*xin**2*(-17316/3625 - 312*I/3625) + "
         "X1**2*Y2**2*h1**2*xi1**2*xi2*(-60696/21025 - 175752*I/21025) + "
         "X1**2*h1**3*xi1**2*xi2*xin**2*(18876/18125 + 26832*I/18125)"),
        ("Y2**2*xi2**4*xin**2 + Y2**4*xi2**2*(18900/841 - 18000*I/841) + "
         "Y2**3*xi2**3*xin*(-300/29 + 120*I/29) + "
         "Y2**2*h1**2*xin**2*(-16632/841 - 29574*I/841) + "
         "h1**2*xi2**2*xin**4*(8/25 - 63*I/50) + "
         "Y2*h1*xi2**3*xin**3*(-9/5 + 7*I/5) + "
         "Y2*h1**2*xi2*xin**3*(276/145 + 2082*I/145) + "
         "Y2**3*h1*xi2*xin*(-8820/841 + 58860*I/841) + "
         "Y2**2*h1*xi2**2*xin**2*(372/29 - 636*I/29)"),
    ),
}


@pytest.mark.parametrize("seed", sorted(STALLED))
def test_stalled_pairs_match_sympy(seed):
    a, b = (from_sympy(sympy.sympify(text, locals=_GENS)) for text in STALLED[seed])
    assert _monic(_poly_gcd_uncached(a, b)) == sympy_gcd(a, b)


_names = st.sampled_from(["xi1", "xi2", "xin", "h1"])
_coeff = st.builds(GRat, st.fractions(-3, 3, max_denominator=3),
                   st.fractions(-3, 3, max_denominator=3))


@st.composite
def polys(draw, max_terms=3, max_exp=1):
    out = Poly()
    for _ in range(draw(st.integers(1, max_terms))):
        mono = {}
        for _ in range(draw(st.integers(0, 2))):
            v = REG.id_of(draw(_names))
            mono[v] = mono.get(v, 0) + draw(st.integers(1, max_exp))
        out = out + Poly({tuple(sorted(mono.items())): draw(_coeff)})
    return out


@given(polys(), polys(), polys())
@settings(max_examples=25, deadline=None)
def test_generic_gcd_matches_sympy(p, q, r):
    # a common factor p, so that the gcd is not 1 in general
    a, b = p * q, p * r
    if a.is_const() or b.is_const():
        return
    assert _monic(_poly_gcd_uncached(a, b)) == sympy_gcd(a, b)


@given(polys(4, max_exp=3), polys(2, max_exp=2), _names)
@example(from_sympy(_GENS["xin"] ** 3),
         from_sympy(_GENS["xi1"] * _GENS["xin"] ** 2 + 1), "xin")
@settings(max_examples=25, deadline=None)
def test_prem_is_the_standard_pseudo_remainder(a, b, name):
    # lc_x(b)^(deg a - deg b + 1) * a mod b, as sympy.prem computes it, also
    # where a step drops the degree by more than one
    x = REG.id_of(name)
    if b.degree_in(x) < 0:
        return
    gens = [_GENS[name]] + [g for g in _GENS.values() if str(g) != name]
    expected = sympy.prem(to_sympy(a), to_sympy(b), *gens, domain="QQ_I")
    assert _prem(a, b, x) == from_sympy(expected)


def test_scalar_suite_seed_0_ends_without_failures():
    # stalled inside sample 24 under the primitive PRS
    assert verify.scalar_suite(seed=0, count=200)["failures"] == []


def test_generic_gcd_of_two_bases_off_the_known_ones_stays_under_the_degree_cap():
    """The sum of A / (q^2 (xi1 + h1)) and B / (xi1 + h1)^2 over one
    denominator, q = shx^2 |xi'|^2 + xin^2.  Its gcd, run in the highest
    variable, raised a power past the degree cap; run in the variable of
    least degree it returns at once, and the fraction is the engine's own
    sum of the two terms."""
    import time

    from wresidue.scalars import ScalarExpr, sym

    xi1, xi2, xi3, xin, h1, shx = (sym(n) for n in ("xi1", "xi2", "xi3", "xin", "h1", "shx"))
    q = shx ** 2 * (xi1 ** 2 + xi2 ** 2 + xi3 ** 2) + xin ** 2
    a = xi3 ** 3 * xin ** 2 * (xin ** 2 + xin + 1)
    b = xi3 ** 2 * h1 ** 2 + shx ** 3 * h1 + 1
    n = a * (xi1 + h1) + b * q ** 2
    d = (xi1 + h1) ** 2 * q ** 2
    start = time.perf_counter()
    value = ScalarExpr(n.num, d.num)
    assert time.perf_counter() - start < 1.0
    assert value == a / (q ** 2 * (xi1 + h1)) + b / (xi1 + h1) ** 2
