"""Exact line and sphere integration against the numeric oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from wresidue.gaussian import GRat, I
from wresidue.scalars import (
    EngineError, Poly, REG, ScalarExpr, S_ONE, S_ZERO, mono_items, mono_pack, sym)
from wresidue.clifford import CliffordExpr
from wresidue.pipeline import case_stages, case_trace_integrand, enumerate_cases, make_context
from wresidue.integration import (
    _gauss_legendre,
    integrate_via_residue_oracle,
    integrate_xi_n,
    monomial_moment,
    numeric_contour_oracle,
    sphere_mc_oracle,
    sphere_moment,
)
from wresidue.verify import contour_suite, sphere_suite

XIN = sym("xin")
IC = ScalarExpr.const(I)
PI = sym("pi")


def test_arctan_integral():
    assert integrate_xi_n(1 / (1 + XIN ** 2)) == CliffordExpr.scalar(PI)


def test_specific_high_order_pole_value():
    """The -5 pi i/32 value, via three independent routes."""
    f = 1 / ((XIN - IC) ** 5 * (XIN + IC) ** 2)
    want = CliffordExpr.scalar(PI * ScalarExpr.const(GRat(0, Fraction(-5, 32))))
    assert integrate_xi_n(f) == want
    assert integrate_via_residue_oracle(f) == want
    num = numeric_contour_oracle(f)
    assert abs(num - complex(0, -5 * math.pi / 32)) < 1e-9


def test_even_derivative_profile_integrates_to_zero():
    f = (6 * XIN ** 2 - 2) / (1 + XIN ** 2) ** 3
    assert integrate_xi_n(f).is_zero()
    assert abs(numeric_contour_oracle(f)) < 1e-9


def test_insufficient_decay_rejected():
    with pytest.raises(EngineError):
        integrate_xi_n(XIN / (1 + XIN ** 2))


def test_real_axis_pole_rejected():
    with pytest.raises(EngineError):
        integrate_xi_n(1 / ((XIN - 1) * (1 + XIN ** 2)))


def _as_complex(exact: ScalarExpr) -> complex:
    coeff = exact.substitute({"pi": S_ONE}).evaluate({})
    return complex(float(coeff.re) * math.pi, float(coeff.im) * math.pi)


def test_randomized_exact_vs_numeric():
    rng = random.Random(5)
    for _ in range(80):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        num = S_ZERO
        for d in range(max(p + q - 2, 0) + 1):
            num = num + ScalarExpr.const(
                GRat(rng.randint(-5, 5), rng.randint(-5, 5))
            ) * XIN ** d
        if num.is_zero():
            num = S_ONE
        f = num / ((XIN - IC) ** p * (XIN + IC) ** q)
        exact = integrate_xi_n(f).scalar_part()
        assert exact == integrate_via_residue_oracle(f).scalar_part()
        want = _as_complex(exact)
        got = numeric_contour_oracle(f)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_contour_oracle_is_exact_on_the_basis():
    """Every xin^d / ((xin - i)^p (xin + i)^q), p, q <= 4, d <= p + q - 2,
    against the derivative-formula residue: relative 1e-13, or absolute
    1e-13 where the integral vanishes."""
    for p, q in itertools.product(range(5), repeat=2):
        for d in range(p + q - 1):
            f = XIN ** d / ((XIN - IC) ** p * (XIN + IC) ** q)
            want = _as_complex(integrate_via_residue_oracle(f).scalar_part())
            got = numeric_contour_oracle(f)
            assert isinstance(got, complex)
            assert abs(got - want) <= 1e-13 * (abs(want) or 1.0), (p, q, d)


@pytest.mark.parametrize("den", [XIN ** 2 + 4, (XIN ** 2 + 1) * (XIN ** 2 + 4)])
def test_contour_oracle_rejects_a_pole_off_plus_minus_i(den):
    """The rules at N and 2N nodes disagree where the integrand is not a
    trigonometric polynomial after xin = tan(theta)."""
    with pytest.raises(EngineError, match="numeric quadrature is not exact"):
        numeric_contour_oracle(S_ONE / den)


def test_contour_oracle_rejects_a_pole_on_a_node():
    # 1/(xin^2 (xin^2 + 1)) at the middle node theta = 0 of the 5-point rule
    with pytest.raises(EngineError, match="pole on the real line"):
        numeric_contour_oracle(S_ONE / (XIN ** 2 * (XIN ** 2 + 1)))


def test_contour_suite_quadrature_catches_a_wrong_exact_value(monkeypatch):
    """With both exact routes off by the same factor 1 + 1e-6, only the
    numeric oracle can see it, and it fails every sample."""
    from wresidue import verify

    factor = CliffordExpr.scalar(ScalarExpr.const(GRat(Fraction(1000001, 1000000))))

    def scaled(route):
        return lambda f: route(f) * factor

    monkeypatch.setattr(verify, "integrate_xi_n", scaled(integrate_xi_n))
    monkeypatch.setattr(verify, "integrate_via_residue_oracle",
                        scaled(integrate_via_residue_oracle))
    result = contour_suite(seed=3, count=20)
    assert result["passed"] == 0
    assert len(result["failures"]) == 20
    for k, failure in enumerate(result["failures"]):
        assert failure.startswith(f"quadrature #{k}:"), failure


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

OM = sym("Omega3")


def test_moment_examples():
    assert sphere_moment(S_ONE) == OM
    x1, x2, x3 = sym("xi1"), sym("xi2"), sym("xi3")
    assert sphere_moment(x1 * x2).is_zero()
    for xj in (x1, x2, x3):
        assert sphere_moment(xj ** 2) == OM / 3
    assert sphere_moment(x1 ** 4) == OM / 5
    assert sphere_moment(x1 ** 2 * x2 ** 2) == OM / 15
    assert sphere_moment(x1 ** 2 * x2 ** 2 * x3 ** 2) == OM / 105


def test_odd_moments_vanish():
    rng = random.Random(3)
    for _ in range(100):
        exps = [rng.randint(0, 3) for _ in range(3)]
        if all(e % 2 == 0 for e in exps):
            exps[rng.randrange(3)] += 1
        mono = S_ONE
        for name, e in zip(("xi1", "xi2", "xi3"), exps):
            mono = mono * sym(name) ** e
        assert sphere_moment(mono).is_zero()


def test_moment_invariances():
    x1, x2, x3 = sym("xi1"), sym("xi2"), sym("xi3")
    p = x1 ** 2 * x2 ** 4
    assert sphere_moment(p) == sphere_moment(x3 ** 2 * x1 ** 4)
    assert sphere_moment(p.substitute({"xi1": -x1})) == sphere_moment(p)
    a, b = sym("X1"), sym("h1")
    assert sphere_moment(a * x1 ** 2 + b * x2 ** 2) == (a + b) * OM / 3


def _term_by_term_moment(expr):
    """The sphere moment as one ScalarExpr product and sum per numerator
    term: the formula `sphere_moment` sums into one dict."""
    xis = [REG.id_of(n) for n in ("xi1", "xi2", "xi3")]
    total = S_ZERO
    for mono, c in expr.num.terms.items():
        exps = dict(mono_items(mono))
        tang = [exps.get(s, 0) for s in xis]
        factor = monomial_moment(tang)
        if factor == 0:
            continue
        rest = mono - mono_pack(zip(xis, tang))
        passthrough = ScalarExpr.from_poly(Poly({rest: c}, _trusted=True))
        total = total + passthrough * ScalarExpr.const(GRat(factor)) * OM
    return total / ScalarExpr.from_poly(expr.den)


def test_moment_equals_the_term_by_term_formula():
    """Random integrands whose terms share rest monomials, some of them
    cancelling after the moments, over constant and non-constant
    denominators free of the tangential variables."""
    rng = random.Random(24)
    names = ("xi1", "xi2", "xi3")
    rests = [S_ONE, sym("h1"), sym("X1") * sym("pi"), sym("A[1,2,3]") ** 2]
    dens = [S_ONE, ScalarExpr.const(3), sym("h1") + 2, PI * (sym("X2") - 1)]
    for _ in range(60):
        num = S_ZERO
        for _ in range(rng.randint(1, 12)):
            term = rng.choice(rests) * ScalarExpr.const(
                GRat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)), rng.randint(-2, 2)))
            for name in names:
                term = term * sym(name) ** rng.randint(0, 4)
            num = num + term
        expr = num / rng.choice(dens)
        assert sphere_moment(expr) == _term_by_term_moment(expr)
    x1, x2 = sym("xi1"), sym("xi2")
    # the two moments are equal, so this integrand has moment zero
    cancelling = sym("h1") * (x1 ** 2 * x2 ** 2 - x1 ** 2 * sym("xi3") ** 2)
    assert sphere_moment(cancelling).is_zero()
    assert _term_by_term_moment(cancelling).is_zero()


def test_moment_equals_the_term_by_term_formula_on_every_t46_stage():
    ctx = make_context("T4.6")
    checked = 0
    for case in enumerate_cases(ctx):
        for stage in case_stages(ctx, case):
            if stage.line is not None:
                assert sphere_moment(stage.line) == _term_by_term_moment(stage.line)
                checked += 1
    assert checked


def test_moment_of_sphere_reduced_polynomial_agrees():
    x1, x2, x3 = sym("xi1"), sym("xi2"), sym("xi3")
    p = x3 ** 4 + x1 ** 2 * x3 ** 2
    reduced = p.restrict_sphere()
    assert sphere_moment(p) == sphere_moment(reduced)


def test_xin_presence_rejected():
    with pytest.raises(EngineError):
        sphere_moment(XIN ** 2)


def test_sphere_quadrature_oracle_is_exact_on_monomials():
    """Every xi1^a xi2^b xi3^c with a, b, c <= 4 against `sphere_moment` at
    Omega3 = 4 pi: relative 1e-12 where the moment is nonzero, 1e-12 * 4 pi
    where it vanishes."""
    four_pi = 4 * math.pi
    for a, b, c in itertools.product(range(5), repeat=3):
        mono = sym("xi1") ** a * sym("xi2") ** b * sym("xi3") ** c
        exact = sphere_moment(mono).substitute({"Omega3": S_ONE}).evaluate({})
        want = four_pi * exact.to_complex()
        got = sphere_mc_oracle(mono)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-12 * (abs(want) or four_pi), (a, b, c)


def test_sphere_oracle_keeps_imaginary_parts():
    x1, x2 = sym("xi1"), sym("xi2")
    got = sphere_mc_oracle(IC * x1 ** 2)
    assert abs(got - 4j * math.pi / 3) <= 1e-12 * 4 * math.pi
    mixed = ScalarExpr.const(GRat(1, 2)) * x1 ** 2 + ScalarExpr.const(GRat(0, -3)) * x2 ** 4
    want = (1 + 2j) * 4 * math.pi / 3 - 3j * 4 * math.pi / 5
    assert abs(sphere_mc_oracle(mixed) - want) <= 1e-12 * 4 * math.pi


def test_sphere_oracle_divides_by_a_complex_constant_denominator():
    x1 = sym("xi1")
    den = GRat(2, 1)
    want = 4 * math.pi / 3 / (2 + 1j)
    # the canonical form folds a constant denominator into the numerator ...
    folded = x1 ** 2 / ScalarExpr.const(den)
    assert abs(sphere_mc_oracle(folded) - want) <= 1e-12 * 4 * math.pi
    # ... so build the unfolded ratio directly to reach the oracle's division
    raw = ScalarExpr((x1 ** 2).num, Poly.const(den), _canonical=True)
    assert abs(sphere_mc_oracle(raw) - want) <= 1e-12 * 4 * math.pi


def test_sphere_oracle_rejects_non_polynomial_input():
    with pytest.raises(EngineError):
        sphere_mc_oracle(XIN ** 2)
    with pytest.raises(EngineError):
        sphere_mc_oracle(S_ONE / (1 + sym("xi1") ** 2))


@pytest.mark.parametrize("n, want", [
    (1, [(0.0, 2.0)]),
    (2, [(1 / math.sqrt(3), 1.0), (-1 / math.sqrt(3), 1.0)]),
    (3, [(math.sqrt(3 / 5), 5 / 9), (0.0, 8 / 9), (-math.sqrt(3 / 5), 5 / 9)]),
])
def test_gauss_legendre_closed_forms(n, want):
    got = _gauss_legendre(n)
    assert len(got) == n
    for (u, w), (u_want, w_want) in zip(got, want):
        assert u == pytest.approx(u_want, abs=1e-15)
        assert w == pytest.approx(w_want, abs=1e-15)


def test_gauss_legendre_is_exact_to_degree_2n_minus_1():
    for n in range(1, 9):
        rule = _gauss_legendre(n)
        for k in range(2 * n):
            want = 0.0 if k % 2 else 2 / (k + 1)
            assert abs(sum(w * u ** k for u, w in rule) - want) <= 1e-14, (n, k)


@pytest.mark.parametrize("seed", [11, 20, 24])
def test_sphere_suite_passes_at_seeds_the_sampled_oracle_failed(seed):
    result = sphere_suite(seed=seed, count=20)
    assert result == {"passed": 20, "failures": []}


@pytest.mark.parametrize("wrong_calls, passed", [({21, 22}, 20), ({1}, 19), ({1, 2, 21}, 18)])
def test_sphere_suite_passed_counts_samples_without_failure(monkeypatch, wrong_calls, passed):
    """The oracle is called once per sample, then for the xi1^2 and xi2^4
    checks; a failed fixed check takes nothing off the passed samples."""
    from wresidue import verify

    calls = []

    def oracle(mono):
        calls.append(mono)
        return sphere_mc_oracle(mono) + (1.0 if len(calls) in wrong_calls else 0.0)

    monkeypatch.setattr(verify, "sphere_mc_oracle", oracle)
    result = sphere_suite(seed=0, count=20)
    assert len(calls) == 22
    assert len(result["failures"]) == len(wrong_calls)
    assert result["passed"] == passed


def test_moment_formula_dimension_generic():
    # normalized second moment is 1/d on S^(d-1)
    for d in (2, 3, 4, 7):
        assert monomial_moment([2, 0, 0], sphere_dim=d) == Fraction(1, d)
    assert monomial_moment([2, 2, 0], sphere_dim=4) == Fraction(1, 24)


def test_case_integrands_residue_matches_derivative_oracle():
    """Every T4.6 traced integrand integrates the same by both exact residue routes."""
    ctx = make_context("T4.6")
    for case in enumerate_cases(ctx):
        traced = case_trace_integrand(ctx, case.case_id)
        assert integrate_xi_n(traced) == integrate_via_residue_oracle(traced), case.case_id
