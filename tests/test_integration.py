"""Exact line and sphere integration against the numeric oracles."""

import math
import random
from fractions import Fraction

import pytest

from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, ScalarExpr, S_ONE, S_ZERO, sym
from wresidue.clifford import CliffordExpr
from wresidue.pipeline import case_trace_integrand, enumerate_cases, make_context
from wresidue.integration import (
    integrate_via_residue_oracle,
    integrate_xi_n,
    monomial_moment,
    numeric_contour_oracle,
    sphere_mc_oracle,
    sphere_moment,
)

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
        coeff = exact.substitute({"pi": S_ONE}).evaluate({})
        want = complex(float(coeff.re) * math.pi, float(coeff.im) * math.pi)
        got = numeric_contour_oracle(f)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


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


def test_moment_of_sphere_reduced_polynomial_agrees():
    x1, x2, x3 = sym("xi1"), sym("xi2"), sym("xi3")
    p = x3 ** 4 + x1 ** 2 * x3 ** 2
    reduced = p.restrict_sphere()
    assert sphere_moment(p) == sphere_moment(reduced)


def test_xin_presence_rejected():
    with pytest.raises(EngineError):
        sphere_moment(XIN ** 2)


def test_monte_carlo_oracle():
    mc = sphere_mc_oracle(sym("xi1") ** 2, n_samples=2_000_000, seed=9)
    want = 4 * math.pi / 3
    assert abs(mc - want) / want < 1e-3
    # fourth moment has higher variance; more samples for the same tolerance
    mc4 = sphere_mc_oracle(sym("xi1") ** 4, n_samples=8_000_000, seed=10)
    want4 = 4 * math.pi / 5
    assert abs(mc4 - want4) / want4 < 1e-3


def test_moment_formula_dimension_generic():
    # normalized second moment is 1/d on S^(d-1)
    for d in (2, 3, 4, 7):
        assert monomial_moment([2, 0, 0], sphere_dim=d) == Fraction(1, d)
    assert monomial_moment([2, 2, 0], sphere_dim=4) == Fraction(1, 24)


def test_case_integrands_residue_matches_derivative_oracle():
    """Every T4.6 traced integrand integrates the same by both exact residue routes."""
    ctx = make_context("T4.6")
    for case in enumerate_cases("T4.6"):
        traced = case_trace_integrand(ctx, case.case_id)
        assert integrate_xi_n(traced) == integrate_via_residue_oracle(traced), case.case_id
