"""Boundary pipeline: case enumeration, values, and independent oracles.

The frozen case values below were computed with the derivative-formula
residue oracle (the 2*pi*i/4! [...]^{(4)} pattern) and cross-checked through
the by-parts route; both computations live in this file.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, REG, ScalarExpr, S_ZERO, sym
from wresidue.clifford import CliffordExpr, cl_trace_product
from wresidue.halfplane import pi_plus
from wresidue.integration import integrate_xi_n, numeric_contour_oracle, sphere_moment
from wresidue.pipeline import (
    CaseSpec,
    apply_torsion_switches,
    brute_force_cases,
    case_trace_integrand,
    collect_form,
    collected_to_scalar,
    compute_case_term,
    enumerate_cases,
    make_context,
    total_boundary_term,
)
from wresidue.symbols import SymbolComponent, d_xi, d_xn

PI = sym("pi")
OM = sym("Omega3")
H1 = sym("h1")


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_case_tables():
    t46 = enumerate_cases("T4.6")
    assert [(c.r, c.ell, c.k, c.j, c.alpha) for c in t46] == [
        (0, -2, 0, 0, 1),
        (0, -2, 0, 1, 0),
        (0, -2, 1, 0, 0),
        (0, -3, 0, 0, 0),
        (-1, -2, 0, 0, 0),
    ]
    t54 = enumerate_cases("T5.4")
    assert (1, -4, 0, 0, 0) in [(c.r, c.ell, c.k, c.j, c.alpha) for c in t54]


def test_constraint_satisfied_by_every_case():
    for th in ("T4.6", "T5.4"):
        for c in enumerate_cases(th):
            assert c.r + c.ell - c.k - c.j - c.alpha == -3


def test_brute_force_completeness():
    for th in ("T4.6", "T5.4"):
        derived = brute_force_cases(th, depth=8)
        tabulated = sorted(
            (c.r, c.ell, c.k, c.j, c.alpha) for c in enumerate_cases(th)
        )
        assert derived == tabulated


def test_unknown_theorem_rejected():
    with pytest.raises(EngineError):
        enumerate_cases("T9.9")


# ---------------------------------------------------------------------------
# case values
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def t46():
    ctx = make_context("T4.6")
    cases = enumerate_cases("T4.6")
    return ctx, {c.case_id: compute_case_term(ctx, c) for c in cases}


@pytest.fixture(scope="module")
def t54():
    ctx = make_context("T5.4")
    cases = enumerate_cases("T5.4")
    return ctx, {c.case_id: compute_case_term(ctx, c) for c in cases}


def test_first_case_vanishes_exactly(t46, t54):
    assert t46[1]["a1"].value == S_ZERO
    assert t54[1]["a1"].value == S_ZERO


def test_second_case_frozen_value(t46):
    """Hand derivation: I_t = 2 pi i/4! [(6x^2-2)(-2-ix)/(x+i)^3]^(4)|_i = -5pi/8,
    I_n = pi/8, so the case value is (5/48) h' pi Om g(X^T,Y^T)-(1/16) h' pi Om XnYn."""
    rep = t46[1]["a2"]
    assert rep.collected.tangential == frac(5, 48) * H1 * PI * OM
    assert rep.collected.normal == frac(-1, 16) * H1 * PI * OM
    assert rep.collected.normal_dyn.is_zero()
    assert rep.collected.leftover.is_zero()


def test_third_case_frozen_value(t46):
    rep = t46[1]["a3"]
    assert rep.collected.tangential == frac(-5, 48) * H1 * PI * OM
    assert rep.collected.normal == frac(5, 16) * H1 * PI * OM


def test_dyn_term_only_in_last_case(t46):
    for cid in ("a1", "a2", "a3", "b"):
        assert t46[1][cid].collected.normal_dyn.is_zero()
    assert t46[1]["c"].collected.normal_dyn == frac(-1, 2) * PI * OM


def test_case_values_live_in_reporting_basis(t46):
    for cid, rep in t46[1].items():
        assert rep.collected.leftover.is_zero(), cid


def test_total_is_exact_sum(t46):
    reports = [t46[1][c] for c in ("a1", "a2", "a3", "b", "c")]
    total = total_boundary_term(reports, "T4.6")
    acc = S_ZERO
    for rep in reports:
        acc = acc + rep.value
    assert total.value == acc
    assert collected_to_scalar(total.collected) == total.value


def test_zero_torsion_degeneration(t46, t54):
    for fixture in (t46, t54):
        for cid, rep in fixture[1].items():
            switched = apply_torsion_switches(rep.value, False, False, False)
            for fam in ("A", "T", "V"):
                for sid in REG.ids_of_family(fam):
                    assert sid not in switched.variables(), (cid, fam)


def test_torsion_terms_present_before_switch(t54):
    val = t54[1]["b"].value
    assert any(sid in val.variables() for sid in REG.ids_of_family("A"))
    switched = apply_torsion_switches(val, False, True, True)
    assert not any(sid in switched.variables() for sid in REG.ids_of_family("A"))


def test_torsion_switches_agree_with_generic_substitution(t54):
    """Scalars and Clifford values, with the atoms in the numerator or the
    denominator; a value free of the switched atoms comes back as it is."""
    from wresidue.scalars import zero_torsion_bindings

    a = REG.ids_of_family("A")[0]
    val = t54[1]["b"].value
    in_den = val / (sym("xin") + ScalarExpr.var(a)) + ScalarExpr.var(a) ** 2 / (1 + sym("xin") ** 2)
    cliff = CliffordExpr({(): in_den, (1, 4): val * sym("xin")})
    for switches in ((False, False, False), (False, True, True), (True, True, False)):
        bindings = zero_torsion_bindings(*(not on for on in switches))
        for expr in (val, in_den, cliff):
            assert apply_torsion_switches(expr, *switches) == expr.substitute(bindings)
    free = t54[1]["a1"].value + PI * OM
    assert apply_torsion_switches(free, False, False, False) is free


# ---------------------------------------------------------------------------
# independent routes
# ---------------------------------------------------------------------------

def _integrate_and_spread(traced: ScalarExpr) -> ScalarExpr:
    line = integrate_xi_n(traced).scalar_part()
    return sphere_moment(line)


def test_by_parts_route_case_a3(t46):
    """Direct: Tr[d_xin pi+ s0 x d_xin d_xn s-2]; by parts flips the sign and
    moves the xi_n derivative: -Tr[d_xin^2 pi+ s0 x d_xn s-2]."""
    ctx = t46[0]
    direct = t46[1]["a3"]
    first = pi_plus(ctx.factor1.component(0).value.restrict_sphere())
    first2 = first.differentiate("xin").differentiate("xin")
    second = d_xn(ctx.factor2.component(-2)).value.restrict_sphere()
    traced = cl_trace_product(first2, second)
    value = _integrate_and_spread(traced) * frac(1, 2)  # -(1/2) * (-1) by parts
    assert value == direct.value


def test_by_parts_route_case_b(t46):
    """Direct: -i Tr[pi+ s0 x d_xin s-3]; by parts: +i Tr[d_xin pi+ s0 x s-3]."""
    ctx = t46[0]
    direct = t46[1]["b"]
    first = pi_plus(ctx.factor1.component(0).value.restrict_sphere())
    first1 = first.differentiate("xin")
    second = ctx.factor2.component(-3).value.restrict_sphere()
    traced = cl_trace_product(first1, second)
    value = _integrate_and_spread(traced) * ScalarExpr.const(I)
    assert value == direct.value


def test_by_parts_route_case_a2_t54(t54):
    """Tilde a2: -(1/2)Tr[d_xn pi+ s1 x d_xin^2 s-3] = -(1/2)Tr[d_xin^2 d_xn pi+ s1 x s-3]
    after two by-parts flips (sign restored)."""
    ctx = t54[0]
    direct = t54[1]["a2"]
    first = pi_plus(d_xn(ctx.factor1.component(1)).value.restrict_sphere())
    first2 = first.differentiate("xin").differentiate("xin")
    second = ctx.factor2.component(-3).value.restrict_sphere()
    traced = cl_trace_product(first2, second)
    value = _integrate_and_spread(traced) * frac(-1, 2)
    assert value == direct.value


def _poly_complex_eval(poly, bindings):
    total = 0j
    for mono, c in poly.terms.items():
        val = complex(c.to_complex())
        for s, e in mono:
            val *= bindings[s] ** e
        total += val
    return total


def test_numeric_end_to_end_case_a2(t46):
    """The full traced integrand of the second case against quadrature at
    random numeric tangential points, then the moment step against the exact
    second-moment table."""
    ctx = t46[0]
    traced = case_trace_integrand(ctx, "a2").scalar_part()
    rng = random.Random(17)
    numeric_bindings = {}
    for name in [f"X{j}" for j in range(1, 5)] + [f"Y{j}" for j in range(1, 5)]:
        numeric_bindings[name] = GRat(Fraction(rng.randint(-3, 3), 2))
    numeric_bindings["h1"] = GRat(Fraction(3, 2))
    numeric_bindings["dYn"] = GRat(1)
    bound = traced.substitute(
        {k: ScalarExpr.const(v) for k, v in numeric_bindings.items()}
    )
    for _ in range(4):
        # random point on the unit tangential co-sphere (rational direction)
        a, b = rng.randint(1, 5), rng.randint(6, 9)
        s = a * a + b * b
        xi = {
            "xi1": Fraction(a * a - b * b, s),
            "xi2": Fraction(2 * a * b, s),
            "xi3": Fraction(0),
        }
        point = bound.substitute({k: ScalarExpr.const(GRat(v)) for k, v in xi.items()})
        exact_line = integrate_xi_n(point).scalar_part()
        coeff = exact_line.substitute({"pi": ScalarExpr.const(1)}).evaluate({})
        want = complex(float(coeff.re), float(coeff.im)) * math.pi
        got = numeric_contour_oracle(point)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)


def test_variant_insensitivity_of_downstream_values():
    """Both index readings of the order -3 ground data give identical cases."""
    base = make_context("T4.6", "printed")
    alt = make_context("T4.6", "xik")
    for case in enumerate_cases("T4.6"):
        if case.case_id in ("b", "c"):
            v1 = compute_case_term(base, case).value
            v2 = compute_case_term(alt, case).value
            assert v1 == v2, case.case_id


def test_runtime_budget_full_t46_run():
    from wresidue.symbols import _BUILTIN_CACHE

    _BUILTIN_CACHE.clear()
    start = time.monotonic()
    ctx = make_context("T4.6")
    reports = [compute_case_term(ctx, c) for c in enumerate_cases("T4.6")]
    total_boundary_term(reports, "T4.6")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"five-case run took {elapsed:.1f}s"


def test_trail_records_primitive_steps(t46):
    rep = t46[1]["a2"]
    ops = [t.op for t in rep.trail]
    for needed in ("derivatives+restrict", "pi_plus", "cl_trace",
                   "integrate_xi_n", "sphere_moment", "scale"):
        assert needed in ops


def test_run_theorem_evaluates_each_stage_chain_once(monkeypatch):
    """Slots, rows and the sigma3 variant check share one evaluation per case."""
    from collections import Counter

    from wresidue import pipeline
    from wresidue.report import RunConfig, run_theorem

    calls = Counter()
    second_factor = pipeline._second_factor

    def counting(ctx, case, axis, trail):
        calls[ctx.sigma3_variant, case.case_id, axis] += 1
        return second_factor(ctx, case, axis, trail)

    monkeypatch.setattr(pipeline, "_second_factor", counting)
    run_theorem("T4.6", RunConfig(theorem="T4.6"))
    want = {
        ("printed", c.case_id, axis)
        for c in enumerate_cases("T4.6")
        for axis in ((1, 2, 3) if c.alpha else (None,))
    } | {("xik", "b", None), ("xik", "c", None)}
    assert set(calls) == want
    assert set(calls.values()) == {1}, calls
