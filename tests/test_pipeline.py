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
    BOUNDARY_THEOREMS,
    CaseSpec,
    apply_torsion_switches,
    case_trace_integrand,
    collect_form,
    collected_to_scalar,
    compute_case_term,
    enumerate_cases,
    find_case,
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

def _case_tuples(cases):
    return [(c.case_id, c.r, c.ell, c.k, c.j, c.alpha) for c in cases]


def test_case_tables():
    assert _case_tuples(enumerate_cases(make_context("T4.6"))) == [
        ("a1", 0, -2, 0, 0, 1),
        ("a2", 0, -2, 0, 1, 0),
        ("a3", 0, -2, 1, 0, 0),
        ("b", 0, -3, 0, 0, 0),
        ("c", -1, -2, 0, 0, 0),
    ]
    # the names of the lowered cases are the paper's: here b lowers F1
    assert _case_tuples(enumerate_cases(make_context("T5.4"))) == [
        ("a1", 1, -3, 0, 0, 1),
        ("a2", 1, -3, 0, 1, 0),
        ("a3", 1, -3, 1, 0, 0),
        ("b", 0, -3, 0, 0, 0),
        ("c", 1, -4, 0, 0, 0),
    ]


def test_constraint_satisfied_by_every_case():
    for th in BOUNDARY_THEOREMS:
        for c in enumerate_cases(make_context(th)):
            assert c.r + c.ell - c.k - c.j - c.alpha == -3


def _scan_cases(top_r, top_l, depth=8):
    """Every (r, l, k, j, |alpha|) with r <= top_r, l <= top_l (within `depth`
    orders of each) and k, j, |alpha| >= 0 that meets the constraint."""
    found = []
    for r in range(top_r, top_r - depth, -1):
        for ell in range(top_l, top_l - depth, -1):
            budget = r + ell + 3
            for k in range(budget + 1):
                for j in range(budget - k + 1):
                    found.append((r, ell, k, j, budget - k - j))
    return sorted(found)


def test_brute_force_completeness():
    """The derived cases are exactly those a scan below the factors' top
    orders finds."""
    for th in BOUNDARY_THEOREMS:
        ctx = make_context(th)
        derived = sorted((c.r, c.ell, c.k, c.j, c.alpha) for c in enumerate_cases(ctx))
        assert derived == _scan_cases(ctx.factor1.top, ctx.factor2.top), th


def test_factor_tops_outside_the_five_case_shape_rejected():
    ctx = make_context("T4.6")
    for top in (1, -1):
        bad = ctx._replace(factor1=ctx.factor1._replace(top=top))
        with pytest.raises(EngineError, match="T4.6"):
            enumerate_cases(bad)


def test_unknown_theorem_rejected():
    with pytest.raises(EngineError, match="T9.9"):
        make_context("T9.9")


def test_unknown_case_rejected():
    ctx = make_context("T4.6")
    with pytest.raises(EngineError, match="'z'"):
        find_case(ctx, "z")
    with pytest.raises(EngineError, match="'z'"):
        case_trace_integrand(ctx, "z")


# ---------------------------------------------------------------------------
# case values
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def t46():
    ctx = make_context("T4.6")
    cases = enumerate_cases(ctx)
    return ctx, {c.case_id: compute_case_term(ctx, c) for c in cases}


@pytest.fixture(scope="module")
def t54():
    ctx = make_context("T5.4")
    cases = enumerate_cases(ctx)
    return ctx, {c.case_id: compute_case_term(ctx, c) for c in cases}


def test_first_case_vanishes_exactly(t46, t54):
    assert t46[1]["a1"].value == S_ZERO
    assert t54[1]["a1"].value == S_ZERO


def test_second_case_frozen_value(t46):
    """Hand derivation: I_t = 2 pi i/4! [(6x^2-2)(-2-ix)/(x+i)^3]^(4)|_i = -5pi/8,
    I_n = pi/8, so the case value is (5/48) h' pi Om g(X^T,Y^T)-(1/16) h' pi Om XnYn."""
    form = collect_form(t46[1]["a2"].value)
    assert form.tangential == frac(5, 48) * H1 * PI * OM
    assert form.normal == frac(-1, 16) * H1 * PI * OM
    assert form.normal_dyn.is_zero()
    assert form.leftover.is_zero()


def test_third_case_frozen_value(t46):
    form = collect_form(t46[1]["a3"].value)
    assert form.tangential == frac(-5, 48) * H1 * PI * OM
    assert form.normal == frac(5, 16) * H1 * PI * OM


def test_dyn_term_only_in_last_case(t46):
    for cid in ("a1", "a2", "a3", "b"):
        assert collect_form(t46[1][cid].value).normal_dyn.is_zero()
    assert collect_form(t46[1]["c"].value).normal_dyn == frac(-1, 2) * PI * OM


def test_case_values_live_in_reporting_basis(t46):
    for cid, rep in t46[1].items():
        assert collect_form(rep.value).leftover.is_zero(), cid


def test_total_is_exact_sum(t46):
    reports = [t46[1][c] for c in ("a1", "a2", "a3", "b", "c")]
    total = total_boundary_term(reports, "T4.6")
    acc = S_ZERO
    for rep in reports:
        acc = acc + rep.value
    assert total.value == acc
    assert collected_to_scalar(collect_form(total.value)) == total.value


def test_zero_torsion_degeneration(t46, t54):
    for fixture in (t46, t54):
        for cid, rep in fixture[1].items():
            switched = apply_torsion_switches(rep.value, ("A", "T", "V"))
            for fam in ("A", "T", "V"):
                for sid in REG.ids_of_family(fam):
                    assert sid not in switched.variables(), (cid, fam)


def test_torsion_terms_present_before_switch(t54):
    val = t54[1]["b"].value
    assert any(sid in val.variables() for sid in REG.ids_of_family("A"))
    switched = apply_torsion_switches(val, ("A",))
    assert not any(sid in switched.variables() for sid in REG.ids_of_family("A"))


def test_torsion_switches_agree_with_generic_substitution(t54):
    """Scalars and Clifford values, with the atoms in the numerator or the
    denominator; a value free of the switched atoms comes back as it is."""
    a = REG.ids_of_family("A")[0]
    val = t54[1]["b"].value
    in_den = val / (sym("xin") + ScalarExpr.var(a)) + ScalarExpr.var(a) ** 2 / (1 + sym("xin") ** 2)
    cliff = CliffordExpr({(): in_den, (1, 4): val * sym("xin")})
    for off in (("A", "T", "V"), ("A",), ("V",)):
        bindings = {sid: S_ZERO for family in off for sid in REG.ids_of_family(family)}
        for expr in (val, in_den, cliff):
            assert apply_torsion_switches(expr, off) == expr.substitute(bindings)
    free = t54[1]["a1"].value + PI * OM
    assert apply_torsion_switches(free, ("A", "T", "V")) is free


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
    for case in enumerate_cases(base):
        if case.case_id in ("b", "c"):
            v1 = compute_case_term(base, case).value
            v2 = compute_case_term(alt, case).value
            assert v1 == v2, case.case_id


def test_runtime_budget_full_t46_run():
    from wresidue.symbols import _BUILTIN_CACHE

    _BUILTIN_CACHE.clear()
    start = time.monotonic()
    ctx = make_context("T4.6")
    reports = [compute_case_term(ctx, c) for c in enumerate_cases(ctx)]
    total_boundary_term(reports, "T4.6")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"five-case run took {elapsed:.1f}s"


def test_trail_records_primitive_steps(t46):
    rep = t46[1]["a2"]
    ops = [t.op for t in rep.trail]
    for needed in ("derivatives+restrict", "pi_plus", "cl_trace",
                   "integrate_xi_n", "sphere_moment", "scale"):
        assert needed in ops


def test_run_theorem_evaluates_each_stage_chain_once(monkeypatch, tmp_path):
    """Slots, rows and the sigma3 variant check share one evaluation per
    case, across the process and the worker that `run_theorem` shares its
    tasks with: each process appends its calls to one file."""
    import os
    from collections import Counter

    from wresidue import pipeline, report
    from wresidue.report import RunConfig, run_theorem

    axis_stages = pipeline._axis_stages

    def counting(ctx, case, axis):
        with open(tmp_path / ctx.theorem, "a") as out:
            out.write(f"{ctx.sigma3_variant} {case.case_id} {axis} {os.getpid()}\n")
        return axis_stages(ctx, case, axis)

    monkeypatch.setattr(pipeline, "_axis_stages", counting)
    forks = hasattr(os, "fork")
    if forks:  # the forked path wherever there is one
        monkeypatch.setattr(report, "_fork_helps", lambda: True)
    for theorem in ("T4.6", "T5.4"):
        run_theorem(theorem, RunConfig(theorem=theorem))
        lines = [line.split() for line in (tmp_path / theorem).read_text().splitlines()]
        calls = Counter(tuple(line[:3]) for line in lines)
        want = {
            ("printed", c.case_id, str(axis))
            for c in enumerate_cases(make_context(theorem))
            for axis in ((1, 2, 3) if c.alpha else (None,))
        }
        if theorem == "T4.6":  # its factors read the sigma3 variant
            want |= {("xik", "b", "None"), ("xik", "c", "None")}
        assert set(calls) == want, theorem
        assert set(calls.values()) == {1}, calls
        if forks:  # the worker runs the first task, a case, whatever else it claims
            assert {line[3] for line in lines} - {str(os.getpid())}, theorem


def test_each_slot_fills_exactly_the_stage_chain_it_declares():
    """`SlotEntry.reads` names the case whose stages a slot's engine builder
    reads, or None: built on a fresh context, the slot fills exactly that
    case's stages and no other, so the task that evaluates a case can build
    the slots that read it."""
    from wresidue.references import slots_for

    for theorem in ("T4.6", "T5.4"):
        for slot in slots_for(theorem):
            ctx = make_context(theorem)
            slot.build_engine(ctx)
            assert {case.case_id for case in ctx.stages} == (
                set() if slot.reads is None else {slot.reads}), slot.slot_id
    reads = {slot.slot_id: slot.reads for slot in slots_for("T5.4")}
    assert [sid for sid, case in reads.items() if case is None] == [
        "eq_5_30", "eq_5_31", "eq_5_32", "eq_5_33", "eq_5_34", "eq_5_47"]
    assert [sid for sid, case in reads.items() if case == "a3"] == [
        "eq_5_21", "eq_5_22", "eq_5_23", "eq_5_24", "eq_5_46", "eq_5_48", "eq_5_49"]


def test_rows_that_share_a_stage_read_apply_pi_plus_once(monkeypatch, tmp_path):
    """A stage read and each of its prefixes are kept on the context: in a
    cold inline `run --theorem all`, pi+ is applied to a3's `f1_base` once
    per boundary theorem, though five T5.4 rows and two T4.6 rows read it."""
    from wresidue import cli, references, report
    from wresidue.pipeline import case_stages

    projected = []
    real = references._OPS["pi+"]

    def counting(value):
        projected.append(value)
        return real(value)

    monkeypatch.setitem(references._OPS, "pi+", counting)
    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every read in this process
    out = tmp_path / "report.json"
    assert cli.main(["run", "--theorem", "all", "--format", "json", "--out", str(out)]) == 0
    for theorem in ("T4.6", "T5.4"):
        ctx = make_context(theorem)
        (stage,) = case_stages(ctx, find_case(ctx, "a3"))
        assert sum(value == stage.f1_base for value in projected) == 1, theorem


@pytest.mark.parametrize("read, message", [
    (("d", "f2"), "'d', which is no case of T5.4"),
    (("b", "f3"), "'f3', which is no stage field"),
    (("b", "f2", "pi+", "pi-"), "applies \\['pi\\+', 'pi-'\\], not only pi\\+ and d_xin"),
    (None, "reads no stage and has no then"),
], ids=["case", "field", "op", "empty"])
def test_a_malformed_slot_row_fails_when_it_is_declared(read, message):
    """A row names its stage read as data, so a read of no case of its
    theorem, of no stage field, with an op other than pi+ and d_xin, or a
    row with neither a read nor a `then`, raises as the module imports it,
    and adds no slot."""
    from wresidue import references

    before = list(references.SLOTS)
    with pytest.raises(EngineError, match=message):
        references._slot("eq_0_00", "T5.4", "b", "", lambda: None, read=read)
    assert references.SLOTS == before


def _xin_derivatives(value: CliffordExpr, times: int) -> CliffordExpr:
    for _ in range(times):
        value = d_xi(value, 4)
    return value


@pytest.mark.parametrize("theorem", ["T4.6", "T5.4"])
def test_restriction_commutes_with_xin_derivatives(theorem, t46, t54):
    """Each factor is restricted to |xi'| = 1 before its xin derivatives.
    For every case, tangential axis and factor, the xin derivatives of the
    restricted base equal the restriction of the xin derivatives of the
    unrestricted component, and the stored stages hold exactly these."""
    from wresidue.pipeline import case_stages
    from wresidue.symbols import d_x_tangential

    ctx = (t46 if theorem == "T4.6" else t54)[0]
    for case in enumerate_cases(ctx):
        stages = case_stages(ctx, case)
        axes = (1, 2, 3) if case.alpha else (None,)
        assert len(stages) == len(axes)
        for axis, stage in zip(axes, stages):
            f2 = ctx.factor2.component(case.ell)
            if case.alpha:
                f2 = d_x_tangential(f2)
            for _ in range(case.k):
                f2 = d_xn(f2)
            f1 = ctx.factor1.component(case.r)
            for _ in range(case.j):
                f1 = d_xn(f1)
            f1 = f1.value if not case.alpha else d_xi(f1.value, axis)
            for name, unrestricted, times in (("f2", f2.value, case.j + 1), ("f1", f1, case.k)):
                base = unrestricted.restrict_sphere()
                derived = _xin_derivatives(base, times)
                assert derived == _xin_derivatives(unrestricted, times).restrict_sphere(), (
                    theorem, case.case_id, axis, name)
                if getattr(stage, name) is not None:
                    assert getattr(stage, f"{name}_base") == base, (case.case_id, axis, name)
                    assert getattr(stage, name) == derived, (case.case_id, axis, name)


def test_collect_form_keeps_what_it_cannot_collect_as_leftover():
    """A non-constant denominator, a monomial outside the basis and an
    anisotropic tangential part all land in `leftover`, and
    `collected_to_scalar` reassembles the value in every case."""
    x1, y1, x2, y2, x3, y3, x4, y4 = (sym(n) for n in ("X1", "Y1", "X2", "Y2", "X3", "Y3",
                                                       "X4", "Y4"))
    g = x1 * y1 + x2 * y2 + x3 * y3
    non_constant = (H1 * g) / (H1 + ScalarExpr.const(3))
    outside = PI * g + x1 * y2 + H1 * x4 * y4
    anisotropic = frac(2) * x1 * y1 + x2 * y2 + x3 * y3 + OM * x4 * y4
    for value, leftover in ((non_constant, non_constant), (outside, x1 * y2),
                            (anisotropic, anisotropic - OM * x4 * y4)):
        form = collect_form(value)
        assert form.leftover == leftover, value
        assert collected_to_scalar(form) == value, value
    assert collect_form(outside).tangential == PI
    assert collect_form(outside).normal == H1
    assert collect_form(anisotropic).tangential.is_zero()
    assert collect_form(anisotropic).normal == OM
