"""Interior trace identities and the Einstein functional assembly."""

from fractions import Fraction

import pytest

from wresidue.gaussian import GRat
from wresidue.scalars import ScalarExpr, S_ZERO, atom_T, atom_V, sym
from wresidue.clifford import CliffordExpr, apply_torsion_switches, cl_trace
from wresidue.interior import (
    clifford_part_top_coefficient,
    connection_derivative,
    connection_term,
    curvature_trace_identities,
    einstein_functional_rhs,
    endomorphism_e,
    interior_density,
    trace_e,
)


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


def test_connection_derivative_trace_vanishes_per_pair():
    for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4)):
        assert cl_trace(connection_derivative(a, b)).is_zero(), (a, b)


def test_curvature_contraction_stripped_check():
    """R contracted against the symmetric delta dies by antisymmetry."""
    from wresidue.scalars import atom_R

    total = S_ZERO
    for s in range(1, 5):
        total = total + atom_R(1, 2, s, s)
    assert total == S_ZERO


def test_commutator_trace_vanishes():
    for a, b in ((1, 2), (2, 3), (1, 4)):
        ca = connection_term([ScalarExpr.const(1 if k == a else 0) for k in range(1, 5)])
        cb = connection_term([ScalarExpr.const(1 if k == b else 0) for k in range(1, 5)])
        assert cl_trace(ca * cb - cb * ca).is_zero()


def test_bracket_connection_trace_vanishes_generically():
    generic = connection_term([sym(f"w[{k}]") for k in range(1, 5)])
    assert cl_trace(generic).is_zero()


def test_all_identities_report_zero():
    for name, val in curvature_trace_identities().items():
        assert val.is_zero(), name


def test_trace_e_value():
    te = trace_e()
    want = 4 * (
        frac(-1, 4) * sym("Rg")
        - frac(3, 2) * sym("divV")
        + frac(3, 2) * sym("normT2")
        + frac(9, 2) * sym("normV2")
    )
    assert te == want


def test_trace_e_zero_torsion_degeneration():
    te = apply_torsion_switches(trace_e(), ("A", "T", "V"))
    assert te == -sym("Rg")


def test_contraction_term_alone_is_traceless():
    """The V-contraction of the three-form has vanishing trace by itself."""
    vt = CliffordExpr()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            coeff = S_ZERO
            for l in range(1, 5):
                coeff = coeff + atom_V(l) * atom_T(l, i, j)
            vt = vt + (CliffordExpr.gen(i) * CliffordExpr.gen(j)).scale(coeff)
    assert cl_trace(vt).is_zero()


def test_clifford_part_has_no_identity_component():
    e = endomorphism_e()
    assert e.clifford_part.scalar_part().is_zero()
    assert cl_trace(e.clifford_part).is_zero()


def test_top_monomial_coefficient_reported():
    top = clifford_part_top_coefficient()
    # the four-form contribution sits here; nonzero in general
    assert not top.is_zero()
    assert "dT4" in top.text()


def test_einstein_functional_density():
    rhs = einstein_functional_rhs(2)
    pi2 = sym("pi") ** 2
    want = frac(4, 3) * pi2 * (
        sym("RicVW") - frac(1, 2) * sym("s_scal") * sym("gVW")
    ) + 2 * (
        frac(-1, 4) * sym("Rg")
        - frac(3, 2) * sym("divV")
        + frac(3, 2) * sym("normT2")
        + frac(9, 2) * sym("normV2")
    ) * sym("gVW")
    assert rhs == want


def test_einstein_functional_prefactor_exact_in_pi():
    """v_3 = 2 pi^2 / Gamma(2): the G-coefficient is (v_3/6) * 2^2 = 4 pi^2/3."""
    rhs = einstein_functional_rhs(2)
    ric_only = rhs.substitute({"RicVW": ScalarExpr.const(1), "gVW": S_ZERO})
    assert ric_only == frac(4, 3) * sym("pi") ** 2


def test_torsion_free_specialization():
    rhs = apply_torsion_switches(einstein_functional_rhs(2), ("A", "T", "V"))
    pi2 = sym("pi") ** 2
    want = frac(4, 3) * pi2 * (
        sym("RicVW") - frac(1, 2) * sym("s_scal") * sym("gVW")
    ) + 2 * frac(-1, 4) * sym("Rg") * sym("gVW")
    assert rhs == want


def test_interior_density_matches_functional():
    assert interior_density() == einstein_functional_rhs(2)


def test_run_all_builds_e_and_the_trace_identities_once(monkeypatch):
    """E and the trace identities depend on no run input: one
    `run --theorem all` builds each once, through three interior theorems
    and the interior density of both boundary theorems."""
    from wresidue import interior, report
    from wresidue.report import RunConfig, run_computation

    builders = (interior.endomorphism_e, interior._curvature_trace_identities,
                interior.interior_density)
    for builder in builders:
        builder.cache_clear()
    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every build in this process
    run_computation(RunConfig(theorem="all"))
    assert [builder.cache_info().misses for builder in builders] == [1, 1, 1]


def test_trace_identities_come_in_a_new_dict():
    ids = curvature_trace_identities()
    ids.clear()
    assert sorted(curvature_trace_identities()) == [
        "connection-bracket-trace", "connection-commutator-trace", "connection-derivative-trace"]
