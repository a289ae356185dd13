"""Symbol library, composition, inversion, and the boundary rule table."""

import pytest

from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, ScalarExpr, S_ONE, sym
from wresidue.clifford import CL_ONE, CliffordExpr, cl_trace
from wresidue.symbols import (
    GradedSymbol,
    SymbolComponent,
    builtin_symbol,
    c_dxn,
    c_xi,
    c_xi_prime,
    check_homogeneity,
    compose,
    d_x_tangential,
    d_xi,
    d_xn,
    invert,
    norm_xi_sq,
    q_bilinear,
    recomputed_symbol,
    torsion_u,
    torsion_v,
)

IC = ScalarExpr.const(I)
XIN = sym("xin")
H1 = sym("h1")


def test_sigma1_dirac():
    dt = builtin_symbol("D_T")
    assert dt.component(1).value == c_xi().scale(IC)
    assert builtin_symbol("D_T*").component(1).value == c_xi().scale(IC)


def test_sigma0_difference_is_twice_odd_part():
    """Direct term-by-term subtraction is the oracle for the stated symbols."""
    diff = builtin_symbol("D_T").component(0).value - builtin_symbol("D_T*").component(0).value
    assert diff == torsion_v().scale(ScalarExpr.const(2))


def test_sigma2_covariant_bilinear():
    n2 = builtin_symbol("nablaXY")
    assert n2.component(2).value == CliffordExpr.scalar(-q_bilinear())


def test_compose_order_zero_example():
    comp = builtin_symbol("nablaXY(D_T*D_T)^-1")
    want = CliffordExpr.scalar(-q_bilinear() * norm_xi_sq() ** -1)
    assert comp.component(0).value == want


def test_compose_order_minus_one_matches_expansion():
    """sigma_-1 = sigma_2 sigma_-3 + sigma_1 sigma_-2 + sum d_xi sigma_2 D_x sigma_-2."""
    nabla = builtin_symbol("nablaXY")
    lap_inv = builtin_symbol("(D_T*D_T)^-1")
    comp = builtin_symbol("nablaXY(D_T*D_T)^-1")
    s2 = nabla.component(2)
    s1 = nabla.component(1)
    q3 = lap_inv.component(-3)
    q2 = lap_inv.component(-2)
    from wresidue.symbols import _mul_components, _add_components, _dx_normal, d_xi

    term1 = _mul_components(s2, q3)
    term2 = _mul_components(s1, q2)
    term3 = _mul_components(
        SymbolComponent(d_xi(s2.value, 4), s2.at_point, s2.homogeneous), _dx_normal(q2)
    )
    total = _add_components(_add_components(term1, term2), term3)
    assert (comp.component(-1).value - total.value).is_zero()


def test_parametrix_identity_dirac():
    dt = builtin_symbol("D_T")
    inv = invert(dt, -2)
    for left, right in ((dt, inv), (inv, dt)):
        prod = compose(left, right, -1)
        assert prod.component(0).value == CL_ONE
        assert prod.component(-1).value.is_zero()


def test_invert_laplacian_leading_order():
    inv = recomputed_symbol("(D_T*D_T)^-1")
    assert inv.component(-2).value == CliffordExpr.scalar(norm_xi_sq() ** -1)


def test_invert_dirac_matches_stated_inverse():
    """The stated inverse symbols are reproduced by the parametrix recursion."""
    for op, inv_op in (("D_T^-1", "D_T^-1"), ("(D_T*)^-1", "(D_T*)^-1")):
        stated = builtin_symbol(op)
        recomputed = recomputed_symbol(op)
        for order in (-1, -2):
            delta = (
                stated.component(order).value.restrict_sphere()
                - recomputed.component(order).value.restrict_sphere()
            )
            assert delta.is_zero(), (op, order)


def test_invert_cube_leading_orders():
    inv = recomputed_symbol("(D_T*D_TD_T*)^-1")
    want = c_xi().scale(IC * norm_xi_sq() ** -2)
    assert inv.component(-3).value == want


def test_unknown_operator_rejected():
    with pytest.raises(EngineError):
        builtin_symbol("no-such-operator")


def test_missing_order_rejection_names_order():
    dt = builtin_symbol("D_T")
    with pytest.raises(EngineError) as err:
        compose(dt, dt, -3)
    assert "order" in str(err.value)


def test_boundary_derivative_rule_table():
    lap_inv = builtin_symbol("(D_T*D_T)^-1")
    m2 = lap_inv.component(-2)
    # tangential x-derivatives vanish
    assert d_x_tangential(m2).value.is_zero()
    # normal derivative, restricted: -h'(0)/(1+xin^2)^2
    dn = d_xn(m2)
    assert dn.value.restrict_sphere() == CliffordExpr.scalar(-H1 / (1 + XIN ** 2) ** 2)
    # xi_n derivative of |xi|^-2
    dxi = d_xi(m2.value, 4)
    assert dxi == CliffordExpr.scalar(
        (-2 * XIN) * norm_xi_sq() ** -2
    )


def test_normal_derivative_of_sigma0_composite():
    comp = builtin_symbol("nablaXY(D_T*D_T)^-1")
    dn = d_xn(comp.component(0))
    want = CliffordExpr.scalar(
        (q_bilinear() * H1 / (1 + XIN ** 2) ** 2).restrict_sphere()
    )
    assert dn.value.restrict_sphere() == want


def test_second_normal_derivative_rejected():
    comp = builtin_symbol("nablaXY(D_T*D_T)^-1")
    once = d_xn(comp.component(0))
    with pytest.raises(EngineError):
        d_xn(once)


def test_at_point_normal_derivative_rejected():
    lap_inv = builtin_symbol("(D_T*D_T)^-1")
    with pytest.raises(EngineError):
        d_xn(lap_inv.component(-3))


def test_frame_derivative_traces():
    """The two trace values fixed by the frame-derivative convention."""
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(H1 / 2)
    t_zero = cl_trace(cxip * cxip * c_dxn() * dc).restrict_sphere()
    assert t_zero.is_zero()
    t_val = cl_trace(c_dxn() * cxip * c_dxn() * dc).restrict_sphere()
    assert t_val == -2 * H1


def test_homogeneity_bookkeeping():
    for op_id, orders in (
        ("D_T", (1,)),
        ("nablaXY", (2, 1)),
        ("(D_T*D_T)^-1", (-2, -3)),
        ("D_T^-1", (-1, -2)),
        ("(D_T*D_TD_T*)^-1", (-3,)),
        ("nablaXY(D_T*D_T)^-1", (0, -1)),
    ):
        s = builtin_symbol(op_id)
        for order in orders:
            assert check_homogeneity(s.component(order), order), (op_id, order)


def test_lambda_scaling():
    """Explicit xi -> lambda xi scaling on polynomial-in-xi components."""
    comp = builtin_symbol("nablaXY").component(2).value.scalar_part()
    lam = ScalarExpr.const(GRat(3))
    scaled = comp.substitute(
        {f"xi{j}": lam * sym(f"xi{j}") for j in (1, 2, 3)} | {"xin": lam * XIN}
    )
    assert scaled == lam ** 2 * comp


def test_paper_vs_recomputed_sigma_m3_diff_is_emitted():
    stated = builtin_symbol("(D_T*D_T)^-1").component(-3).value.restrict_sphere()
    recomputed = recomputed_symbol("(D_T*D_T)^-1").component(-3).value.restrict_sphere()
    delta = stated - recomputed
    # the stated and recursion values differ here; the report carries the diff
    assert not delta.is_zero()
    # the difference is confined to the scalar and two-form parts
    grades = delta.grades()
    assert grades <= {0, 2}


def test_sigma3_variants_available():
    printed = builtin_symbol("(D_T*D_T)^-1", "printed").component(-3).value
    xik = builtin_symbol("(D_T*D_T)^-1", "xik").component(-3).value
    assert not (printed - xik).is_zero()
    with pytest.raises(EngineError):
        builtin_symbol("(D_T*D_T)^-1", "bogus")


def test_run_all_builds_each_symbol_once(monkeypatch, tmp_path):
    """Composites take their factors from the symbol cache, and an operator
    that does not read the sigma3 variant is cached once: in one
    `run --theorem all`, no symbol and no factor of one is built twice."""
    from collections import Counter

    from wresidue import cli, symbols

    builds = Counter()

    def counting(name):
        real = getattr(symbols, name)

        def build(*args):
            builds[(name,) + args] += 1
            return real(*args)
        return build

    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    for name in ("_build_symbol", "_sym_dirac", "_sym_nabla2", "_sym_laplacian_inv",
                 "_sym_dirac_inv", "_sym_cube_inv"):
        monkeypatch.setattr(symbols, name, counting(name))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--theorem", "all", "--format", "json", "--out", str(out)]) == 0
    assert {key: n for key, n in builds.items() if n > 1} == {}
    # both readings of the inverse Laplacian, and the composites of both theorems
    assert {("_sym_laplacian_inv", "printed", ()), ("_sym_laplacian_inv", "xik", ()),
            ("_build_symbol", "nablaXY(D_T*D_T)^-1", "xik", ()),
            ("_build_symbol", "D_T*D_TD_T*", "printed", ()),
            ("_build_symbol", "nablaXY D_T^-1", "printed", ())} <= set(builds)



_OFFS = ((), ("A", "T", "V"))


def _constant_builders():
    """Each memoized builder of a constant Clifford ingredient, with the
    arguments it takes before `off` (None for a printed reference, which
    has no `off`)."""
    from wresidue import references, symbols

    return [(symbols.torsion_u, [()]), (symbols.torsion_v, [()]),
            (symbols.torsion_two_form, [("X",), ("Y",)]),
            (references._p0_full, [()]), (references._first_item_sandwich, [()]),
            (references._ref_5_31, None), (references._ref_5_32, None)]


def _argument_lists(heads):
    return [()] if heads is None else [head + (off,) for head in heads for off in _OFFS]


def _run_all(tmp_path, *flags):
    from wresidue import cli

    out = tmp_path / "report.json"
    assert cli.main(["run", "--theorem", "all", "--format", "json", *flags,
                     "--out", str(out)]) == 0


def test_run_all_builds_each_constant_ingredient_once_per_off(monkeypatch, tmp_path):
    """The torsion endomorphisms u and v, the torsion two-forms, p_0 and the
    first-item sandwich of T5.4 case b, and the printed A_1 and A_2 are
    built once per process and per switched-off set, whichever caller asks
    and whether it passes `off` or leaves it at its default."""
    from wresidue import report

    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every build in this process
    for builder, _ in _constant_builders():
        builder.cache_clear()
    _run_all(tmp_path)
    _run_all(tmp_path, "--no-torsion")
    for builder, heads in _constant_builders():
        assert set(builder.builds.values()) == {1}, builder.__name__
        assert set(builder.builds) <= set(_argument_lists(heads)), builder.__name__
        defaults = [()] if heads is None else [head + ((),) for head in heads]
        assert set(defaults) <= set(builder.builds), builder.__name__
    assert torsion_u() is torsion_u(()) is torsion_u([])


def test_runs_leave_the_memoized_ingredients_unchanged(monkeypatch, tmp_path):
    """No caller mutates a shared value: what a builder returned before a run
    equals a fresh build after it."""
    from wresidue import report

    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every use in this process
    before = {(builder, args): builder(*args)
              for builder, heads in _constant_builders() for args in _argument_lists(heads)}
    _run_all(tmp_path)
    _run_all(tmp_path, "--no-torsion")
    for (builder, args), value in before.items():
        assert value == builder.__wrapped__(*args), (builder.__name__, args)
        assert builder(*args) is value
