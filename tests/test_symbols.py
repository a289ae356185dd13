"""Symbol library, composition, inversion, and the boundary rule table."""

from itertools import combinations

import pytest
import sympy

from wresidue.gaussian import GRat, I
from wresidue.scalars import REG, EngineError, ScalarExpr, S_ONE, atom_A, mono_items, sym
from wresidue.clifford import CL_ONE, CliffordExpr, cl_trace
from wresidue.symbols import (
    GradedSymbol,
    SymbolComponent,
    builtin_symbol,
    c_gen,
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
    from wresidue.symbols import _mul_components, _dx_normal, d_xi

    term1 = _mul_components(s2, q3)
    term2 = _mul_components(s1, q2)
    term3 = _mul_components(
        SymbolComponent(d_xi(s2.value, 4), s2.at_point, s2.homogeneous), _dx_normal(q2)
    )
    # each term is at the boundary point, so their values add as they are
    assert term1.at_point and term2.at_point and term3.at_point
    total = term1.value + term2.value + term3.value
    assert (comp.component(-1).value - total).is_zero()


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
    stated = builtin_symbol("D_T^-1")
    recomputed = recomputed_symbol("D_T^-1")
    for order in (-1, -2):
        delta = (
            stated.component(order).value.restrict_sphere()
            - recomputed.component(order).value.restrict_sphere()
        )
        assert delta.is_zero(), order


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


# every operator id of `symbols._build_symbol`
_OPERATOR_IDS = ("D_T", "D_T*", "nablaXY", "D_T*D_T", "(D_T*D_T)^-1", "D_T^-1", "D_T*D_TD_T*",
                 "(D_T*D_TD_T*)^-1", "nablaXY(D_T*D_T)^-1", "nablaXY D_T^-1")


def test_the_operators_that_read_sigma3_are_the_listed_ones(monkeypatch):
    """`builtin_symbol` serves the "printed" symbol to any operator outside
    `_READS_SIGMA3`, whichever reading is asked for, so the set must name
    exactly the operators whose components differ between the readings."""
    from wresidue import symbols

    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    printed, xik = symbols.SIGMA3_VARIANTS
    differ = {op for op in _OPERATOR_IDS
              if symbols._build_symbol(op, printed).components
              != symbols._build_symbol(op, xik).components}
    assert differ == symbols._READS_SIGMA3


def test_run_all_builds_each_symbol_once(monkeypatch, tmp_path):
    """Composites take their factors from the symbol cache, and an operator
    that does not read the sigma3 variant is cached once: in one
    `run --theorem all`, no symbol and no factor of one is built twice,
    counted in this process and in the worker it forks alike (each appends
    its builds to one file)."""
    import ast
    from collections import Counter

    from wresidue import cli, symbols

    log = tmp_path / "builds"

    def counting(name):
        real = getattr(symbols, name)

        def build(*args):
            with open(log, "a") as out:
                out.write(repr((name,) + args) + "\n")
            return real(*args)
        return build

    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    for name in ("_build_symbol", "_sym_dirac", "_sym_nabla2", "_sym_laplacian_inv",
                 "_sym_dirac_inv", "_sym_cube_inv"):
        monkeypatch.setattr(symbols, name, counting(name))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--theorem", "all", "--format", "json", "--out", str(out)]) == 0
    builds = Counter(ast.literal_eval(line) for line in log.read_text().splitlines())
    assert {key: n for key, n in builds.items() if n > 1} == {}
    # both readings of the inverse Laplacian, and the composites of both theorems
    assert {("_sym_laplacian_inv", "printed"), ("_sym_laplacian_inv", "xik"),
            ("_build_symbol", "nablaXY(D_T*D_T)^-1", "xik"),
            ("_build_symbol", "D_T*D_TD_T*", "printed"),
            ("_build_symbol", "nablaXY D_T^-1", "printed")} <= set(builds)


def _constant_builders():
    """Each cached builder of a constant Clifford ingredient, with the
    argument lists it is called with."""
    from wresidue import references, symbols

    return [(symbols.torsion_u, [()]), (symbols.torsion_v, [()]),
            (symbols.torsion_two_form, [("X",), ("Y",)]),
            (references._p0_full, [()]), (references._first_item_sandwich, [()]),
            (references._ref_5_31, [()]), (references._ref_5_32, [()])]


def _run_all(tmp_path, *flags):
    from wresidue import cli

    out = tmp_path / "report.json"
    assert cli.main(["run", "--theorem", "all", "--format", "json", *flags,
                     "--out", str(out)]) == 0


def test_run_all_builds_each_constant_ingredient_once_per_off(monkeypatch, tmp_path):
    """The torsion endomorphisms u and v, the torsion two-forms, p_0 and the
    first-item sandwich of T5.4 case b, and the printed A_1 and A_2 are
    built once per process, whichever caller asks and whichever torsion
    families are switched off: after `all` and `all --no-torsion`, each
    cache holds one entry per argument list and was missed once per entry,
    and the switched run adds no key to the symbol cache."""
    from wresidue import report, symbols

    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every build in this process
    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    for builder, _ in _constant_builders():
        builder.cache_clear()
    _run_all(tmp_path)
    keys = set(symbols._BUILTIN_CACHE)
    _run_all(tmp_path, "--no-torsion")
    assert set(symbols._BUILTIN_CACHE) == keys
    for builder, arg_lists in _constant_builders():
        info = builder.cache_info()
        assert info.misses == info.currsize == len(arg_lists), builder.__name__
        for args in arg_lists:
            builder(*args)
        assert builder.cache_info().misses == info.misses, builder.__name__


def test_runs_leave_the_memoized_ingredients_unchanged(monkeypatch, tmp_path):
    """No caller mutates a shared value: what a builder returned before a run
    equals a fresh build after it."""
    from wresidue import report

    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every use in this process
    before = {(builder, args): builder(*args)
              for builder, arg_lists in _constant_builders() for args in arg_lists}
    _run_all(tmp_path)
    _run_all(tmp_path, "--no-torsion")
    for (builder, args), value in before.items():
        assert value == builder.__wrapped__(*args), (builder.__name__, args)
        assert builder(*args) is value


# ---------------------------------------------------------------------------
# u and v see only the vector trace and the axial part of the torsion A
# ---------------------------------------------------------------------------

def _sympy_of(e: ScalarExpr):
    def poly(p):
        return sympy.Add(*(
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
            * sympy.Mul(*(sympy.Symbol(REG.name_of(s)) ** k for s, k in mono_items(m)))
            for m, c in p.terms.items()))

    return poly(e.num) / poly(e.den)


def _sympy_coeffs(x: CliffordExpr):
    return {m: _sympy_of(c) for m, c in x.terms.items()}


def _raw_a(i, s, t):
    """A_ist of a tensor antisymmetric in (s, t) with 24 free components."""
    if s == t:
        return 0
    sign = 1 if s < t else -1
    return sign * sympy.Symbol(f"raw{i}{min(s, t)}{max(s, t)}")


def _raw_u_v():
    """u and v by the general formulas over the raw components `_raw_a`, as
    {Clifford monomial: sympy coefficient}."""

    u, v = {}, {}

    def add(out, clifford, coeff):
        for m, c in clifford.terms.items():
            out[m] = out.get(m, 0) + _sympy_of(c) * coeff

    quarter = sympy.Rational(1, 4)
    for i in range(1, 5):
        for s in range(1, 5):
            for t in range(1, 5):
                if len({i, s, t}) == 3:
                    add(u, c_gen(i) * c_gen(s) * c_gen(t), quarter * _raw_a(i, s, t))
            add(v, c_gen(s), -quarter * _raw_a(i, i, s) + quarter * _raw_a(i, s, i))
            add(v, c_gen(i), -quarter * _raw_a(i, s, s))
        add(v, c_gen(i), 2 * quarter * _raw_a(i, i, i))
    return u, v


def _same(mine, theirs):
    return all(sympy.expand(mine.get(m, 0) - theirs.get(m, 0)) == 0
               for m in set(mine) | set(theirs))


def test_u_and_v_of_the_projected_torsion_equal_the_raw_formulas():
    """u and v built from the raw tensor, with each raw A_ist replaced by
    `atom_A(i, s, t)` (its vector and axial parts), are `torsion_u` and
    `torsion_v`.  Read the other way, u and v of a free raw tensor are the
    registered ones at A[t] = sum_i A_iit and A[p,q,r] = Alt(A)_pqr: the 16
    components of the tensor part reach neither."""

    u, v = _raw_u_v()
    projected = {_raw_a(i, s, t): _sympy_of(atom_A(i, s, t))
                 for i in range(1, 5) for s, t in combinations(range(1, 5), 2)}
    want_u, want_v = _sympy_coeffs(torsion_u()), _sympy_coeffs(torsion_v())
    assert _same({m: c.xreplace(projected) for m, c in u.items()}, want_u)
    assert _same({m: c.xreplace(projected) for m, c in v.items()}, want_v)

    a = _raw_a
    parts = {sympy.Symbol(f"A[{t}]"): sum(a(i, i, t) for i in range(1, 5)) for t in range(1, 5)}
    for p, q, r in combinations(range(1, 5), 3):
        parts[sympy.Symbol(f"A[{p},{q},{r}]")] = (a(p, q, r) + a(q, r, p) + a(r, p, q)) / 3
    assert _same(u, {m: c.xreplace(parts) for m, c in want_u.items()})
    assert _same(v, {m: c.xreplace(parts) for m, c in want_v.items()})
