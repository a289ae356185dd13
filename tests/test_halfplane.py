"""Half-plane projections via partial fractions at the poles +/-i."""

import random
from fractions import Fraction

import pytest

from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, ScalarExpr, S_ONE, S_ZERO, scalar_sum, sym
from wresidue.clifford import CliffordExpr, as_clifford
from wresidue.halfplane import (
    basis_fractions,
    pi_minus,
    pi_plus,
    pi_plus_scalar,
    pi_prime,
    principal_part,
)

XIN = sym("xin")
IC = ScalarExpr.const(I)


def _decompose_scalar(f):
    """The derivative-formula route to the partial fractions of f, a
    reference for the closed form of `basis_fractions`: the polynomial part
    by exact division, and at each pole of order n the coefficient of
    (xin - pole)^-(n-k) as g^(k)(pole) / k!, g the remainder over the other
    pole's factor."""
    from wresidue.halfplane import _factor_pole_denominator
    from wresidue.scalars import XIN as XIN_ID, _prem, poly_divexact

    const, p, q = _factor_pole_denominator(f.den)
    inv_const = ScalarExpr.const(const.inverse())
    # den is monic in xin (canonical form), so the pseudo-remainder is the remainder
    rem = _prem(f.num, f.den, XIN_ID)
    quo = poly_divexact(f.num - rem, f.den)
    poly_part = {}
    if not quo.is_zero():
        poly_part = {d: ScalarExpr.from_poly(cp) for d, cp in quo.coeffs_in(XIN_ID).items()}
    plus, minus = {}, {}
    rem_expr = ScalarExpr.from_poly(rem) * inv_const
    for pole, order, other, table in ((IC, p, (XIN + IC) ** q, plus),
                                      (-IC, q, (XIN - IC) ** p, minus)):
        if not order:
            continue
        g = rem_expr / other
        fact = 1
        for k in range(order):
            if k:
                fact *= k
                g = g.differentiate(XIN_ID)
            coeff = g.substitute({XIN_ID: pole}) / ScalarExpr.const(fact)
            if not coeff.is_zero():
                table[order - k] = coeff
    return plus, minus, poly_part


def test_partial_fractions_simple_pole_pair():
    f = 1 / (1 + XIN ** 2)
    entry = basis_fractions(f.den, 0)
    want_plus = 1 / (2 * IC)
    want_minus = -1 / (2 * IC)
    assert entry.plus == {1: want_plus}
    assert entry.minus == {1: want_minus}
    assert not entry.poly
    assert principal_part(f, 1) == CliffordExpr.scalar(want_plus)
    assert principal_part(f, 2).is_zero()


def test_partial_fractions_polynomial_part():
    f = XIN ** 2 / (1 + XIN ** 2)
    entry = basis_fractions(f.den, 2)
    assert entry.poly == {0: S_ONE}
    assert set(entry.plus) == {1} and set(entry.minus) == {1}


def _solve_linear_system(matrix, rhs):
    """Exact Gaussian elimination over Q(i) (independent of the engine path)."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not m[r][col].is_zero())
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def test_partial_fractions_seven_coefficients_vs_linear_system():
    """1/((x-i)^5 (x+i)^2): clear denominators and solve the linear system."""
    f = 1 / ((XIN - IC) ** 5 * (XIN + IC) ** 2)
    assert f.num == S_ONE.num
    entry = basis_fractions(f.den, 0)
    assert len(entry.plus) == 5 and len(entry.minus) == 2 and not entry.poly
    # oracle: coefficients a_m, b_m with
    #   1 = sum_m a_m (x-i)^(5-m) (x+i)^2 + sum_m b_m (x+i)^(2-m) (x-i)^5
    # solved exactly as a 7x7 linear system in the monomial basis of x.
    from wresidue.scalars import XIN as XIN_ID

    unknown_shapes = [("plus", m) for m in range(1, 6)] + [("minus", m) for m in (1, 2)]
    columns = []
    for side, mult in unknown_shapes:
        if side == "plus":
            poly = (XIN - IC) ** (5 - mult) * (XIN + IC) ** 2
        else:
            poly = (XIN + IC) ** (2 - mult) * (XIN - IC) ** 5
        coeffs = poly.num.coeffs_in(XIN_ID)
        columns.append([coeffs.get(d, None) for d in range(7)])
    matrix = []
    for d in range(7):
        row = []
        for colvals in columns:
            cell = colvals[d]
            row.append(cell.const_value() if cell is not None else GRat(0))
        matrix.append(row)
    rhs = [GRat(1)] + [GRat(0)] * 6
    solved = _solve_linear_system(matrix, rhs)
    for (side, mult), val in zip(unknown_shapes, solved):
        got = (entry.plus if side == "plus" else entry.minus)[mult]
        assert got == ScalarExpr.const(val), (side, mult)
        if side == "plus":
            assert principal_part(f, mult) == CliffordExpr.scalar(got)


def test_reassembly_invariant():
    f = (XIN ** 3 - 2 * XIN + 5) / ((XIN - IC) ** 3 * (XIN + IC) ** 2)
    assert pi_plus(f) + pi_minus(f) == CliffordExpr.scalar(f)


def test_pi_plus_examples():
    # tangential block of the order-zero projected symbol: pi+ of -q/(1+xin^2)
    q = sym("X1") * sym("Y1") * sym("xi1") ** 2
    f = -q * (1 / (1 + XIN ** 2))
    assert pi_plus(f) == CliffordExpr.scalar(q * IC / (2 * (XIN - IC)))
    assert pi_plus(1 / (XIN + IC)).is_zero()


def test_pi_plus_drops_polynomial_part():
    f = -(XIN ** 2) / (1 + XIN ** 2)
    out = pi_plus(f)
    assert out == CliffordExpr.scalar(-IC / (2 * (XIN - IC)))


def test_pi_plus_idempotent_and_complement():
    rng = random.Random(7)
    for _ in range(60):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        num = S_ZERO
        for d in range(p + q):
            num = num + ScalarExpr.const(GRat(rng.randint(-4, 4), rng.randint(-4, 4))) * XIN ** d
        f = num / ((XIN - IC) ** p * (XIN + IC) ** q)
        plus = pi_plus(f)
        assert pi_plus(plus) == plus
        assert plus + pi_minus(f) == CliffordExpr.scalar(f)


def test_pi_plus_commutes_with_lower_half_multiplication():
    # pi+(pi+(f) * g) = pi+(f * g) when g has poles only at -i
    rng = random.Random(11)
    for _ in range(40):
        f = ScalarExpr.const(GRat(rng.randint(1, 5))) / (
            (XIN - IC) ** rng.randint(1, 2) * (XIN + IC) ** rng.randint(1, 2)
        )
        lower = 1 / (XIN + IC) ** rng.randint(1, 2)
        lhs = pi_plus(pi_plus(f).scalar_part() * lower)
        assert lhs == pi_plus(f * lower)


def test_pi_plus_commutes_with_xin_derivative():
    f = (XIN + 3) / ((XIN - IC) ** 2 * (XIN + IC) ** 2)
    lhs = pi_plus(f.differentiate("xin"))
    rhs = pi_plus(f).scalar_part().differentiate("xin")
    assert lhs == CliffordExpr.scalar(rhs)


def test_pi_plus_commutes_with_coefficient_derivative():
    # the boundary normal derivative acts on coefficients; h1 plays that role
    f = sym("h1") ** 2 / (1 + XIN ** 2) ** 2
    lhs = pi_plus(f.differentiate("h1"))
    rhs = pi_plus(f).scalar_part().differentiate("h1")
    assert lhs == CliffordExpr.scalar(rhs)


def test_pi_prime_examples():
    assert pi_prime(1 / (1 + XIN ** 2)) == CliffordExpr.scalar(
        ScalarExpr.const(GRat(Fraction(1, 2)))
    )
    assert pi_prime(1 / (XIN + IC)).is_zero()
    # pi' of the pi+ image equals pi' of the input on decaying functions
    f = (XIN - 2) / ((XIN - IC) ** 2 * (XIN + IC) ** 3)
    assert pi_prime(pi_plus(f).scalar_part()) == pi_prime(f)


def test_pole_elsewhere_rejected():
    with pytest.raises(EngineError) as err:
        pi_plus(1 / (XIN - 1))
    assert "pole" in str(err.value)


def test_denominator_with_other_variables_rejected():
    with pytest.raises(EngineError):
        pi_plus(1 / (sym("xi1") * (1 + XIN ** 2)))


def test_pi_plus_scalar_agrees_with_clifford_route():
    f = (XIN ** 2 + sym("h1")) / ((XIN - IC) ** 2 * (XIN + IC) ** 2)
    assert CliffordExpr.scalar(pi_plus_scalar(f)) == pi_plus(f)


def test_partial_fractions_with_other_variables_matches_direct_decomposition():
    """Coefficients carrying h1, X1, Y2 decompose as the direct per-coefficient kernel does.

    `principal_part` and `pi_minus` expand each coefficient against cached
    basis elements xin^d / den; `_decompose_scalar` on the whole coefficient
    is the reference route.
    """
    from wresidue.scalars import XIN as XIN_ID, lin_plus
    from wresidue.verify import _rand_halfline

    rng = random.Random(11)
    weights = (sym("h1"), sym("X1") * sym("Y2"), S_ONE - sym("h1") * sym("Y2"))
    for _ in range(12):
        expr = CliffordExpr()
        for mono in ((), (1,), (2, 4)):
            coeff = S_ZERO
            for w in rng.sample(weights, 2):
                coeff = coeff + w * _rand_halfline(rng, decay=rng.choice((0, 1, 2)))
            expr = expr + CliffordExpr({mono: coeff})
        minus_part = pi_minus(expr)
        for mono, coeff in expr.terms.items():
            plus, minus, poly = _decompose_scalar(coeff)
            for m in range(1, coeff.den.degree_in(XIN_ID) + 2):
                assert principal_part(expr, m).coefficient(mono) == plus.get(m, S_ZERO)
            want = scalar_sum([c * lin_plus(-m) for m, c in minus.items()]
                              + [c * XIN ** d for d, c in poly.items()])
            assert minus_part.coefficient(mono) == want


def _off_by_one(entry_plus):
    """The principal parts with the coefficient of the highest pole order
    increased by 1."""
    top = max(entry_plus)
    return {**entry_plus, top: entry_plus[top] + 1}


def test_basis_reassembly_rejects_a_principal_part_off_by_one(monkeypatch):
    from wresidue import halfplane

    real = halfplane._basis_tables

    def wrong(den, d):
        plus, minus, poly = real(den, d)
        return _off_by_one(plus), minus, poly

    halfplane.basis_fractions.cache_clear()
    monkeypatch.setattr(halfplane, "_basis_tables", wrong)
    den = (1 / ((XIN - IC) ** 3 * (XIN + IC) ** 2)).den
    with pytest.raises(EngineError, match="internal: partial-fraction reassembly mismatch"):
        halfplane.basis_fractions(den, 1)


@pytest.mark.parametrize("p", range(5))
def test_closed_form_basis_equals_the_derivative_formula_route(p):
    """Every basis element xin^d / ((xin - i)^p (xin + i)^q), q <= 4 and
    d <= p + q + 2: the closed-form tables equal the derivative-formula
    reference entry for entry, zeros left out alike."""
    from wresidue.halfplane import _basis_tables
    from wresidue.scalars import XIN as XIN_ID, Poly

    for q in range(5):
        den = ((XIN - IC) ** p * (XIN + IC) ** q).num
        for d in range(p + q + 3):
            num = Poly.var(XIN_ID, d) if d else Poly.const(1)
            want = _decompose_scalar(ScalarExpr(num, den))
            assert _basis_tables(den, d) == want, (p, q, d)
            entry = basis_fractions(den, d)
            assert (entry.plus, entry.minus, entry.poly) == want, (p, q, d)


@pytest.mark.parametrize("table", ["minus", "poly"])
def test_complement_check_catches_an_off_by_one_basis_table(monkeypatch, table):
    """pi- is read off the basis tables, not computed as f - pi+(f): with one
    table of every basis entry off by one, `pi+ + pi- = id` fails in the
    halfplane suite, and no other check does."""
    from wresidue import halfplane
    from wresidue.verify import halfplane_suite

    assert halfplane_suite(3, 30)["failures"] == []
    real = halfplane.basis_fractions

    def wrong(den, d):
        entry = real(den, d)
        if not getattr(entry, table):
            return entry
        tables = {"plus": entry.plus, "minus": entry.minus, "poly": entry.poly}
        tables[table] = _off_by_one(tables[table])
        return halfplane._BasisEntry(**tables, pi_plus=entry.pi_plus)

    monkeypatch.setattr(halfplane, "basis_fractions", wrong)
    failures = halfplane_suite(3, 30)["failures"]
    assert failures
    assert all(f.startswith("pi+ + pi- = id #") for f in failures), failures


def test_halfplane_suite_catches_a_pi_plus_that_keeps_lower_half_poles(monkeypatch):
    """pi+(f lower) = pi+(pi+(f) lower) holds because pi+ kills pi-(f) lower.
    A pi+ that keeps the principal parts at -i of order 2 and up leaves part
    of pi-(f) lower, and the suite reports the lower-half multiplication."""
    from wresidue import halfplane, verify

    assert verify.halfplane_suite(3, 30)["failures"] == []

    def leaky_scalar(f):
        return halfplane._over_basis(f, lambda entry: scalar_sum(
            [entry.pi_plus] + [c * (XIN + IC) ** -m for m, c in entry.minus.items() if m >= 2]))

    monkeypatch.setattr(verify, "pi_plus",
                        lambda expr: as_clifford(expr).map_coeffs(leaky_scalar))
    failures = verify.halfplane_suite(3, 30)["failures"]
    assert any(f.startswith("pi+ lower-half multiplication #") for f in failures), failures


def test_basis_elements_built_without_a_gcd_equal_the_normalizing_constructor(monkeypatch):
    from wresidue import halfplane, report
    from wresidue.report import RunConfig, run_computation
    from wresidue.scalars import XIN as XIN_ID, Poly

    keys = []
    real = halfplane._basis_tables

    def recording(den, d):
        keys.append((den, d))
        return real(den, d)

    halfplane.basis_fractions.cache_clear()
    monkeypatch.setattr(halfplane, "_basis_tables", recording)
    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every build in this process
    run_computation(RunConfig(theorem="T5.4"))
    assert keys
    for den, d in keys:
        num = Poly.var(XIN_ID, d) if d else Poly.const(1)
        f = ScalarExpr(num, den)
        assert (f.num, f.den) == (num, den), (den, d)
