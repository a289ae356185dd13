"""Clifford algebra and the exact matrix oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wresidue.gaussian import GRat
from wresidue.scalars import EngineError, ScalarExpr, S_ONE, S_ZERO, sym
from wresidue.clifford import (
    CL_ONE,
    CliffordExpr,
    cl_trace,
    cl_trace_product,
    clifford_inverse,
    matrix_oracle_trace,
)


def c(i):
    return CliffordExpr.gen(i)


def _mat_add(a, b):
    """Entrywise sum of two matrices of the oracle (tuples of GRat rows)."""
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def test_generator_relations():
    for i in range(1, 5):
        for j in range(1, 5):
            anti = c(i) * c(j) + c(j) * c(i)
            want = CliffordExpr.scalar(-2 if i == j else 0)
            assert anti == want


def test_mul_examples():
    assert c(1) * c(1) == CliffordExpr.scalar(-1)
    assert c(2) * c(1) == -(c(1) * c(2))
    xi = [sym(f"xi{j}") for j in (1, 2, 3)]
    cxi = CliffordExpr.from_cotangent(xi + [S_ZERO])
    assert cxi * cxi == CliffordExpr.scalar(-(xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2))


def test_trace_examples():
    assert cl_trace(CL_ONE) == ScalarExpr.const(4)
    assert cl_trace(c(1) * c(2)).is_zero()
    assert cl_trace(c(1) * c(2) * c(3) * c(4)).is_zero()


def test_from_cotangent():
    e2 = CliffordExpr.from_cotangent([S_ZERO, S_ONE, S_ZERO, S_ZERO])
    assert e2 == c(2)
    assert CliffordExpr.from_cotangent([S_ZERO] * 4).is_zero()
    with pytest.raises(EngineError):
        CliffordExpr.from_cotangent([S_ONE] * 3)


def test_all_16_monomial_traces_match_matrix_oracle():
    for r in range(5):
        for mono in itertools.combinations(range(1, 5), r):
            expr = CliffordExpr({tuple(mono): S_ONE})
            assert cl_trace(expr).evaluate({}) == matrix_oracle_trace(expr, {}), mono


def test_matrix_oracle_traceless_generator_sum():
    expr = c(1) + c(2)
    assert matrix_oracle_trace(expr, {}) == GRat(0)


def test_matrix_oracle_top_monomial_derived_value():
    # independent 4x4 multiplication fixes the top-monomial trace
    expr = c(1) * c(2) * c(3) * c(4)
    assert matrix_oracle_trace(expr, {}) == GRat(0)


def test_matrix_oracle_unbound_rejected():
    expr = CliffordExpr.scalar(sym("h1"))
    with pytest.raises(EngineError):
        matrix_oracle_trace(expr, {})


def test_odd_monomial_against_cotangent_vector():
    from wresidue.symbols import c_xi_prime, torsion_u

    u = torsion_u()
    assert cl_trace(u * c_xi_prime(at_point=True)).is_zero()


def test_clifford_inverse_scalar_plus_vector():
    a = CliffordExpr.scalar(sym("h1")) + c(2).scale(ScalarExpr.const(3))
    inv = clifford_inverse(a)
    assert a * inv == CL_ONE
    with pytest.raises(EngineError):
        clifford_inverse(c(1) * c(2))


_rng = random.Random(20_24)


def _random_clifford(numeric=True):
    out = CliffordExpr()
    for _ in range(_rng.randint(1, 4)):
        mono = tuple(sorted(_rng.sample(range(1, 5), _rng.randint(0, 4))))
        coeff = GRat(Fraction(_rng.randint(-5, 5), _rng.randint(1, 4)),
                     Fraction(_rng.randint(-5, 5), _rng.randint(1, 4)))
        out = out + CliffordExpr({mono: ScalarExpr.const(coeff)})
    return out


def test_trace_linear_and_cyclic_randomized():
    for _ in range(300):
        a, b = _random_clifford(), _random_clifford()
        assert cl_trace(a + b) == cl_trace(a) + cl_trace(b)
        assert cl_trace(a * b) == cl_trace(b * a)
        assert cl_trace_product(a, b) == cl_trace(a * b)


def test_oracle_equivalence_with_symbolic_bindings():
    for k in range(100):
        terms = {}
        for _ in range(_rng.randint(1, 3)):
            mono = tuple(sorted(_rng.sample(range(1, 5), _rng.randint(0, 4))))
            terms[mono] = sym("h1") * ScalarExpr.const(_rng.randint(-3, 3)) + sym(
                "X1"
            ) * ScalarExpr.const(_rng.randint(-3, 3))
        expr = CliffordExpr(terms)
        bindings = {
            "h1": GRat(Fraction(_rng.randint(-4, 4), 3)),
            "X1": GRat(0, Fraction(_rng.randint(-4, 4), 2)),
        }
        assert cl_trace(expr).evaluate(bindings) == matrix_oracle_trace(expr, bindings)


def test_monomial_square_sign():
    """c_S c_S = (-1)^(k(k+1)/2) for each of the 16 canonical monomials S of
    length k."""
    for k in range(5):
        for mono in itertools.combinations(range(1, 5), k):
            expr = CliffordExpr({mono: S_ONE})
            want = CliffordExpr.scalar(-1 if (k * (k + 1) // 2) % 2 else 1)
            assert expr * expr == want, mono


_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_grat = st.builds(GRat, _fraction, _fraction)
_numeric_clifford = st.dictionaries(
    st.sampled_from([m for r in range(5) for m in itertools.combinations(range(1, 5), r)]),
    _grat.map(ScalarExpr.const), max_size=6,
).map(CliffordExpr)


@given(_numeric_clifford, _numeric_clifford)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_product_matches_the_matrix_product(a, b):
    """Every coefficient of a * b, not only the traced identity one, agrees
    with the product of the two gamma representations."""
    from wresidue.clifford import _mat_mul, matrix_representation

    assert matrix_representation(a * b, {}) == _mat_mul(
        matrix_representation(a, {}), matrix_representation(b, {}))


def test_clifford_suite_counts_a_sample_with_two_failures_once(monkeypatch):
    """A trace that is off by one fails the 16 monomial checks and, in each
    sample, the pairing and oracle checks: no sample passes, and none is
    taken off twice."""
    from wresidue import verify

    monkeypatch.setattr(verify, "cl_trace", lambda e: cl_trace(e) + S_ONE)
    result = verify.clifford_suite(seed=0, count=5)
    assert len(result["failures"]) == 16 + 2 * 5
    assert result["passed"] == 0


def test_gamma_table_entries_are_fresh_gamma_products():
    from wresidue.clifford import GAMMA, MAT_ID, _gamma_table, _mat_mul

    table = _gamma_table()
    assert sorted(table) == sorted(
        mono for r in range(5) for mono in itertools.combinations(range(1, 5), r))
    for mono, matrix in table.items():
        want = MAT_ID
        for i in mono:
            want = _mat_mul(want, GAMMA[i - 1])
        assert matrix == want, mono


def test_gamma_table_obeys_the_generator_relations():
    """c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij on the table's generators,
    and the product of any two entries is the entry of the reduced word,
    with its sign."""
    from wresidue.clifford import MAT_ID, MAT_ZERO, _gamma_table, _mat_mul, _mat_scale, \
        _mono_product

    table = _gamma_table()
    for i in range(1, 5):
        for j in range(1, 5):
            gi, gj = table[(i,)], table[(j,)]
            anti = _mat_add(_mat_mul(gi, gj), _mat_mul(gj, gi))
            assert anti == (_mat_scale(MAT_ID, GRat(-2)) if i == j else MAT_ZERO), (i, j)
    for m1, a in table.items():
        for m2, b in table.items():
            sign, mono = _mono_product(m1, m2)
            assert _mat_mul(a, b) == _mat_scale(table[mono], GRat(sign)), (m1, m2)


def test_clifford_suite_fails_on_a_gamma_table_entry_with_one_sign_flipped(monkeypatch):
    """A table entry of c(e_1)c(e_2) with the sign of one diagonal element
    flipped gives that monomial a nonzero trace: its monomial check fails,
    and so does the oracle check of every sample whose c(e_1)c(e_2)
    coefficient is not zero."""
    from wresidue import clifford, verify

    table = dict(clifford._gamma_table())
    rows = [list(row) for row in table[(1, 2)]]
    assert not rows[0][0].is_zero()
    rows[0][0] = -rows[0][0]
    table[(1, 2)] = tuple(tuple(row) for row in rows)
    monkeypatch.setattr(clifford, "_gamma_table", lambda: table)
    result = verify.clifford_suite(seed=0, count=20)
    assert "monomial trace (1, 2)" in result["failures"]
    oracle = [f for f in result["failures"] if f.startswith("oracle equivalence #")]
    assert oracle
    assert len(result["failures"]) == 1 + len(oracle)
    assert result["passed"] == 20 - len(oracle)


_MONOS = [m for r in range(5) for m in itertools.combinations(range(1, 5), r)]
_XIN = sym("xin")
_XIN_MINUS_I = _XIN - ScalarExpr.const(GRat(0, 1))
# coefficients c * xin^k / (xin - i)^m: a constant denominator (m = 0) sums
# in one dict, a power of the linear base over the base's lcm
_rational = st.builds(
    lambda c, k, m: ScalarExpr.const(c) * _XIN ** k / _XIN_MINUS_I ** m,
    _grat, st.integers(0, 2), st.integers(0, 2))
_AT_XIN = {"xin": GRat(2, 1)}


def _mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


@st.composite
def _all_minus_pairs(draw):
    """a and b with a sign -1 for every pair of their monomials, so each
    coefficient of a * b is a sum of subtracted products only."""
    from wresidue.clifford import _mono_product

    left = draw(st.lists(st.sampled_from(_MONOS), min_size=1, max_size=3, unique=True))
    right = [m2 for m2 in _MONOS if all(_mono_product(m1, m2)[0] < 0 for m1 in left)]
    assume(right)
    right = draw(st.lists(st.sampled_from(right), min_size=1, max_size=4, unique=True))
    a = CliffordExpr({m: draw(_rational) for m in left})
    b = CliffordExpr({m: draw(_rational) for m in right})
    return a, b


@given(_all_minus_pairs())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_product_of_sign_minus_one_pairs_matches_the_matrix_product(pair):
    """Products collected by subtraction alone, with monomials that several
    pairs reach, agree with the product of the representations."""
    from wresidue.clifford import _mat_mul, matrix_representation

    a, b = pair
    assert matrix_representation(a * b, _AT_XIN) == _mat_mul(
        matrix_representation(a, _AT_XIN), matrix_representation(b, _AT_XIN))


_rational_clifford = st.dictionaries(st.sampled_from(_MONOS), _rational, max_size=6).map(
    CliffordExpr)


@given(_rational_clifford, _rational_clifford)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_difference_matches_the_matrix_difference(a, b):
    from wresidue.clifford import matrix_representation

    rep_a, rep_b = (matrix_representation(x, _AT_XIN) for x in (a, b))
    assert matrix_representation(a - b, _AT_XIN) == _mat_add(rep_a, _mat_neg(rep_b))
    assert a - b == a + (-b)
    assert (a - a).is_zero() and (a - CliffordExpr()) == a


def _per_monomial_sum(terms, minus=()):
    """The reference sum: for each monomial, one `scalar_sum` of the
    coefficients of `terms` less those of `minus`; zero sums are dropped."""
    from wresidue.scalars import scalar_sum

    monos = {m for x in (*terms, *minus) for m in x.terms}
    sums = {m: scalar_sum([x.coefficient(m) for x in terms], [x.coefficient(m) for x in minus])
            for m in monos}
    return {m: s for m, s in sums.items() if not s.is_zero()}


@pytest.mark.parametrize("seed", range(8))
def test_sums_match_a_per_monomial_scalar_sum(seed):
    """`+`, `-` and `clifford_sum` on random symbolic elements agree with a
    per-monomial `scalar_sum`, store no zero coefficient, and undo each other."""
    from wresidue.clifford import clifford_sum
    from wresidue.verify import _rand_clifford

    rng = random.Random(seed)
    a, b, c_, d = (_rand_clifford(rng, numeric=False) for _ in range(4))
    for got, want in ((a + b, _per_monomial_sum((a, b))),
                      (a - b, _per_monomial_sum((a,), (b,))),
                      (clifford_sum((a, b, c_), (d,)), _per_monomial_sum((a, b, c_), (d,)))):
        assert got.terms == want
        assert not any(coeff.is_zero() for coeff in got.terms.values())
    assert (a - a).is_zero() and (a - a).terms == {}
    assert clifford_sum((a,), (a,)).terms == {}
    assert (a + b) - b == a

