"""Projections pi+, pi- and pi' on rational functions of xin with poles at +/-i.

After restriction to the unit tangential co-sphere, every symbol coefficient
is a rational function of xin whose denominator is a product of powers of
(xin - i) and (xin + i).  Partial fractions split such a function into
principal parts at the two poles plus a polynomial part; pi+ keeps the
principal parts at +i, pi- collects the -i parts together with the
polynomial part, and pi' returns i times the residue at +i (the normalized
upper contour integral).

There is one partial-fraction kernel and one basis.  The decomposition is
linear over xin-free coefficients, so a coefficient num/den is expanded
against the basis xin^d / den.  `basis_fractions` decomposes each basis
element once, in closed form over Q(i): the principal parts from the
binomial series of xin^d (xin +/- i)^-q at each pole, the polynomial part
by long division.  It caches the principal parts, the polynomial part and
the assembled pi+; the entry is checked once, exactly, by a polynomial
identity: the numerator equals the principal parts and the polynomial part
multiplied back over the denominator (`_check_reassembly`), with no
rational function rebuilt.  pi+, pi-, pi', `principal_part` and the xin
integral of `integration.integrate_xi_n` are linear maps over that cache,
coefficient by coefficient (`_over_basis`), so no monomial outside the
input can appear and no result is checked a second time.  Sums of
coefficients go through `scalars.scalar_sum`.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, NamedTuple, Tuple

from .gaussian import GRat, I, ONE, ZERO
from .scalars import (
    EngineError,
    P_ONE,
    P_ZERO,
    Poly,
    ScalarExpr,
    S_ZERO,
    XIN,
    _factor_known,
    _strip,
    scalar_sum,
)
from .clifford import CliffordExpr, as_clifford

_XIN_VAR = ScalarExpr.var(XIN)
_LIN_PLUS = _XIN_VAR - ScalarExpr.const(I)   # xin - i
_LIN_MINUS = _XIN_VAR + ScalarExpr.const(I)  # xin + i


def _factor_pole_denominator(den: Poly) -> Tuple[GRat, int, int]:
    """Write den = c * (xin - i)^p * (xin + i)^q; reject other factors."""
    extra = den.variables() - {XIN}
    if extra:
        from .scalars import REG

        names = ", ".join(sorted(REG.name_of(s) for s in extra))
        raise EngineError(f"denominator depends on {names}; poles must be in xin only")
    p, work = _strip(den, 0)  # xin - i
    q, work = _strip(work, 1)  # xin + i
    if not work.is_const():
        raise EngineError(
            f"pole outside +/-i: offending denominator factor "
            f"{ScalarExpr.from_poly(work).text()}"
        )
    return work.const_value(), p, q


def _principal_part(z: GRat, order: int, other: int, d: int, scale: GRat) -> Dict[int, ScalarExpr]:
    """The coefficients of (xin - z)^-m, m = 1..order, in scale * xin^d /
    ((xin - z)^order (xin + z)^other), highest m first, zeros left out.

    With t = xin - z, xin^d = sum_j C(d, j) z^(d-j) t^j and (t + 2z)^-other
    = sum_k s_k t^k, s_0 = (2z)^-other and s_k = s_(k-1) * -(other + k - 1)
    / (2z k); the coefficient of t^-m is that of t^(order-m) in their product.
    """
    inv_2z = (z * 2).inverse()
    series = [inv_2z ** other]
    for k in range(1, order):
        series.append(series[-1] * inv_2z * GRat(Fraction(-(other + k - 1), k)))
    power = [z ** (d - j) * comb(d, j) for j in range(min(d, order - 1) + 1)]
    out: Dict[int, ScalarExpr] = {}
    for m in range(order, 0, -1):
        n = order - m
        g = sum((power[j] * series[n - j] for j in range(min(n, d) + 1)), ZERO)
        if not g.is_zero():
            out[m] = ScalarExpr.const(g * scale)
    return out


def _polynomial_part(den: Poly, d: int) -> Dict[int, ScalarExpr]:
    """The quotient of xin^d by den (xin only), by univariate long division."""
    n = den.degree_in(XIN)
    if d < n:
        return {}
    coeffs = den.coeffs_in(XIN)
    den_c = [coeffs[k].const_value() if k in coeffs else ZERO for k in range(n + 1)]
    inv_lead = den_c[n].inverse()
    rem = [ZERO] * d + [ONE]
    out: Dict[int, ScalarExpr] = {}
    for k in range(d, n - 1, -1):
        qk = rem[k] * inv_lead
        if qk.is_zero():
            continue
        out[k - n] = ScalarExpr.const(qk)
        for j in range(n + 1):
            rem[k - n + j] = rem[k - n + j] - qk * den_c[j]
    return out


def _basis_tables(den: Poly, d: int) -> Tuple[Dict[int, ScalarExpr], Dict[int, ScalarExpr], Dict[int, ScalarExpr]]:
    """Principal parts at +i and -i and the polynomial part of xin^d / den,
    in closed form over Q(i); den = c (xin - i)^p (xin + i)^q."""
    c, p, q = _factor_pole_denominator(den)
    inv_c = c.inverse()
    return (_principal_part(I, p, q, d, inv_c), _principal_part(-I, q, p, d, inv_c),
            _polynomial_part(den, d))


class _BasisEntry(NamedTuple):
    """Partial fractions of one basis element xin^d / den (constant coefficients)."""

    plus: Dict[int, ScalarExpr]
    minus: Dict[int, ScalarExpr]
    poly: Dict[int, ScalarExpr]
    pi_plus: ScalarExpr   # the assembled principal part at +i


_BASIS: Dict[Tuple[Poly, int], _BasisEntry] = {}


def _check_reassembly(num: Poly, den: Poly, plus: Dict[int, ScalarExpr],
                      minus: Dict[int, ScalarExpr], poly: Dict[int, ScalarExpr]) -> None:
    """Raise unless num / den equals the partial fractions, checked as the
    polynomial identity

        num = c * (sum_k plus_k (xin - i)^(p-k) (xin + i)^q
                   + sum_k minus_k (xin - i)^p (xin + i)^(q-k)
                   + sum_d poly_d xin^d (xin - i)^p (xin + i)^q)

    with den = c (xin - i)^p (xin + i)^q.  The denominator depends on xin
    only, so every coefficient of an exact decomposition is a polynomial.
    Each sum over k is a Horner scheme in its linear factor.
    """
    known = _factor_known(den)  # cached: den was factored when decomposed
    if known is None or any(known[1][2:]):
        raise EngineError("internal: partial-fraction reassembly mismatch")
    c, (p, q, _, _) = known
    tables = []
    for table in (plus, minus, poly):
        coeffs = {k: v.num for k, v in table.items() if not v.is_zero()}
        if not all(table[k].is_poly() for k in coeffs):
            raise EngineError("internal: partial-fraction reassembly mismatch")
        tables.append(coeffs)
    pl, mi, po = tables
    if not (set(pl) <= set(range(1, p + 1)) and set(mi) <= set(range(1, q + 1))):
        raise EngineError("internal: partial-fraction reassembly mismatch")
    lin_plus, lin_minus = _LIN_PLUS.num, _LIN_MINUS.num  # xin - i, xin + i
    at_plus = Poly()   # sum_k plus_k (xin - i)^(p-k)
    for k in range(1, p + 1):
        at_plus = at_plus * lin_plus + pl.get(k, P_ZERO)
    at_minus = Poly()  # sum_k minus_k (xin + i)^(q-k) + (xin + i)^q sum_d poly_d xin^d
    for d, cp in po.items():
        at_minus = at_minus + cp * Poly.var(XIN, d)
    for k in range(1, q + 1):
        at_minus = at_minus * lin_minus + mi.get(k, P_ZERO)
    for _ in range(q):
        at_plus = at_plus * lin_minus
    for _ in range(p):
        at_minus = at_minus * lin_plus
    if (at_plus + at_minus).scale(c) != num:
        raise EngineError("internal: partial-fraction reassembly mismatch")


def basis_fractions(den: Poly, d: int) -> _BasisEntry:
    """Partial fractions of xin^d / den, cached; the polynomial identity of
    `_check_reassembly` validates each entry once."""
    key = (den, d)
    hit = _BASIS.get(key)
    if hit is not None:
        return hit
    # den is a canonical coefficient denominator, so xin^d / den is in
    # lowest terms; a den that xin divides is rejected by
    # _factor_pole_denominator in _basis_tables.
    plus, minus, poly = _basis_tables(den, d)
    _check_reassembly(Poly.var(XIN, d) if d else P_ONE, den, plus, minus, poly)
    projected = scalar_sum([c * _LIN_PLUS ** (-m) for m, c in plus.items()])
    hit = _BASIS[key] = _BasisEntry(plus, minus, poly, projected)
    return hit


def _over_basis(f: ScalarExpr, part: Callable[[_BasisEntry], ScalarExpr]) -> ScalarExpr:
    """sum_d cp_d * part(basis_fractions(f.den, d)) over the xin-free
    coefficients cp_d of f.num = sum_d cp_d xin^d: a linear map of f read
    off the cached basis."""
    return scalar_sum([ScalarExpr.from_poly(cp) * part(basis_fractions(f.den, d))
                       for d, cp in f.num.coeffs_in(XIN).items()])


def pi_plus_scalar(f: ScalarExpr) -> ScalarExpr:
    """pi+ on a single scalar coefficient, from the cached basis projections."""
    return _over_basis(f, lambda entry: entry.pi_plus)


def pi_plus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Principal parts at +i; the polynomial part and -i parts are dropped."""
    return as_clifford(expr).map_coeffs(pi_plus_scalar)


def _pi_minus_part(entry: _BasisEntry) -> ScalarExpr:
    return scalar_sum([c * _LIN_MINUS ** (-m) for m, c in entry.minus.items()]
                      + [c * _XIN_VAR ** d for d, c in entry.poly.items()])


def pi_minus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Complement of pi+: -i principal parts plus the polynomial part, read
    off the basis tables (not computed as expr - pi+(expr))."""
    return as_clifford(expr).map_coeffs(lambda c: _over_basis(c, _pi_minus_part))


def principal_part(expr: "CliffordExpr | ScalarExpr", m: int) -> CliffordExpr:
    """The coefficient of (xin - i)^-m in the partial fractions of expr."""
    return as_clifford(expr).map_coeffs(
        lambda c: _over_basis(c, lambda entry: entry.plus.get(m, S_ZERO)))


def pi_prime(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """(1/2pi) * upper contour integral = i * residue at +i."""
    return principal_part(expr, 1).scale(ScalarExpr.const(I))
