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
element once and caches its principal parts, its polynomial part and its
assembled pi+; the entry is checked once, exactly, by a polynomial
identity: the numerator equals the principal parts and the polynomial part
multiplied back over the denominator (`_check_reassembly`), with no
rational function rebuilt.  pi+, pi-, pi', `principal_part` and the xin
integral of `integration.integrate_xi_n` are linear maps over that cache,
coefficient by coefficient (`_over_basis`), so no monomial outside the
input can appear and no result is checked a second time.  Sums of
coefficients go through `scalars.scalar_sum`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    P_ONE,
    P_ZERO,
    Poly,
    ScalarExpr,
    S_ZERO,
    XIN,
    _factor_known,
    _prem,
    _strip,
    poly_divexact,
    scalar_sum,
)
from .clifford import CliffordExpr, as_clifford

_XIN_VAR = ScalarExpr.var(XIN)
_POLE_PLUS = ScalarExpr.const(I)
_POLE_MINUS = ScalarExpr.const(-I)
_LIN_PLUS = _XIN_VAR - _POLE_PLUS   # xin - i
_LIN_MINUS = _XIN_VAR - _POLE_MINUS  # xin + i


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


def _decompose_scalar(f: ScalarExpr) -> Tuple[Dict[int, ScalarExpr], Dict[int, ScalarExpr], Dict[int, ScalarExpr]]:
    const, p, q = _factor_pole_denominator(f.den)
    inv_const = ScalarExpr.const(const.inverse())
    # den is monic in xin (canonical form), so the pseudo-remainder is the remainder
    rem = _prem(f.num, f.den, XIN)
    quo = poly_divexact(f.num - rem, f.den)
    poly_part: Dict[int, ScalarExpr] = {}
    if not quo.is_zero():
        poly_part = {d: ScalarExpr.from_poly(cp) for d, cp in quo.coeffs_in(XIN).items()}
    plus: Dict[int, ScalarExpr] = {}
    minus: Dict[int, ScalarExpr] = {}
    rem_expr = ScalarExpr.from_poly(rem) * inv_const
    # the principal parts at each pole, with the other pole's factor divided out
    for pole, order, other, table in ((_POLE_PLUS, p, _LIN_MINUS ** q, plus),
                                      (_POLE_MINUS, q, _LIN_PLUS ** p, minus)):
        if not order:
            continue
        g = rem_expr / other
        fact = 1
        for k in range(order):
            if k:
                fact *= k
                g = g.differentiate(XIN)
            coeff = g.substitute({XIN: pole}) / ScalarExpr.const(fact)
            if not coeff.is_zero():
                table[order - k] = coeff
    return plus, minus, poly_part


@dataclass(frozen=True)
class _BasisEntry:
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
    # den is a canonical coefficient denominator, so xin^d / den needs no
    # gcd; a den that xin divides is rejected by _factor_pole_denominator
    # in the decomposition below.
    f = ScalarExpr(Poly.var(XIN, d) if d else P_ONE, den, _canonical=True)
    plus, minus, poly = _decompose_scalar(f)
    _check_reassembly(f.num, f.den, plus, minus, poly)
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
