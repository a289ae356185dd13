"""Projections pi+ and pi' on rational functions of xin with poles at +/-i.

After restriction to the unit tangential co-sphere, every symbol coefficient
is a rational function of xin whose denominator is a product of powers of
(xin - i) and (xin + i).  Partial fractions split such a function into
principal parts at the two poles plus a polynomial part; pi+ keeps the
principal parts at +i, pi- collects the -i parts together with the
polynomial part, and pi' returns i times the residue at +i (the normalized
upper contour integral).

There is one partial-fraction kernel.  The decomposition is linear over
xin-free coefficients, so a coefficient num/den is expanded against the
basis xin^d / den.  `basis_fractions` decomposes each basis element once,
validates it, and caches its principal parts, its polynomial part, its
assembled pi+ and its residue at +i.  The projections here and the residue
in `integration.integrate_xi_n` read that cache; `partial_fractions` also
validates its full result, coefficient by coefficient.  Both validations
are exact and check a polynomial identity: the numerator equals the
principal parts and the polynomial part multiplied back over the
denominator (`_check_reassembly`), with no rational function rebuilt.
Sums of coefficients go through `scalars.scalar_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

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
from .clifford import CliffordExpr, cl_sum

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


@dataclass
class HalfLineRational:
    """Partial-fraction data: principal parts at +/-i and a polynomial part."""

    plus: Dict[int, CliffordExpr] = field(default_factory=dict)   # mult -> coeff
    minus: Dict[int, CliffordExpr] = field(default_factory=dict)  # mult -> coeff
    poly: Dict[int, CliffordExpr] = field(default_factory=dict)   # xin degree -> coeff

    def reassemble(self) -> CliffordExpr:
        return cl_sum(self._plus_pieces() + self._minus_pieces())

    def pi_plus_part(self) -> CliffordExpr:
        return cl_sum(self._plus_pieces())

    def pi_minus_part(self) -> CliffordExpr:
        return cl_sum(self._minus_pieces())

    def _plus_pieces(self):
        return [c.scale(_LIN_PLUS ** (-m)) for m, c in self.plus.items()]

    def _minus_pieces(self):
        return ([c.scale(_LIN_MINUS ** (-m)) for m, c in self.minus.items()]
                + [c.scale(_XIN_VAR ** d) for d, c in self.poly.items()])

    def residue_plus(self) -> CliffordExpr:
        return self.plus.get(1, CliffordExpr())


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
    if p:
        g = rem_expr / (_LIN_MINUS ** q)
        fact = 1
        for k in range(p):
            if k:
                fact *= k
                g = g.differentiate(XIN)
            coeff = g.substitute({XIN: _POLE_PLUS}) / ScalarExpr.const(fact)
            if not coeff.is_zero():
                plus[p - k] = coeff
    if q:
        g = rem_expr / (_LIN_PLUS ** p)
        fact = 1
        for k in range(q):
            if k:
                fact *= k
                g = g.differentiate(XIN)
            coeff = g.substitute({XIN: _POLE_MINUS}) / ScalarExpr.const(fact)
            if not coeff.is_zero():
                minus[q - k] = coeff
    return plus, minus, poly_part


@dataclass(frozen=True)
class _BasisEntry:
    """Partial fractions of one basis element xin^d / den (constant coefficients)."""

    plus: Dict[int, ScalarExpr]
    minus: Dict[int, ScalarExpr]
    poly: Dict[int, ScalarExpr]
    pi_plus: ScalarExpr   # the assembled principal part at +i
    residue: ScalarExpr   # the residue at +i


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
    hit = _BASIS[key] = _BasisEntry(plus, minus, poly, projected, plus.get(1, S_ZERO))
    return hit


def partial_fractions(expr: "CliffordExpr | ScalarExpr") -> HalfLineRational:
    """Exact decomposition into principal parts at +/-i plus polynomial part.

    Accepts a Clifford-valued rational function of xin (scalars are wrapped).
    The decomposition is linear over xin-free coefficients, so each Clifford
    coefficient is expanded against the cached basis xin^d / den; the result
    is validated, monomial by monomial, by the polynomial identity of
    `_check_reassembly`.
    """
    if isinstance(expr, ScalarExpr):
        expr = CliffordExpr.scalar(expr)
    out = HalfLineRational()
    targets = (out.plus, out.minus, out.poly)
    for mono, coeff in expr.terms.items():
        parts: Dict[Tuple[int, int], list] = {}
        for d, cp in coeff.num.coeffs_in(XIN).items():
            entry = basis_fractions(coeff.den, d)
            scale = ScalarExpr.from_poly(cp)
            for kind, table in enumerate((entry.plus, entry.minus, entry.poly)):
                for m, c in table.items():
                    parts.setdefault((kind, m), []).append(scale * c)
        for (kind, m), cs in parts.items():
            c = scalar_sum(cs)
            if not c.is_zero():
                target = targets[kind]
                target[m] = target.get(m, CliffordExpr()) + CliffordExpr({mono: c})
    for mono, coeff in expr.terms.items():
        _check_reassembly(coeff.num, coeff.den,
                          *({k: e.coefficient(mono) for k, e in t.items()} for t in targets))
    if any(mono not in expr.terms for t in targets for e in t.values() for mono in e.terms):
        raise EngineError("internal: partial-fraction reassembly mismatch")
    return out


def pi_plus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Principal parts at +i; the polynomial part and -i parts are dropped."""
    return partial_fractions(expr).pi_plus_part()


def pi_plus_scalar(f: ScalarExpr) -> ScalarExpr:
    """pi+ on a single scalar coefficient, from the cached basis projections."""
    return scalar_sum([ScalarExpr.from_poly(cp) * basis_fractions(f.den, d).pi_plus
                       for d, cp in f.num.coeffs_in(XIN).items()])


def pi_minus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Complement of pi+: -i principal parts plus the polynomial part."""
    return partial_fractions(expr).pi_minus_part()


def pi_prime(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """(1/2pi) * upper contour integral = i * residue at +i."""
    return partial_fractions(expr).residue_plus().scale(ScalarExpr.const(I))
