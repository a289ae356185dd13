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
validates it by exact reassembly, and caches its principal parts, its
polynomial part, its assembled pi+ and its residue at +i.  The projections
here and the residue in `integration.integrate_xi_n` read that cache;
`partial_fractions` also reassembles its full input as a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    Poly,
    ScalarExpr,
    S_ZERO,
    XIN,
    _prem,
    _strip,
    poly_divexact,
)
from .clifford import CliffordExpr

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
        return self.pi_plus_part() + self.pi_minus_part()

    def pi_plus_part(self) -> CliffordExpr:
        total = CliffordExpr()
        for m, c in self.plus.items():
            total = total + c.scale(_LIN_PLUS ** (-m))
        return total

    def pi_minus_part(self) -> CliffordExpr:
        total = CliffordExpr()
        for m, c in self.minus.items():
            total = total + c.scale(_LIN_MINUS ** (-m))
        for d, c in self.poly.items():
            total = total + c.scale(_XIN_VAR ** d)
        return total

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


def basis_fractions(den: Poly, d: int) -> _BasisEntry:
    """Partial fractions of xin^d / den, cached; reassembly-validated once."""
    key = (den, d)
    hit = _BASIS.get(key)
    if hit is not None:
        return hit
    num = Poly.var(XIN, d) if d else Poly.const(1)
    f = ScalarExpr(num, den)
    plus, minus, poly = _decompose_scalar(f)
    parts = HalfLineRational(
        *({k: CliffordExpr.scalar(c) for k, c in t.items()} for t in (plus, minus, poly))
    )
    if not (parts.reassemble() - CliffordExpr.scalar(f)).is_zero():
        raise EngineError("internal: partial-fraction reassembly mismatch")
    projected = parts.pi_plus_part().scalar_part()
    hit = _BASIS[key] = _BasisEntry(plus, minus, poly, projected, plus.get(1, S_ZERO))
    return hit


def partial_fractions(expr: "CliffordExpr | ScalarExpr") -> HalfLineRational:
    """Exact decomposition into principal parts at +/-i plus polynomial part.

    Accepts a Clifford-valued rational function of xin (scalars are wrapped).
    The decomposition is linear over xin-free coefficients, so each Clifford
    coefficient is expanded against the cached basis xin^d / den; the result
    is validated by reassembling and comparing with the input.
    """
    if isinstance(expr, ScalarExpr):
        expr = CliffordExpr.scalar(expr)
    out = HalfLineRational()
    for mono, coeff in expr.terms.items():
        parts: Dict[Tuple[int, int], ScalarExpr] = {}
        for d, cp in coeff.num.coeffs_in(XIN).items():
            entry = basis_fractions(coeff.den, d)
            scale = ScalarExpr.from_poly(cp)
            for kind, table in enumerate((entry.plus, entry.minus, entry.poly)):
                for m, c in table.items():
                    parts[kind, m] = parts.get((kind, m), S_ZERO) + scale * c
        targets = (out.plus, out.minus, out.poly)
        for (kind, m), c in parts.items():
            if not c.is_zero():
                target = targets[kind]
                target[m] = target.get(m, CliffordExpr()) + CliffordExpr({mono: c})
    check = out.reassemble() - expr
    if not check.is_zero():
        raise EngineError("internal: partial-fraction reassembly mismatch")
    return out


def pi_plus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Principal parts at +i; the polynomial part and -i parts are dropped."""
    return partial_fractions(expr).pi_plus_part()


def pi_plus_scalar(f: ScalarExpr) -> ScalarExpr:
    """pi+ on a single scalar coefficient, from the cached basis projections."""
    out = S_ZERO
    for d, cp in sorted(f.num.coeffs_in(XIN).items()):
        out = out + ScalarExpr.from_poly(cp) * basis_fractions(f.den, d).pi_plus
    return out


def pi_minus(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Complement of pi+: -i principal parts plus the polynomial part."""
    return partial_fractions(expr).pi_minus_part()


def pi_prime(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """(1/2pi) * upper contour integral = i * residue at +i."""
    return partial_fractions(expr).residue_plus().scale(ScalarExpr.const(I))
