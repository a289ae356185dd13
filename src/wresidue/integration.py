"""Exact line and sphere integration, with independent numeric oracles.

The xin integral of a rational function decaying at least like xin^-2 with
poles only at +/-i closes upward: the exact value is 2*pi*i times the residue
at +i.  The residue is read off the single partial-fraction kernel of
`halfplane` (its cached decomposition of each basis element xin^d / den).
Two oracles back this path in the test suites: an exact one that computes
the residue by the derivative formula at the pole, independent of partial
fractions, and a floating-point one that integrates numerically (adaptive
QUADPACK on a Horner-evaluated integrand).

Sphere moments over the unit tangential co-sphere are exact: odd monomials
vanish, even ones follow the double-factorial formula, and the total measure
stays symbolic as Omega3 (moment of 1 is Omega3).  Their oracle integrates
a tangential polynomial numerically over the unit sphere, with Omega3 =
4 pi, by a product rule (Gauss-Legendre in cos(theta), trapezoid in phi)
sized from the polynomial's degree so that it is exact up to rounding; it
shares nothing with the double-factorial formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Mapping, Sequence

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    OMEGA3,
    PI,
    Poly,
    REG,
    ScalarExpr,
    S_ZERO,
    XI,
    XIN,
    mono_items,
    mono_pack,
)
from .clifford import CliffordExpr
from .halfplane import _factor_pole_denominator, basis_fractions

_TANGENTIAL = set(XI[:3])
_PI_VAR = ScalarExpr.var(PI)
_OMEGA3_VAR = ScalarExpr.var(OMEGA3)
_POLE_PLUS = ScalarExpr.const(I)


def _check_decay(coeff: ScalarExpr, required: int = 2):
    dn = coeff.num.degree_in(XIN)
    dd = coeff.den.degree_in(XIN)
    if dd - dn < required:
        raise EngineError(
            f"insufficient decay for line integration: degree gap {dd - dn} < {required}"
        )


def integrate_xi_n(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Exact integral over the real xin line via the residue at +i.

    Requires poles only at +/-i and decay of order >= 2; the result carries
    the transcendental pi symbolically.  The integral is linear over xin-free
    coefficients, so each coefficient is expanded against the residues of
    xin^d / den held by the partial-fraction cache of `halfplane`.
    """
    if isinstance(expr, ScalarExpr):
        expr = CliffordExpr.scalar(expr)
    out = CliffordExpr()
    two_pi_i = _PI_VAR * ScalarExpr.const(GRat(0, 2))
    for mono, coeff in expr.terms.items():
        _check_decay(coeff)
        acc = S_ZERO
        for d, cp in sorted(coeff.num.coeffs_in(XIN).items()):
            res = basis_fractions(coeff.den, d).residue
            if res.is_zero():
                continue
            if not (res.is_poly() and res.num.is_const()):
                raise EngineError("internal: non-constant basis residue")
            acc = acc + ScalarExpr.from_poly(cp) * res
        if not acc.is_zero():
            out = out + CliffordExpr({mono: acc * two_pi_i})
    return out


def residue_derivative_oracle(coeff: ScalarExpr) -> ScalarExpr:
    """Residue at +i via (1/(m-1)!) d^(m-1)/dxin^(m-1)[(xin-i)^m f] at xin = i.

    Independent of the partial-fraction route; used as an exact cross-check.
    """
    _, p, q = _factor_pole_denominator(coeff.den)
    if p == 0:
        return S_ZERO
    lin = ScalarExpr.var(XIN) - _POLE_PLUS
    g = coeff * lin ** p
    fact = 1
    for k in range(1, p):
        fact *= k
        g = g.differentiate(XIN)
    return g.substitute({XIN: _POLE_PLUS}) / ScalarExpr.const(fact)


def integrate_via_residue_oracle(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """2*pi*i times the derivative-formula residue, coefficient by coefficient."""
    if isinstance(expr, ScalarExpr):
        expr = CliffordExpr.scalar(expr)
    out = CliffordExpr()
    two_pi_i = _PI_VAR * ScalarExpr.const(GRat(0, 2))
    for mono, coeff in expr.terms.items():
        _check_decay(coeff)
        res = residue_derivative_oracle(coeff)
        out = out + CliffordExpr({mono: res * two_pi_i})
    return out


# ---------------------------------------------------------------------------
# Numeric contour oracle
# ---------------------------------------------------------------------------

def _univariate_complex_coeffs(p: Poly, bindings: Mapping[int, GRat]) -> List[complex]:
    """Coefficients of p in xin, all other variables bound, highest degree
    first (Horner order)."""
    out = [0j] * (max(p.degree_in(XIN), 0) + 1)
    for d, cp in p.coeffs_in(XIN).items():
        out[-1 - d] = cp.eval_numeric(bindings).to_complex()
    return out


def _horner(coeffs: List[complex], x: float) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def numeric_contour_oracle(
    coeff: ScalarExpr, bindings: Mapping | None = None, tol: float = 1e-10
) -> complex:
    """Adaptive quadrature of coeff over the real line; testing only."""
    from scipy.integrate import quad

    ids: dict = {}
    for key, val in (bindings or {}).items():
        sym = key if isinstance(key, int) else REG.id_of(key)
        ids[sym] = GRat.of(val)
    _check_decay(coeff)
    num_c = _univariate_complex_coeffs(coeff.num, ids)
    den_c = _univariate_complex_coeffs(coeff.den, ids)

    def f(x: float) -> complex:
        return _horner(num_c, x) / _horner(den_c, x)

    re, re_err = quad(lambda x: f(x).real, -math.inf, math.inf, epsabs=tol, epsrel=tol,
                      limit=400)
    im, im_err = quad(lambda x: f(x).imag, -math.inf, math.inf, epsabs=tol, epsrel=tol,
                      limit=400)
    if re_err + im_err > 1e-6:
        raise EngineError("non-convergent tail in numeric quadrature")
    return complex(re, im)


# ---------------------------------------------------------------------------
# Sphere moments
# ---------------------------------------------------------------------------

def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def monomial_moment(exponents: Sequence[int], sphere_dim: int = 3) -> Fraction:
    """Moment of prod xi_j^(e_j) over S^(sphere_dim - 1), normalized to total 1.

    Odd exponents integrate to zero; even ones follow
    prod (e_j - 1)!! / prod_{m=0}^{E/2-1} (d + 2m)  with d = sphere_dim.
    """
    if any(e % 2 for e in exponents):
        return Fraction(0)
    halves = sum(e // 2 for e in exponents)
    num = 1
    for e in exponents:
        num *= _double_factorial(e - 1)
    den = 1
    for m in range(halves):
        den *= sphere_dim + 2 * m
    return Fraction(num, den)


def sphere_moment(expr: ScalarExpr, sphere_dim: int = 3) -> ScalarExpr:
    """Exact integral over the unit tangential co-sphere, total volume Omega3.

    The input must not involve xin; tangential variables may appear only in
    the numerator.  Non-tangential factors pass through unchanged.
    """
    if XIN in expr.variables():
        raise EngineError("xin present in sphere integrand")
    if expr.den.variables() & _TANGENTIAL:
        raise EngineError("tangential variables in sphere-integrand denominator")
    total = S_ZERO
    for mono, c in expr.num.terms.items():
        exps = dict(mono_items(mono))
        tang = [exps.get(s, 0) for s in XI[:3]]
        factor = monomial_moment(tang, sphere_dim)
        if factor == 0:
            continue
        rest = mono - mono_pack(zip(XI[:3], tang))
        passthrough = ScalarExpr.from_poly(Poly({rest: c}, _trusted=True))
        total = total + passthrough * ScalarExpr.const(GRat(factor)) * _OMEGA3_VAR
    return total / ScalarExpr.from_poly(expr.den)


def sphere_mc_oracle(expr: ScalarExpr) -> complex:
    """Integral of a tangential polynomial over the unit sphere, total 4*pi.

    With xi = (sin(theta) cos(phi), sin(theta) sin(phi), u), u = cos(theta),
    a monomial xi1^a xi2^b xi3^c of the input, whose total degree is d, is
    (1 - u^2)^((a+b)/2) u^c times a trigonometric polynomial of degree
    a + b <= d in phi.  The m-point trapezoid
    rule in phi, m = d + 1, integrates that exactly; what is left is zero
    when a + b is odd and otherwise a polynomial of degree <= d in u, which
    n-point Gauss-Legendre, n = floor(d/2) + 1, integrates exactly.  So the
    result is exact up to rounding, with no sampling.  Coefficients and a
    constant denominator stay complex.

    The name is older than the rule, from a Monte-Carlo estimate it
    replaced.  It stays because `perfbench/tracer.py` rebinds this function
    by name and `BENCHMARK.json` lists its time as
    `integration.sphere_mc_oracle.s`.
    """
    import numpy as np

    if not (expr.variables() <= _TANGENTIAL and expr.den.is_const()):
        raise EngineError("sphere oracle handles pure tangential polynomials only")
    terms = [(c.to_complex(), dict(mono_items(mono))) for mono, c in expr.num.terms.items()]
    degree = max((sum(exps.values()) for _, exps in terms), default=0)
    u, u_weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    m = degree + 1
    phi = 2.0 * np.pi * np.arange(m) / m
    sin_t = np.sqrt(1.0 - u * u)[:, None]
    axes = {XI[0]: sin_t * np.cos(phi), XI[1]: sin_t * np.sin(phi), XI[2]: u[:, None]}
    acc = np.zeros((u.size, m), dtype=complex)
    for c, exps in terms:
        term = np.full((u.size, m), c)
        for sym, e in exps.items():
            term = term * axes[sym] ** e
        acc += term
    total = complex(u_weights @ acc.sum(axis=1)) * (2.0 * np.pi / m)
    return total / expr.den.const_value().to_complex()
