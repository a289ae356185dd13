"""Exact line and sphere integration, with independent numeric oracles.

The xin integral of a rational function decaying at least like xin^-2 with
poles only at +/-i closes upward: the exact value is 2*pi*i times the residue
at +i.  The integral is a linear map over the checked basis of `halfplane`:
each coefficient is expanded against the cached residues of the basis
elements xin^d / den, through the same helper as pi+, pi- and pi'.
Two oracles back this path in the test suites: an exact one that computes
the residue by the derivative formula at the pole, independent of partial
fractions, and a floating-point one that integrates numerically: after
xin = tan(theta) the integrand is a trigonometric polynomial, on which the
midpoint rule at deg(den) + 1 nodes is exact up to rounding (Trefethen and
Weideman, SIAM Review 56, 2014); the rule at twice as many nodes checks it.

Sphere moments over the unit tangential co-sphere are exact: odd monomials
vanish, even ones follow the double-factorial formula, and the total measure
stays symbolic as Omega3 (moment of 1 is Omega3).  Their oracle integrates
a tangential polynomial numerically over the unit sphere, with Omega3 =
4 pi, by a product rule (Gauss-Legendre in cos(theta), trapezoid in phi)
sized from the polynomial's degree so that it is exact up to rounding; it
shares nothing with the double-factorial formula.

Both oracles sum in plain `complex` and need only the standard library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    OMEGA3,
    PI,
    Poly,
    ScalarExpr,
    S_ZERO,
    XI,
    XIN,
    _SHIFT,
    lin_minus,
    mono_items,
    mono_mask,
    mono_pack,
)
from .clifford import CliffordExpr, as_clifford
from .halfplane import _factor_pole_denominator, _over_basis

_TANGENTIAL = set(XI[:3])
_TANGENTIAL_FIELDS = mono_mask(XI[:3])
_OMEGA3_POLY = Poly.var(OMEGA3)
_PI_VAR = ScalarExpr.var(PI)


def _check_decay(coeff: ScalarExpr, required: int = 2):
    dn = coeff.num.degree_in(XIN)
    dd = coeff.den.degree_in(XIN)
    if dd - dn < required:
        raise EngineError(
            f"insufficient decay for line integration: degree gap {dd - dn} < {required}"
        )


def _constant_residue(entry) -> ScalarExpr:
    res = entry.plus.get(1, S_ZERO)
    if not (res.is_poly() and res.num.is_const()):
        raise EngineError("internal: non-constant basis residue")
    return res


def integrate_xi_n(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """Exact integral over the real xin line via the residue at +i.

    Requires poles only at +/-i and decay of order >= 2; the result carries
    the transcendental pi symbolically.  The integral is linear over xin-free
    coefficients, so each coefficient is expanded against the residues of
    xin^d / den held by the partial-fraction cache of `halfplane`.
    """
    two_pi_i = _PI_VAR * ScalarExpr.const(GRat(0, 2))

    def integral(coeff: ScalarExpr) -> ScalarExpr:
        _check_decay(coeff)
        return _over_basis(coeff, _constant_residue) * two_pi_i

    return as_clifford(expr).map_coeffs(integral)


def residue_derivative_oracle(coeff: ScalarExpr) -> ScalarExpr:
    """Residue at +i via (1/(m-1)!) d^(m-1)/dxin^(m-1)[(xin-i)^m f] at xin = i.

    Independent of the partial-fraction route; used as an exact cross-check.
    """
    _, p, q = _factor_pole_denominator(coeff.den)
    if p == 0:
        return S_ZERO
    g = coeff * lin_minus(p)
    fact = 1
    for k in range(1, p):
        fact *= k
        g = g.differentiate(XIN)
    return g.substitute({XIN: ScalarExpr.const(I)}) / ScalarExpr.const(fact)


def integrate_via_residue_oracle(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """2*pi*i times the derivative-formula residue, coefficient by coefficient."""
    expr = as_clifford(expr)
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

def _univariate_complex_coeffs(p: Poly) -> List[complex]:
    """Coefficients of p in xin, which must be its only variable, highest
    degree first (Horner order)."""
    out = [0j] * (max(p.degree_in(XIN), 0) + 1)
    for d, cp in p.coeffs_in(XIN).items():
        out[-1 - d] = cp.eval_numeric({}).to_complex()
    return out


def _horner(coeffs: List[complex], x: float) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def _midpoint_rule(num_c: List[complex], den_c: List[complex], n: int):
    """The n-point midpoint rule for the integral of num/den over the real
    line after xin = tan(theta), and the same rule applied to |num/den|."""
    total = 0j
    mass = 0.0
    for j in range(n):
        x = math.tan(math.pi * ((j + 0.5) / n - 0.5))
        try:
            value = _horner(num_c, x) / _horner(den_c, x) * (1.0 + x * x)
        except ZeroDivisionError:
            raise EngineError("pole on the real line in numeric quadrature") from None
        total += value
        mass += abs(value)
    step = math.pi / n
    return total * step, mass * step


def numeric_contour_oracle(coeff: ScalarExpr) -> complex:
    """The integral of coeff over the real xin line in floating point; testing only.

    With xin = tan(theta), dxin = sec(theta)^2 dtheta, and xin -/+ i =
    -/+ i e^(+/-i theta) / cos(theta).  So for num / (c (xin - i)^p
    (xin + i)^q) with deg num <= p + q - 2, coeff(tan(theta)) sec(theta)^2
    on (-pi/2, pi/2) is a trigonometric polynomial in 2 theta of degree
    max(p, q) - 1, and
    the N-point midpoint rule is exact on it for N >= max(p, q): here
    N = deg(den) + 1.  The rules at N and 2N nodes are compared as a
    self-check; they must agree to 1e-9 times the integral of |coeff|, or a
    pole off +/-i (which leaves an integrand that is not such a polynomial)
    is reported as an `EngineError`.  The integrand is a Horner loop in
    plain `complex`, independent of the residue routes.
    """
    _check_decay(coeff)
    num_c = _univariate_complex_coeffs(coeff.num)
    den_c = _univariate_complex_coeffs(coeff.den)
    n = len(den_c)
    coarse, _ = _midpoint_rule(num_c, den_c, n)
    fine, mass = _midpoint_rule(num_c, den_c, 2 * n)
    if abs(fine - coarse) > 1e-9 * mass:
        raise EngineError("numeric quadrature is not exact: a pole off +/-i?")
    return fine


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
    the numerator.  Non-tangential factors pass through unchanged.  Each
    numerator term adds its coefficient times the moment of its tangential
    part into one dict under its rest monomial; the moment is computed once
    per tangential exponent triple.
    """
    if XIN in expr.variables():
        raise EngineError("xin present in sphere integrand")
    if expr.den.variables() & _TANGENTIAL:
        raise EngineError("tangential variables in sphere-integrand denominator")
    moments: Dict[int, Tuple[GRat, int]] = {}
    acc: Dict[int, GRat] = {}
    for mono, c in expr.num.terms.items():
        key = mono & _TANGENTIAL_FIELDS
        hit = moments.get(key)
        if hit is None:
            tang = [(key >> _SHIFT[s]) & 0xFF for s in XI[:3]]
            hit = moments[key] = (GRat(monomial_moment(tang, sphere_dim)),
                                  mono_pack(zip(XI[:3], tang)))
        factor, tang_mono = hit
        if factor.is_zero():
            continue
        rest = mono - tang_mono
        cur = acc.get(rest)
        acc[rest] = c * factor if cur is None else cur + c * factor
    total = Poly({m: v for m, v in acc.items() if not v.is_zero()}, _trusted=True) * _OMEGA3_POLY
    return ScalarExpr.from_poly(total) / ScalarExpr.from_poly(expr.den)


def _legendre(n: int, u: float) -> Tuple[float, float]:
    """P_n(u) and P_n'(u), from the three-term recurrence
    (j + 1) P_(j+1) = (2j + 1) u P_j - j P_(j-1)."""
    p_prev, p = 1.0, u
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * u * p - j * p_prev) / (j + 1)
    return p, n * (u * p - p_prev) / (u * u - 1.0)


def _gauss_legendre(n: int) -> List[Tuple[float, float]]:
    """The n-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs.

    Each node is a root of P_n, found by Newton's method from the estimate
    cos(pi (k - 1/4) / (n + 1/2)); its weight is 2 / ((1 - u^2) P_n'(u)^2).
    """
    rule = []
    for k in range(1, n + 1):
        u = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(50):
            p, dp = _legendre(n, u)
            step = p / dp
            u -= step
            if abs(step) <= 1e-15:
                break
        dp = _legendre(n, u)[1]
        rule.append((u, 2.0 / ((1.0 - u * u) * dp * dp)))
    return rule


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
    if not (expr.variables() <= _TANGENTIAL and expr.den.is_const()):
        raise EngineError("sphere oracle handles pure tangential polynomials only")
    terms = [(c.to_complex(), [(XI.index(v), e) for v, e in mono_items(mono)])
             for mono, c in expr.num.terms.items()]
    degree = max((sum(e for _, e in exps) for _, exps in terms), default=0)
    m = degree + 1
    angles = [(math.cos(2.0 * math.pi * k / m), math.sin(2.0 * math.pi * k / m))
              for k in range(m)]
    total = 0j
    for u, weight in _gauss_legendre(degree // 2 + 1):
        sin_t = math.sqrt(1.0 - u * u)
        ring = 0j
        for cos_p, sin_p in angles:
            point = (sin_t * cos_p, sin_t * sin_p, u)
            for c, exps in terms:
                term = c
                for axis, e in exps:
                    term *= point[axis] ** e
                ring += term
        total += weight * ring
    return total * (2.0 * math.pi / m) / expr.den.const_value().to_complex()
