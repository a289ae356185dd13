"""Interior Einstein functional with torsion: trace identities and assembly.

Works at an interior point in normal coordinates (connection coefficients
vanish at the point; frame derivatives of the connection produce curvature
atoms).  The endomorphism E of the torsion Laplacian decomposes into a scalar
part and a traceless Clifford part; the engine checks the tracelessness from
first principles rather than assuming it, then assembles the functional
density in dimension n = 2m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple

from .gaussian import GRat
from .scalars import (
    EngineError,
    ScalarExpr,
    S_ZERO,
    atom_dT2,
    atom_dT4,
    atom_dV,
    atom_R,
    atom_T,
    atom_V,
    sym,
)
from .clifford import CliffordExpr, CL_ZERO, cl_trace


def _c(i: int) -> CliffordExpr:
    return CliffordExpr.gen(i)


def _c_vector(coeffs) -> CliffordExpr:
    return CliffordExpr.from_cotangent(list(coeffs))


def _frac(a: int, b: int) -> ScalarExpr:
    return ScalarExpr.const(GRat(Fraction(a, b)))


class EndomorphismE(NamedTuple):
    """Scalar and Clifford parts of the Laplacian endomorphism."""

    scalar_part: ScalarExpr
    clifford_part: CliffordExpr


def endomorphism_e() -> EndomorphismE:
    """E = (-1/4 Rг - 3/2 div V + 3/2 |T|^2 + 9/2 |V|^2) Id - 3/2 dT - 9 T.V - 9 V_|T."""
    scalar = (
        _frac(-1, 4) * sym("Rg")
        + _frac(-3, 2) * sym("divV")
        + _frac(3, 2) * sym("normT2")
        + _frac(9, 2) * sym("normV2")
    )
    # dT as a four-form element
    dt = (_c(1) * _c(2) * _c(3) * _c(4)).scale(atom_dT4([1, 2, 3, 4]))
    # T.V: the three-form times Clifford multiplication by V
    three_form = CL_ZERO
    for a in range(1, 5):
        for j in range(a + 1, 5):
            for k in range(j + 1, 5):
                three_form = three_form + (_c(a) * _c(j) * _c(k)).scale(atom_T(a, j, k))
    tv = three_form * _c_vector([atom_V(l) for l in range(1, 5)])
    # V contracted into T: sum_{i<j} T(V, e_i, e_j) c(e_i)c(e_j)
    vt = CL_ZERO
    for i in range(1, 5):
        for j in range(i + 1, 5):
            coeff = S_ZERO
            for l in range(1, 5):
                coeff = coeff + atom_V(l) * atom_T(l, i, j)
            vt = vt + (_c(i) * _c(j)).scale(coeff)
    clifford = dt.scale(_frac(-3, 2)) + tv.scale(ScalarExpr.const(-9)) + vt.scale(
        ScalarExpr.const(-9)
    )
    return EndomorphismE(scalar, clifford)


def trace_e() -> ScalarExpr:
    """Trace of E on the rank-4 spinor module; the Clifford part must vanish.

    The vanishing of the dT, T.V and V-contraction traces is computed, not
    assumed; a nonzero Clifford-part trace is an internal error.
    """
    e = endomorphism_e()
    cliff_trace = cl_trace(e.clifford_part)
    if not cliff_trace.is_zero():
        raise EngineError("Clifford part of E has nonvanishing trace")
    return ScalarExpr.const(4) * e.scalar_part


def clifford_part_top_coefficient() -> ScalarExpr:
    """Coefficient of the top monomial in E's Clifford part.

    The trace functional assigns 0 to the top monomial (matching the matrix
    oracle); this hook reports what a nonzero-chirality convention would add.
    """
    e = endomorphism_e()
    return e.clifford_part.coefficient((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# Curvature trace identities
# ---------------------------------------------------------------------------

def connection_derivative(a: int, b: int) -> CliffordExpr:
    """Frame derivative of the full connection term at the point.

    e_a(A-bar(e_b)) with the curvature substitution e_a(w_st(e_b)) = R[a,b,s,t]/2,
    torsion derivative atoms dT2 and vector-field derivative atoms dV.
    """
    total = CL_ZERO
    for s in range(1, 5):
        for t in range(1, 5):
            coeff = atom_R(a, b, s, t) * _frac(-1, 8)
            if not coeff.is_zero():
                total = total + (_c(s) * _c(t)).scale(coeff)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            total = total + (_c(i) * _c(j)).scale(atom_dT2(a, b, i, j) * _frac(3, 2))
    for k in range(1, 5):
        total = total + (_c(k) * _c(b)).scale(atom_dV(a, k) * _frac(-3, 2))
    total = total + CliffordExpr.scalar(atom_dV(a, b) * _frac(-3, 2))
    return total


def connection_term(vec_coeffs: List[ScalarExpr]) -> CliffordExpr:
    """A-bar(W) at the point: torsion two-form, vectorial and scalar parts.

    The Levi-Civita part vanishes at the point in interior normal coordinates.
    """
    total = CL_ZERO
    for i in range(1, 5):
        for j in range(i + 1, 5):
            coeff = S_ZERO
            for a in range(1, 5):
                coeff = coeff + vec_coeffs[a - 1] * atom_T(a, i, j)
            total = total + (_c(i) * _c(j)).scale(coeff * _frac(3, 2))
    cv = _c_vector([atom_V(k) for k in range(1, 5)])
    cw = _c_vector(vec_coeffs)
    total = total - (cv * cw).scale(_frac(3, 2))
    inner = S_ZERO
    for k in range(1, 5):
        inner = inner + atom_V(k) * vec_coeffs[k - 1]
    return total - CliffordExpr.scalar(inner * _frac(3, 2))


def curvature_trace_identities() -> Dict[str, ScalarExpr]:
    """The three trace families whose vanishing kills the curvature term.

    Returns exact traces for: the frame derivative of the connection term,
    the commutator of two connection terms, and the connection term of a
    generic bracket vector field.  Each must normalize to zero.
    """
    out: Dict[str, ScalarExpr] = {}
    deriv_total = S_ZERO
    for a, b in ((1, 2), (1, 3), (2, 4), (3, 4)):
        deriv_total = deriv_total + cl_trace(connection_derivative(a, b)) ** 2
    out["connection-derivative-trace"] = deriv_total
    comm_total = S_ZERO
    for a, b in ((1, 2), (2, 3)):
        ca = connection_term([ScalarExpr.const(1 if k == a else 0) for k in range(1, 5)])
        cb = connection_term([ScalarExpr.const(1 if k == b else 0) for k in range(1, 5)])
        comm_total = comm_total + cl_trace(ca * cb - cb * ca) ** 2
    out["connection-commutator-trace"] = comm_total
    generic = connection_term([sym(f"w[{k}]") for k in range(1, 5)])
    out["connection-bracket-trace"] = cl_trace(generic)
    return out


# ---------------------------------------------------------------------------
# Functional assembly
# ---------------------------------------------------------------------------

def einstein_functional_rhs(m: int = 2) -> ScalarExpr:
    """Density of the Einstein functional with torsion in dimension n = 2m.

    v_{n-1}/6 * 2^m * G(V,W)  +  v_{n-1}/2 * F(V,W)  +  1/2 * Tr(E) g(V,W),
    with v_{n-1} = 2 pi^m / Gamma(m), F = 0 by the trace identities, and
    G(V,W) = Ric(V,W) - s/2 g(V,W) on atoms.
    """
    ids = curvature_trace_identities()
    for name, val in ids.items():
        if not val.is_zero():
            raise EngineError(f"curvature trace identity {name} failed to vanish")
    upsilon = _frac(2, math.factorial(m - 1)) * sym("pi") ** m
    g_term = sym("RicVW") - _frac(1, 2) * sym("s_scal") * sym("gVW")
    te = trace_e()
    return (
        upsilon * _frac(1, 6) * ScalarExpr.const(2 ** m) * g_term
        + _frac(1, 2) * te * sym("gVW")
    )


_DENSITY: Dict[int, ScalarExpr] = {}


def interior_density(m: int = 2) -> ScalarExpr:
    """The interior integrand shared by both boundary theorems (n = 4); it
    depends on no run input, so it is built once per process and m."""
    hit = _DENSITY.get(m)
    if hit is None:
        hit = _DENSITY[m] = einstein_functional_rhs(m)
    return hit
