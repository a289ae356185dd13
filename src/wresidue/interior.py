"""Interior Einstein functional with torsion: trace identities and assembly.

Works at an interior point in normal coordinates (connection coefficients
vanish at the point; frame derivatives of the connection produce curvature
atoms).  The endomorphism E of the torsion Laplacian decomposes into a scalar
part and a traceless Clifford part; the engine checks the tracelessness from
first principles rather than assuming it, then assembles the functional
density in dimension n = 2m.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple

from .gaussian import GRat
from .scalars import (
    EngineError,
    ScalarExpr,
    atom_dT2,
    atom_dT4,
    atom_dV,
    atom_R,
    atom_T,
    atom_V,
    scalar_sum,
    sym,
)
from .clifford import TOP_MONO, CliffordExpr, cl_trace, clifford_sum


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


# E, the trace identities and the interior density depend on no run input,
# so each is built once per process (`functools.cache`).
@functools.cache
def endomorphism_e() -> EndomorphismE:
    """E = (-1/4 Rг - 3/2 div V + 3/2 |T|^2 + 9/2 |V|^2) Id - 3/2 dT - 9 T.V - 9 V_|T."""
    scalar = scalar_sum((
        _frac(-1, 4) * sym("Rg"),
        _frac(-3, 2) * sym("divV"),
        _frac(3, 2) * sym("normT2"),
        _frac(9, 2) * sym("normV2"),
    ))
    # dT as a four-form element
    dt = (_c(1) * _c(2) * _c(3) * _c(4)).scale(atom_dT4([1, 2, 3, 4]))
    # T.V: the three-form times Clifford multiplication by V
    three_form = clifford_sum((_c(a) * _c(j) * _c(k)).scale(atom_T(a, j, k))
                              for a, j, k in combinations(range(1, 5), 3))
    tv = three_form * _c_vector([atom_V(l) for l in range(1, 5)])
    # V contracted into T: sum_{i<j} T(V, e_i, e_j) c(e_i)c(e_j)
    vt = clifford_sum(
        (_c(i) * _c(j)).scale(scalar_sum(atom_V(l) * atom_T(l, i, j) for l in range(1, 5)))
        for i, j in combinations(range(1, 5), 2))
    clifford = clifford_sum((dt.scale(_frac(-3, 2)), tv.scale(ScalarExpr.const(-9)),
                             vt.scale(ScalarExpr.const(-9))))
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
    return e.clifford_part.coefficient(TOP_MONO)


# ---------------------------------------------------------------------------
# Curvature trace identities
# ---------------------------------------------------------------------------

def connection_derivative(a: int, b: int) -> CliffordExpr:
    """Frame derivative of the full connection term at the point.

    e_a(A-bar(e_b)) with the curvature substitution e_a(w_st(e_b)) = R[a,b,s,t]/2,
    torsion derivative atoms dT2 and vector-field derivative atoms dV.
    """
    terms = [(_c(s) * _c(t)).scale(atom_R(a, b, s, t) * _frac(-1, 8))
             for s in range(1, 5) for t in range(1, 5)]
    terms += [(_c(i) * _c(j)).scale(atom_dT2(a, b, i, j) * _frac(3, 2))
              for i, j in combinations(range(1, 5), 2)]
    terms += [(_c(k) * _c(b)).scale(atom_dV(a, k) * _frac(-3, 2)) for k in range(1, 5)]
    terms.append(CliffordExpr.scalar(atom_dV(a, b) * _frac(-3, 2)))
    return clifford_sum(terms)


def connection_term(vec_coeffs: List[ScalarExpr]) -> CliffordExpr:
    """A-bar(W) at the point: torsion two-form, vectorial and scalar parts.

    The Levi-Civita part vanishes at the point in interior normal coordinates.
    """
    two_form = [
        (_c(i) * _c(j)).scale(
            scalar_sum(vec_coeffs[a - 1] * atom_T(a, i, j) for a in range(1, 5)) * _frac(3, 2))
        for i, j in combinations(range(1, 5), 2)]
    cv = _c_vector([atom_V(k) for k in range(1, 5)])
    cw = _c_vector(vec_coeffs)
    inner = scalar_sum(atom_V(k) * vec_coeffs[k - 1] for k in range(1, 5))
    return clifford_sum(two_form, ((cv * cw).scale(_frac(3, 2)),
                                   CliffordExpr.scalar(inner * _frac(3, 2))))


def curvature_trace_identities() -> Dict[str, ScalarExpr]:
    """The three trace families whose vanishing kills the curvature term.

    Returns exact traces for: the frame derivative of the connection term,
    the commutator of two connection terms, and the connection term of a
    generic bracket vector field.  Each must normalize to zero.  Each call
    returns a new dict.
    """
    return dict(_curvature_trace_identities())


@functools.cache
def _curvature_trace_identities() -> Dict[str, ScalarExpr]:
    out: Dict[str, ScalarExpr] = {}
    out["connection-derivative-trace"] = scalar_sum(
        cl_trace(connection_derivative(a, b)) ** 2 for a, b in ((1, 2), (1, 3), (2, 4), (3, 4)))
    unit = {j: connection_term([ScalarExpr.const(1 if k == j else 0) for k in range(1, 5)])
            for j in (1, 2, 3)}
    out["connection-commutator-trace"] = scalar_sum(
        cl_trace(unit[a] * unit[b] - unit[b] * unit[a]) ** 2 for a, b in ((1, 2), (2, 3)))
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


@functools.cache
def interior_density() -> ScalarExpr:
    """The interior integrand shared by both boundary theorems (n = 4)."""
    return einstein_functional_rhs(2)
