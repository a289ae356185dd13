"""The paper's printed results, as coefficient tables over one basis.

Every reference value the engine compares against is transcribed here once,
keyed by the source text's equation numbering, together with the verbatim
line it came from.  Comparison is by exact symbolic difference; a mismatch
never alters the engine value, it is reported with the delta.

A printed result is a table row: its Gaussian-rational coefficients over
one named basis of monomials (`BASIS`), written with the print's own
denominators so that a row reads against its quote, and the report rows it
is checked against.  `reference_value` sums coefficient times basis element.

This module needs only `gaussian` and `scalars`, so a run of the interior
theorems reads its references without loading the boundary stack.  The
printed intermediates, which need the pipeline, are the slots of
`references`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .gaussian import GRat
from .scalars import EngineError, ScalarExpr, S_ZERO, atom_A, sym


def _g(re, im=0) -> ScalarExpr:
    return ScalarExpr.const(GRat(Fraction(re), Fraction(im)))


_H1 = sym("h1")


def _sum_a_iin() -> ScalarExpr:
    """Sum_i A_iin over the tangential i; A_nnn is 0 (antisymmetric in s, t)."""
    return atom_A(1, 1, 4) + atom_A(2, 2, 4) + atom_A(3, 3, 4)


# The reporting monomials of a boundary density: g(X^T,Y^T) = Sum_{j<n} X_jY_j,
# X_nY_n and X_n dY_n/dx_n (see `pipeline.collect_form`).
G_XT_YT = sym("X1") * sym("Y1") + sym("X2") * sym("Y2") + sym("X3") * sym("Y3")
XN_YN = sym("X4") * sym("Y4")
XN_DYN = sym("X4") * sym("dYn")


# ---------------------------------------------------------------------------
# Printed results: coefficient tables over one reporting basis
# ---------------------------------------------------------------------------

_PI2 = sym("pi") ** 2
_PI_OMEGA3 = sym("pi") * sym("Omega3")
_SUM_A = _sum_a_iin()
_G_VW = sym("gVW")

# The named basis of the printed results; in the names gT is g(X^T,Y^T), SumA
# is Sum_{i<n} A_iin and g alone is g(V,W).
BASIS: Dict[str, ScalarExpr] = {
    # boundary monomials: theorems 4.6 and 5.4 and their cases
    "h1 gT pi^2": _H1 * G_XT_YT * _PI2,
    "h1 XnYn pi^2": _H1 * XN_YN * _PI2,
    "h1 XnYn piOmega3": _H1 * XN_YN * _PI_OMEGA3,
    "Xn dYn piOmega3": XN_DYN * _PI_OMEGA3,
    "SumA gT pi^2": _SUM_A * G_XT_YT * _PI2,
    "SumA XnYn piOmega3": _SUM_A * XN_YN * _PI_OMEGA3,
    # Sum_{j,l<n} X_jY_l = (Sum_j X_j)(Sum_l Y_l)
    "SumA XjYl pi^2": _SUM_A * (sym("X1") + sym("X2") + sym("X3"))
                      * (sym("Y1") + sym("Y2") + sym("Y3")) * _PI2,
    # interior monomials: eq. 2.21 and theorems 2.3, 4.1 and 5.1
    "Rg": sym("Rg"),
    "divV": sym("divV"),
    "normT2": sym("normT2"),
    "normV2": sym("normV2"),
    "Rg g": sym("Rg") * _G_VW,
    "divV g": sym("divV") * _G_VW,
    "normT2 g": sym("normT2") * _G_VW,
    "normV2 g": sym("normV2") * _G_VW,
    "pi^2 (Ric - s g/2)": _PI2 * (sym("RicVW") - _g("1/2") * sym("s_scal") * _G_VW),
}


class RefEntry:
    """One printed result: its quote, the report rows checked against it, and
    its coefficients, basis name -> (re, im) as Fraction strings."""

    __slots__ = ("ref_id", "quote", "rows", "coeffs")

    def __init__(self, ref_id: str, quote: str, rows: Tuple[str, ...],
                 coeffs: Dict[str, Tuple[str, str]]):
        for name in coeffs:
            if name not in BASIS:
                raise EngineError(f"{ref_id}: {name!r} names no basis monomial")
        self.ref_id, self.quote, self.rows, self.coeffs = ref_id, quote, rows, coeffs

    def value(self) -> ScalarExpr:
        out = S_ZERO
        for name, (re, im) in self.coeffs.items():
            out = out + _g(re, im) * BASIS[name]
        return out


# m = 2 in theorem 2.3: 2^{m+1}pi^m/(6 Gamma(m)) = 4pi^2/3 and 2^{m-1} = 2
_INTERIOR_DENSITY = {
    "pi^2 (Ric - s g/2)": ("4/3", "0"),
    "Rg g": ("-1/2", "0"),
    "divV g": ("-3", "0"),
    "normT2 g": ("3", "0"),
    "normV2 g": ("9", "0"),
}

_TABLE = (
    # interior; 2^{n/2} = 4 at n = 4
    RefEntry("eq_2_21", "Tr^{S(TM)}(E)=2^{n/2}(-1/4R^g-3/2div^g(V)+3/2||T||^2+9/2||V||^2)",
             ("T2.3/trace-E", "T4.1/trace-E", "T5.1/trace-E"),
             {"Rg": ("-1", "0"), "divV": ("-6", "0"), "normT2": ("6", "0"), "normV2": ("18", "0")}),
    RefEntry("thm_2_3", "2^{m+1}pi^m/(6Gamma(m)) (Ric(V,W)-1/2 s g(V,W)) + 2^{m-1}(-1/4R^g"
             "-3/2div^g(V)+3/2||T||^2+9/2||V||^2)g(V,W)", ("T2.3/density",), _INTERIOR_DENSITY),
    RefEntry("thm_4_1", "4pi^2/3 (Ric(X,Y)-1/2 s g(X,Y)) + (-1/2R^g-3div^g(X)+3||T||^2"
             "+9||X||^2)g(X,Y)", ("T4.1/density", "T4.6/interior"), _INTERIOR_DENSITY),
    RefEntry("thm_5_1", "-1/2R^g-3div^g(X)+3||T||^2+9||X||^2 (same integrand as the quadratic "
             "case)", ("T5.1/density", "T5.4/interior"), _INTERIOR_DENSITY),
    # first pipeline: theorem 4.6
    RefEntry("eq_4_26", "so Phi_1=0", ("T4.6/a1",), {}),
    RefEntry("eq_4_32", "13pi^2/24 Sum X_jY_jh'(0)dx'+13/32 X_nY_n h'(0)piOmega_3dx'",
             ("T4.6/a2",), {"h1 gT pi^2": ("13/24", "0"), "h1 XnYn piOmega3": ("13/32", "0")}),
    RefEntry("eq_4_39", "5pi^2/12 Sum X_jY_jh'(0)dx'+5i/16 X_nY_n h'(0)piOmega_3dx'",
             ("T4.6/a3",), {"h1 gT pi^2": ("5/12", "0"), "h1 XnYn piOmega3": ("0", "5/16")}),
    RefEntry("eq_4_44", "(1-5i)pi^2/12 Sum X_jY_jh'(0)dx'+11i/16 X_nY_n h'(0)piOmega_3dx'",
             ("T4.6/b",), {"h1 gT pi^2": ("1/12", "-5/12"), "h1 XnYn piOmega3": ("0", "11/16")}),
    RefEntry("eq_4_55", "((5i-13)/6 Sum X_jY_j + (3-96i)/8 X_nY_n) h'(0)pi^2 dx' "
             "- X_n dY_n/dx_n (pi/2)Omega_3 dx'", ("T4.6/c",),
             {"h1 gT pi^2": ("-13/6", "5/6"), "h1 XnYn pi^2": ("3/8", "-96/8"),
              "Xn dYn piOmega3": ("-1/2", "0")}),
    RefEntry("eq_4_56", "(15-362i)/32 X_nY_nh'(0)piOmega_3 + (10i-27)pi^2/24 g(X^T,Y^T)h'(0) "
             "- X_n dY_n/dx_n (pi/2)Omega_3", ("T4.6/total",),
             {"h1 XnYn piOmega3": ("15/32", "-362/32"), "h1 gT pi^2": ("-27/24", "10/24"),
              "Xn dYn piOmega3": ("-1/2", "0")}),
    RefEntry("thm_4_6", "((15-362i)/32 X_nY_n pi h'(0) - X_n dY_n/dx_n pi/2)Omega_3 "
             "+ (10i-27)pi^2/24 g(X^T,Y^T)h'(0)", ("T4.6/theorem",),
             {"h1 XnYn piOmega3": ("15/32", "-362/32"), "Xn dYn piOmega3": ("-1/2", "0"),
              "h1 gT pi^2": ("-27/24", "10/24")}),
    # second pipeline: theorem 5.4
    RefEntry("eq_5_13", "so tilde-Phi_1=0", ("T5.4/a1",), {}),
    RefEntry("eq_5_19", "-592/3 pi^2 Sum X_jY_jh'(0)dx' - (461/4+23/4 i) X_nY_n h'(0)piOmega_3dx'",
             ("T5.4/a2",),
             {"h1 gT pi^2": ("-592/3", "0"), "h1 XnYn piOmega3": ("-461/4", "-23/4")}),
    RefEntry("eq_5_25", "5ipi^2/6 Sum X_jY_jh'(0)dx' + 5i/8 X_nY_n h'(0)piOmega_3dx'",
             ("T5.4/a3",), {"h1 gT pi^2": ("0", "5/6"), "h1 XnYn piOmega3": ("0", "5/8")}),
    RefEntry("eq_5_43", "(55pi^2/3 Sum X_jY_j + (4-15i)/8 X_nY_n piOmega_3)h'(0) "
             "+ (2pi^2/3 Sum_{j,l} X_jY_l + 3/8 X_nY_n piOmega_3) Sum A_iin", ("T5.4/b",),
             {"h1 gT pi^2": ("55/3", "0"), "h1 XnYn piOmega3": ("4/8", "-15/8"),
              "SumA XjYl pi^2": ("2/3", "0"), "SumA XnYn piOmega3": ("3/8", "0")}),
    RefEntry("eq_5_50", "((-35/3+50i/3) Sum X_jY_j pi^2 + (5-137i/32) X_nY_n piOmega_3)h'(0)dx'",
             ("T5.4/c",),
             {"h1 gT pi^2": ("-35/3", "50/3"), "h1 XnYn piOmega3": ("5", "-137/32")}),
    RefEntry("eq_5_51", "[(-2801/12-33i/32)X_nY_npiOmega_3+(-572/3+35i/2)pi^2 g(X^T,Y^T)]h'(0) "
             "+ ((3/8-3i/8)X_nY_npiOmega_3+(4+3i)/6 pi^2 g(X^T,Y^T)) Sum A_iin", ("T5.4/total",),
             {"h1 XnYn piOmega3": ("-2801/12", "-33/32"), "h1 gT pi^2": ("-572/3", "35/2"),
              "SumA XnYn piOmega3": ("3/8", "-3/8"), "SumA gT pi^2": ("4/6", "3/6")}),
    RefEntry("thm_5_4", "((-2801/24-33i/32)X_nY_npiOmega_3+(35i/2-572/3)pi^2 g(X^T,Y^T))h'(0) "
             "+ ((3/8-3i/8)X_nY_npiOmega_3+(4+3i)/6 pi^2 g(X^T,Y^T)) Sum A_iin",
             ("T5.4/theorem",),
             {"h1 XnYn piOmega3": ("-2801/24", "-33/32"), "h1 gT pi^2": ("-572/3", "35/2"),
              "SumA XnYn piOmega3": ("3/8", "-3/8"), "SumA gT pi^2": ("4/6", "3/6")}),
)

REFERENCES: Dict[str, RefEntry] = {entry.ref_id: entry for entry in _TABLE}

# report row id -> the printed result it is checked against
REFERENCE_OF_ROW: Dict[str, str] = {row: entry.ref_id for entry in _TABLE for row in entry.rows}


def reference_value(ref_id: str) -> ScalarExpr:
    if ref_id not in REFERENCES:
        raise EngineError(f"unknown reference {ref_id!r}")
    return REFERENCES[ref_id].value()
