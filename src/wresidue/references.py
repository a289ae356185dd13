"""Published coefficient table used for comparison verdicts.

Every reference value the engine compares against is transcribed here once,
keyed by the source text's equation numbering, together with the verbatim
line it came from.  Comparison is by exact symbolic difference; a mismatch
never alters the engine value, it is reported with the delta.

Intermediate "slot" entries pair a printed display with the engine
computation that reproduces it, so each case's step trail can carry
match/mismatch verdicts for every printed intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

from .gaussian import GRat, I
from .scalars import ScalarExpr, S_ZERO, S_ONE, atom_A, atom_T, sym
from .clifford import CliffordExpr, cl_trace_product
from .halfplane import pi_plus
from .pipeline import AxisStages, case_stages, case_trace_integrand, find_case
from .symbols import (
    builtin_symbol,
    c_dxn,
    c_gen,
    c_xi,
    c_xi_prime,
    q_bilinear,
    sigma0_dirac_lc,
    torsion_u,
    torsion_v,
    xi_var,
)


def _g(re, im=0) -> ScalarExpr:
    return ScalarExpr.const(GRat(Fraction(re), Fraction(im)))


def _pi() -> ScalarExpr:
    return sym("pi")


def _om() -> ScalarExpr:
    return sym("Omega3")


def _h1() -> ScalarExpr:
    return sym("h1")


def _txy() -> ScalarExpr:
    out = S_ZERO
    for j in (1, 2, 3):
        out = out + sym(f"X{j}") * sym(f"Y{j}")
    return out


def _xy_normal() -> ScalarExpr:
    return sym("X4") * sym("Y4")


def _sum_a_iin() -> ScalarExpr:
    out = S_ZERO
    for i_ in (1, 2, 3):
        out = out + atom_A(i_, i_, 4)
    return out


def _mixed_xj_yn() -> ScalarExpr:
    out = S_ZERO
    for j in (1, 2, 3):
        out = out + sym(f"X{j}") * sym("Y4") * xi_var(j)
    return out


def _mixed_xn_yl() -> ScalarExpr:
    out = S_ZERO
    for l in (1, 2, 3):
        out = out + sym("X4") * sym(f"Y{l}") * xi_var(l)
    return out


def _qt() -> ScalarExpr:
    out = S_ZERO
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            out = out + sym(f"X{j}") * sym(f"Y{l}") * xi_var(j) * xi_var(l)
    return out


def _lin_minus(k: int = 1) -> ScalarExpr:
    return (xi_var(4) - ScalarExpr.const(I)) ** k


def _lin_plus(k: int = 1) -> ScalarExpr:
    return (xi_var(4) + ScalarExpr.const(I)) ** k


def _den_1x2(k: int) -> ScalarExpr:
    return (S_ONE + xi_var(4) ** 2) ** k


@dataclass
class RefEntry:
    ref_id: str
    quote: str
    build: Callable[[], object]  # ScalarExpr or CliffordExpr


REFERENCES: Dict[str, RefEntry] = {}


def _ref(ref_id: str, quote: str):
    def deco(fn):
        REFERENCES[ref_id] = RefEntry(ref_id, quote, fn)
        return fn
    return deco


def reference_value(ref_id: str):
    if ref_id not in REFERENCES:
        from .scalars import EngineError

        raise EngineError(f"unknown reference {ref_id!r}")
    return REFERENCES[ref_id].build()


# ---------------------------------------------------------------------------
# Interior results
# ---------------------------------------------------------------------------

@_ref("eq_2_21", "Tr^{S(TM)}(E)=2^{n/2}(-1/4R^g-3/2div^g(V)+3/2||T||^2+9/2||V||^2)")
def _eq_2_21():
    return ScalarExpr.const(4) * (
        _g(-1, 0) / 4 * sym("Rg")
        - _g(3, 0) / 2 * sym("divV")
        + _g(3, 0) / 2 * sym("normT2")
        + _g(9, 0) / 2 * sym("normV2")
    )


@_ref(
    "thm_2_3",
    "2^{m+1}pi^m/(6Gamma(m)) (Ric(V,W)-1/2 s g(V,W)) + 2^{m-1}(-1/4R^g-3/2div^g(V)"
    "+3/2||T||^2+9/2||V||^2)g(V,W)",
)
def _thm_2_3():
    pi2 = _pi() ** 2
    return (
        _g(4, 0) / 3 * pi2 * (sym("RicVW") - _g(1, 0) / 2 * sym("s_scal") * sym("gVW"))
        + ScalarExpr.const(2)
        * (
            _g(-1, 0) / 4 * sym("Rg")
            - _g(3, 0) / 2 * sym("divV")
            + _g(3, 0) / 2 * sym("normT2")
            + _g(9, 0) / 2 * sym("normV2")
        )
        * sym("gVW")
    )


@_ref(
    "thm_4_1",
    "4pi^2/3 (Ric(X,Y)-1/2 s g(X,Y)) + (-1/2R^g-3div^g(X)+3||T||^2+9||X||^2)g(X,Y)",
)
def _thm_4_1():
    pi2 = _pi() ** 2
    return _g(4, 0) / 3 * pi2 * (
        sym("RicVW") - _g(1, 0) / 2 * sym("s_scal") * sym("gVW")
    ) + (
        _g(-1, 0) / 2 * sym("Rg")
        - ScalarExpr.const(3) * sym("divV")
        + ScalarExpr.const(3) * sym("normT2")
        + ScalarExpr.const(9) * sym("normV2")
    ) * sym("gVW")


REFERENCES["thm_5_1"] = RefEntry(
    "thm_5_1",
    "-1/2R^g-3div^g(X)+3||T||^2+9||X||^2 (same integrand as the quadratic case)",
    _thm_4_1,
)


# ---------------------------------------------------------------------------
# Boundary case results, first pipeline
# ---------------------------------------------------------------------------

@_ref("eq_4_26", "so Phi_1=0")
def _eq_4_26():
    return S_ZERO


@_ref("eq_4_32", "13pi^2/24 Sum X_jY_jh'(0)dx'+13/32 X_nY_n h'(0)piOmega_3dx'")
def _eq_4_32():
    return (
        _g(13, 0) / 24 * _pi() ** 2 * _txy() * _h1()
        + _g(13, 0) / 32 * _xy_normal() * _h1() * _pi() * _om()
    )


@_ref("eq_4_39", "5pi^2/12 Sum X_jY_jh'(0)dx'+5i/16 X_nY_n h'(0)piOmega_3dx'")
def _eq_4_39():
    return (
        _g(5, 0) / 12 * _pi() ** 2 * _txy() * _h1()
        + _g(0, 5) / 16 * _xy_normal() * _h1() * _pi() * _om()
    )


@_ref("eq_4_44", "(1-5i)pi^2/12 Sum X_jY_jh'(0)dx'+11i/16 X_nY_n h'(0)piOmega_3dx'")
def _eq_4_44():
    return (
        _g(1, -5) / 12 * _pi() ** 2 * _txy() * _h1()
        + _g(0, 11) / 16 * _xy_normal() * _h1() * _pi() * _om()
    )


@_ref(
    "eq_4_55",
    "((5i-13)/6 Sum X_jY_j + (3-96i)/8 X_nY_n) h'(0)pi^2 dx' "
    "- X_n dY_n/dx_n (pi/2)Omega_3 dx'",
)
def _eq_4_55():
    pi2 = _pi() ** 2
    return (
        _g(-13, 5) / 6 * _txy() * _h1() * pi2
        + _g(3, -96) / 8 * _xy_normal() * _h1() * pi2
        - sym("X4") * sym("dYn") * _pi() / 2 * _om()
    )


@_ref(
    "eq_4_56",
    "(15-362i)/32 X_nY_nh'(0)piOmega_3 + (10i-27)pi^2/24 g(X^T,Y^T)h'(0) "
    "- X_n dY_n/dx_n (pi/2)Omega_3",
)
def _eq_4_56():
    return (
        _g(15, -362) / 32 * _xy_normal() * _h1() * _pi() * _om()
        + _g(-27, 10) / 24 * _pi() ** 2 * _txy() * _h1()
        - sym("X4") * sym("dYn") * _pi() / 2 * _om()
    )


REFERENCES["thm_4_6"] = RefEntry(
    "thm_4_6",
    "((15-362i)/32 X_nY_n pi h'(0) - X_n dY_n/dx_n pi/2)Omega_3 "
    "+ (10i-27)pi^2/24 g(X^T,Y^T)h'(0)",
    _eq_4_56,
)


# ---------------------------------------------------------------------------
# Boundary case results, second pipeline
# ---------------------------------------------------------------------------

@_ref("eq_5_13", "so tilde-Phi_1=0")
def _eq_5_13():
    return S_ZERO


@_ref(
    "eq_5_19",
    "-592/3 pi^2 Sum X_jY_jh'(0)dx' - (461/4+23/4 i) X_nY_n h'(0)piOmega_3dx'",
)
def _eq_5_19():
    return (
        _g(-592, 0) / 3 * _pi() ** 2 * _txy() * _h1()
        - (_g(461, 23) / 4) * _xy_normal() * _h1() * _pi() * _om()
    )


@_ref("eq_5_25", "5ipi^2/6 Sum X_jY_jh'(0)dx' + 5i/8 X_nY_n h'(0)piOmega_3dx'")
def _eq_5_25():
    return (
        _g(0, 5) / 6 * _pi() ** 2 * _txy() * _h1()
        + _g(0, 5) / 8 * _xy_normal() * _h1() * _pi() * _om()
    )


@_ref(
    "eq_5_43",
    "(55pi^2/3 Sum X_jY_j + (4-15i)/8 X_nY_n piOmega_3)h'(0) "
    "+ (2pi^2/3 Sum_{j,l} X_jY_l + 3/8 X_nY_n piOmega_3) Sum A_iin",
)
def _eq_5_43():
    sum_x = S_ZERO
    sum_y = S_ZERO
    for j in (1, 2, 3):
        sum_x = sum_x + sym(f"X{j}")
        sum_y = sum_y + sym(f"Y{j}")
    return (
        _g(55, 0) / 3 * _pi() ** 2 * _txy() * _h1()
        + _g(4, -15) / 8 * _xy_normal() * _pi() * _om() * _h1()
        + (
            _g(2, 0) / 3 * _pi() ** 2 * sum_x * sum_y
            + _g(3, 0) / 8 * _xy_normal() * _pi() * _om()
        )
        * _sum_a_iin()
    )


@_ref(
    "eq_5_50",
    "((-35/3+50i/3) Sum X_jY_j pi^2 + (5-137i/32) X_nY_n piOmega_3)h'(0)dx'",
)
def _eq_5_50():
    return (
        (_g(-35, 50) / 3) * _txy() * _pi() ** 2 * _h1()
        + (_g(5, 0) - _g(0, 137) / 32) * _xy_normal() * _pi() * _om() * _h1()
    )


@_ref(
    "eq_5_51",
    "[(-2801/12-33i/32)X_nY_npiOmega_3+(-572/3+35i/2)pi^2 g(X^T,Y^T)]h'(0) "
    "+ ((3/8-3i/8)X_nY_npiOmega_3+(4+3i)/6 pi^2 g(X^T,Y^T)) Sum A_iin",
)
def _eq_5_51():
    return (
        (
            (_g(-2801, 0) / 12 - _g(0, 33) / 32) * _xy_normal() * _pi() * _om()
            + (_g(-572, 0) / 3 + _g(0, 35) / 2) * _pi() ** 2 * _txy()
        )
        * _h1()
        + (
            _g(3, -3) / 8 * _xy_normal() * _pi() * _om()
            + _g(4, 3) / 6 * _pi() ** 2 * _txy()
        )
        * _sum_a_iin()
    )


@_ref(
    "thm_5_4",
    "((-2801/24-33i/32)X_nY_npiOmega_3+(35i/2-572/3)pi^2 g(X^T,Y^T))h'(0) "
    "+ ((3/8-3i/8)X_nY_npiOmega_3+(4+3i)/6 pi^2 g(X^T,Y^T)) Sum A_iin",
)
def _thm_5_4():
    return (
        (
            (_g(-2801, 0) / 24 - _g(0, 33) / 32) * _xy_normal() * _pi() * _om()
            + (_g(-572, 0) / 3 + _g(0, 35) / 2) * _pi() ** 2 * _txy()
        )
        * _h1()
        + (
            _g(3, -3) / 8 * _xy_normal() * _pi() * _om()
            + _g(4, 3) / 6 * _pi() ** 2 * _txy()
        )
        * _sum_a_iin()
    )


# ---------------------------------------------------------------------------
# Printed intermediates: engine slot computations paired with reconstructions
# ---------------------------------------------------------------------------

@dataclass
class SlotEntry:
    slot_id: str
    theorem: str
    case_id: str
    quote: str
    build_ref: Callable[[], object]
    build_engine: Callable[[object], object]  # receives the TheoremContext


SLOTS: List[SlotEntry] = []


def _slot(slot_id: str, theorem: str, case_id: str, quote: str, build_ref):
    def deco(fn):
        SLOTS.append(SlotEntry(slot_id, theorem, case_id, quote, build_ref, fn))
        return fn
    return deco


def _stage(ctx, case_id: str) -> AxisStages:
    """The stage chain of a case without tangential derivatives (a single pass)."""
    (stage,) = case_stages(ctx, find_case(ctx.theorem, case_id))
    return stage


def _projected_leading_f1(ctx) -> CliffordExpr:
    """pi+ of the restricted, undifferentiated leading symbol of the first
    factor: the a3 case takes no x-side derivative of it (j = |alpha| = 0)."""
    return pi_plus(_stage(ctx, "a3").f1_base)


# ---- first pipeline intermediates ----

@_slot(
    "eq_4_27", "T4.6", "a2",
    "partial_xi_n^2 sigma_-2((D_T^*D_T)^{-1}) = (6xi_n^2-2)/(1+xi_n^2)^3",
    lambda: CliffordExpr.scalar((ScalarExpr.const(6) * xi_var(4) ** 2 - ScalarExpr.const(2)) / _den_1x2(3)),
)
def _slot_4_27(ctx):
    return _stage(ctx, "a2").f2


@_slot(
    "eq_4_29", "T4.6", "a2",
    "partial_x_n sigma_0 = Sum X_jY_l xi_j xi_l h'(0)|xi'|^2/(1+xi_n^2)^2",
    lambda: CliffordExpr.scalar(
        (q_bilinear().restrict_sphere()) * _h1() / _den_1x2(2)
    ),
)
def _slot_4_29(ctx):
    return _stage(ctx, "a2").f1


@_slot(
    "eq_4_31", "T4.6", "a2",
    "pi+ d_x_n sigma_0 = -i xi_n/(4(xi_n-i)^2) Sum' X_jY_l xi_j xi_l h'(0) "
    "+ (2-i xi_n)/(4(xi_n-i)^2) X_nY_nh'(0) - i/(4(xi_n-i)^2)(mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(GRat(0, -1)) * xi_var(4) / (ScalarExpr.const(4) * _lin_minus(2)) * _qt() * _h1()
        + (ScalarExpr.const(2) - ScalarExpr.const(I) * xi_var(4))
        / (ScalarExpr.const(4) * _lin_minus(2)) * _xy_normal() * _h1()
        - ScalarExpr.const(I) / (ScalarExpr.const(4) * _lin_minus(2)) * _mixed_xj_yn()
        - ScalarExpr.const(I) / (ScalarExpr.const(4) * _lin_minus(2)) * _mixed_xn_yl()
    ),
)
def _slot_4_31(ctx):
    return pi_plus(_stage(ctx, "a2").f1)


@_slot(
    "eq_4_34", "T4.6", "a3",
    "partial_x_n sigma_-2((D_T^*D_T)^{-1})|_{|xi'|=1} = -h'(0)/(1+xi_n^2)^2",
    lambda: CliffordExpr.scalar(-_h1() / _den_1x2(2)),
)
def _slot_4_34(ctx):
    return _stage(ctx, "a3").f2_base


@_slot(
    "eq_4_35", "T4.6", "a2",
    "2(1+xi_n i-3xi_n^3 i-i)/((xi_n-i)^5(xi_n+i)^3) (tangential and normal blocks) "
    "+ 2(1-3xi_n^2)i/(...)(mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(2)
        * (S_ONE + ScalarExpr.const(I) * xi_var(4) - ScalarExpr.const(GRat(0, 3)) * xi_var(4) ** 3 - ScalarExpr.const(I))
        / (_lin_minus(5) * _lin_plus(3)) * (_qt() * _h1() + _xy_normal() * _h1())
        + ScalarExpr.const(2) * (S_ONE - ScalarExpr.const(3) * xi_var(4) ** 2) * ScalarExpr.const(I)
        / (_lin_minus(5) * _lin_plus(3)) * (_mixed_xj_yn() + _mixed_xn_yl())
    ),
)
def _slot_4_35(ctx):
    return case_trace_integrand(ctx, "a2")


@_slot(
    "eq_4_36", "T4.6", "a3",
    "pi+ sigma_0 = i/(2(xi_n-i)) Sum X_jY_l xi_j xi_l - 1/(2(xi_n-i)) X_nY_n "
    "- 1/(2(xi_n-i)) (mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(I) / (ScalarExpr.const(2) * _lin_minus()) * _qt()
        - S_ONE / (ScalarExpr.const(2) * _lin_minus()) * _xy_normal()
        - S_ONE / (ScalarExpr.const(2) * _lin_minus()) * (_mixed_xj_yn() + _mixed_xn_yl())
    ),
)
def _slot_4_36(ctx):
    return _projected_leading_f1(ctx)


@_slot(
    "eq_4_37", "T4.6", "a3",
    "partial_xi_n^2 pi+ sigma_0 = i/(xi_n-i)^3 Sum' X_jY_l xi_j xi_l - 1/(xi_n-i)^3 X_nY_n",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(I) / _lin_minus(3) * _qt() - S_ONE / _lin_minus(3) * _xy_normal()
    ),
)
def _slot_4_37(ctx):
    return _projected_leading_f1(ctx).differentiate("xin").differentiate("xin")


@_slot(
    "eq_4_38", "T4.6", "a3",
    "=-4 h'(0)i/((xi_n-i)^5(xi_n+i)^2) Sum X_jY_l xi_j xi_l "
    "+ 4h'(0)/((xi_n-i)^5(xi_n+i)^2) X_nY_n",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(GRat(0, -4)) * _h1() / (_lin_minus(5) * _lin_plus(2)) * _qt()
        + ScalarExpr.const(4) * _h1() / (_lin_minus(5) * _lin_plus(2)) * _xy_normal()
    ),
)
def _slot_4_38(ctx):
    return case_trace_integrand(ctx, "a3")


def _sigma_m3_ref_printed() -> CliffordExpr:
    h1 = _h1()
    xin = xi_var(4)
    m_cliff = CliffordExpr()
    for k in (1, 2, 3):
        m_cliff = m_cliff + (c_gen(k) * c_gen(4)).scale(xin)
    u = torsion_u()
    v = torsion_v()
    cxi = c_xi(at_point=True).restrict_sphere()
    bracket = CliffordExpr.scalar(_g(5, 0) / 2 * h1 * xin) - m_cliff.scale(h1 / 2)
    term1 = bracket.scale(ScalarExpr.const(-I) / _den_1x2(2))
    term2 = CliffordExpr.scalar(_g(0, -2) * h1 * xin / _den_1x2(3))
    term3 = ((u - v).scale(ScalarExpr.const(I)) * cxi + cxi.scale(ScalarExpr.const(I)) * (u + v)).scale(
        -S_ONE / _den_1x2(2)
    )
    return term1 + term2 + term3


@_slot(
    "eq_4_41", "T4.6", "b",
    "sigma_-3((D_T^*D_T)^{-1})|_{|xi'|=1} = -i/(1+xi_n^2)^2(-1/2 h'(0) "
    "Sum_{k<n} xi_n c(e_k)c(e_n) + 5/2 h'(0)xi_n) - 2ih'(0)xi_n/(1+xi_n^2)^3 "
    "- ((u-v)i c(xi)+i c(xi)(u+v))|xi|^{-4}",
    _sigma_m3_ref_printed,
)
def _slot_4_41(ctx):
    return _stage(ctx, "b").f2_base


@_slot(
    "eq_4_43", "T4.6", "b",
    "=-h'(0)(5xi_n^2-5+4xi_n)/((xi_n-i)^5(xi_n+i)^3) Sum X_jY_l xi_j xi_l "
    "+ h'(0)i(5xi_n^3-xi_n)/((xi_n-i)^5(xi_n+i)^3) X_nY_n",
    lambda: CliffordExpr.scalar(
        -_h1()
        * (ScalarExpr.const(5) * xi_var(4) ** 2 - ScalarExpr.const(5) + ScalarExpr.const(4) * xi_var(4))
        / (_lin_minus(5) * _lin_plus(3)) * _qt()
        + _h1() * ScalarExpr.const(I)
        * (ScalarExpr.const(5) * xi_var(4) ** 3 - xi_var(4))
        / (_lin_minus(5) * _lin_plus(3)) * _xy_normal()
    ),
)
def _slot_4_43(ctx):
    return case_trace_integrand(ctx, "b")


# ---- second pipeline intermediates ----

@_slot(
    "eq_5_15", "T5.4", "a2",
    "partial_xi_n^2 sigma_-3 = i[(20xi_n^2-4)c(xi')+12(xi_n^3-xi_n)c(dx_n)]/(1+xi_n^2)^4",
    lambda: (
        c_xi_prime(at_point=True).scale(
            ScalarExpr.const(I) * (ScalarExpr.const(20) * xi_var(4) ** 2 - ScalarExpr.const(4)) / _den_1x2(4)
        )
        + c_dxn().scale(
            ScalarExpr.const(GRat(0, 12)) * (xi_var(4) ** 3 - xi_var(4)) / _den_1x2(4)
        )
    ),
)
def _slot_5_15(ctx):
    return _stage(ctx, "a2").f2


@_slot(
    "eq_5_16", "T5.4", "a2",
    "partial_x_n sigma_1 = Sum X_jY_l xi_j xi_l [d_x_n c(xi')/(1+xi_n^2) "
    "+ c(xi)h'(0)|xi'|^2/(1+xi_n^2)^2]",
    lambda: (
        c_xi_prime(at_point=True).scale(
            q_bilinear().restrict_sphere() * _h1() / 2 / _den_1x2(1)
        )
        + c_xi(at_point=True).restrict_sphere().scale(
            q_bilinear().restrict_sphere() * _h1() / _den_1x2(2)
        )
    ),
)
def _slot_5_16(ctx):
    return _stage(ctx, "a2").f1


@_slot(
    "eq_5_21", "T5.4", "a3",
    "partial_x_n sigma_-3|_{|xi'|=1} = i d_x_n[c(xi')]/(1+xi_n^2)^4 "
    "- 2i h'(0)c(xi)|xi'|^2/(1+xi_n^2)^6",
    lambda: (
        c_xi_prime(at_point=True).scale(ScalarExpr.const(I) * _h1() / 2 / _den_1x2(4))
        + c_xi(at_point=True).restrict_sphere().scale(_g(0, -2) * _h1() / _den_1x2(6))
    ),
)
def _slot_5_21(ctx):
    return _stage(ctx, "a3").f2_base


@_slot(
    "eq_5_22", "T5.4", "a3",
    "pi+ sigma_1 = -(c(xi')+ic(dx_n))/(2(xi_n-i)) Sum' X_jY_l xi_j xi_l "
    "-(c(xi')+ic(dx_n))/(2(xi_n-i)) X_nY_n - (ic(xi')-c(dx_n))/(2(xi_n-i)) (mixed)",
    lambda: (
        (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
            -(_qt() + _xy_normal()) / (ScalarExpr.const(2) * _lin_minus())
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            -(_mixed_xj_yn() + _mixed_xn_yl()) / (ScalarExpr.const(2) * _lin_minus())
        )
    ),
)
def _slot_5_22(ctx):
    return _projected_leading_f1(ctx)


@_slot(
    "eq_5_23", "T5.4", "a3",
    "partial_xi_n^2 pi+ sigma_1 = -(c(xi')+ic(dx_n))/(xi_n-i)^3 (Sum' X_jY_l xi_j xi_l + X_nY_n)",
    lambda: (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
        -(_qt() + _xy_normal()) / _lin_minus(3)
    ),
)
def _slot_5_23(ctx):
    return _projected_leading_f1(ctx).differentiate("xin").differentiate("xin")


@_slot(
    "eq_5_24", "T5.4", "a3",
    "=-2h'(0)/((xi_n-i)^5(xi_n+i)^2)(Sum X_jY_l xi_j xi_l + X_nY_n)",
    lambda: CliffordExpr.scalar(
        _g(-2, 0) * _h1() / (_lin_minus(5) * _lin_plus(2)) * (_qt() + _xy_normal())
    ),
)
def _slot_5_24(ctx):
    return case_trace_integrand(ctx, "a3")


@_slot(
    "eq_5_27", "T5.4", "b",
    "partial_xi_n sigma_-3|_{|xi'|=1} = i c(dx_n)/(1+xi_n^2)^2 - 4i xi_n c(xi)/(1+xi_n^2)^3",
    lambda: (
        c_dxn().scale(ScalarExpr.const(I) / _den_1x2(2))
        + c_xi(at_point=True).restrict_sphere().scale(_g(0, -4) * xi_var(4) / _den_1x2(3))
    ),
)
def _slot_5_27(ctx):
    return _stage(ctx, "b").f2


def _p0_full() -> CliffordExpr:
    return (sigma0_dirac_lc() + torsion_u() + torsion_v()).map_coeffs(
        lambda c: c.subst_shx_one()
    )


def _first_item_sandwich() -> CliffordExpr:
    """(c(xi)sigma_0(D_T)c(xi) + c(xi)c(dx_n) d_x_n c(xi'))/(1+xi_n^2)^2 at |xi'| = 1."""
    cxi = c_xi(at_point=True).restrict_sphere()
    dc = c_xi_prime(at_point=True).scale(_h1() / 2)
    inner = cxi * _p0_full() * cxi + cxi * c_dxn() * dc
    return inner.scale(S_ONE / _den_1x2(2))


def _ref_5_31() -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_h1() / 2)
    p0 = _p0_full()
    i_s = ScalarExpr.const(I)
    return (
        (cxip * p0 * cxip).scale(i_s)
        + (c_dxn() * c_dxn().scale(_g(-3, 0) / 4 * _h1()) * c_dxn()).scale(i_s)
        + (cxip * c_dxn() * dc).scale(i_s)
    )


def _ref_5_32() -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_h1() / 2)
    p0 = _p0_full()
    mix = cxip + c_dxn().scale(ScalarExpr.const(I))
    return mix * p0 * mix + cxip * c_dxn() * dc - dc.scale(ScalarExpr.const(I))


@_slot(
    "eq_5_30", "T5.4", "b",
    "pi+[(c(xi)sigma_0(D_T)c(xi)+c(xi)c(dx_n)d_x_n c(xi'))/(1+xi_n^2)^2] "
    "= -A_1/(4(xi_n-i)) - A_2/(4(xi_n-i)^2) + A_3/(4(xi_n-i)^2)",
    lambda: (
        _ref_5_31().scale(-S_ONE / (ScalarExpr.const(4) * _lin_minus()))
        + _ref_5_32().scale(-S_ONE / (ScalarExpr.const(4) * _lin_minus(2)))
    ),
)
def _slot_5_30(ctx):
    return pi_plus(_first_item_sandwich())


@_slot(
    "eq_5_31", "T5.4", "b",
    "A_1 = ic(xi')p_0c(xi')+ic(dx_n)(-3/4 h'(0)c(dx_n))c(dx_n)+ic(xi')c(dx_n)d_x_n c(xi')",
    _ref_5_31,
)
def _slot_5_31(ctx):
    from .halfplane import partial_fractions

    pf = partial_fractions(_first_item_sandwich())
    return pf.plus.get(1, CliffordExpr()).scale(ScalarExpr.const(-4))


@_slot(
    "eq_5_32", "T5.4", "b",
    "A_2 = [c(xi')+ic(dx_n)]p_0[c(xi')+ic(dx_n)]+c(xi')c(dx_n)d_x_nc(xi')-i d_x_n[c(xi')]",
    _ref_5_32,
)
def _slot_5_32(ctx):
    from .halfplane import partial_fractions

    pf = partial_fractions(_first_item_sandwich())
    return pf.plus.get(2, CliffordExpr()).scale(ScalarExpr.const(-4))


def _ref_5_33() -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    uv = torsion_u() + torsion_v()
    i_s = ScalarExpr.const(I)
    xin = xi_var(4)
    tang = (
        cxip * uv * cxip
    ).scale(_g(-2, 0) - i_s * xin) + (
        c_dxn() * uv * cxip + cxip * uv * c_dxn()
    ).scale(-i_s) + (c_dxn() * uv * c_dxn()).scale(-i_s * xin)
    norm = (
        (cxip * uv * cxip).scale(-i_s * xin)
        + (c_dxn() * uv * cxip + cxip * uv * c_dxn()).scale(-i_s)
        + c_dxn() * uv * c_dxn()
    )
    return tang.scale(_qt()) + norm.scale(_xy_normal())


@_slot(
    "eq_5_33", "T5.4", "b",
    "A_3 = Sum X_jY_l xi_j xi_l ((-2-i xi_n)c(xi')(u+v)c(xi')-ic(dx_n)(u+v)c(xi')"
    "-ic(xi')(u+v)c(dx_n)-i xi_n c(dx_n)(u+v)c(dx_n)) + X_nY_n (...)",
    _ref_5_33,
)
def _slot_5_33(ctx):
    from .halfplane import partial_fractions

    cxi = c_xi(at_point=True).restrict_sphere()
    uv = torsion_u() + torsion_v()
    sandwich = (cxi * uv * cxi).scale(q_bilinear().restrict_sphere() / _den_1x2(2))
    pf = partial_fractions(sandwich)
    return pf.plus.get(2, CliffordExpr()).scale(ScalarExpr.const(4))


@_slot(
    "eq_5_34", "T5.4", "b",
    "pi+[c(xi)c(dx_n)c(xi)/(1+xi_n)^3] = 1/2[c(dx_n)/(4i(xi_n-i)) "
    "+ (c(dx_n)-ic(xi'))/(8(xi_n-i)^2) + (3xi_n-7i)/(8(xi_n-i)^3)(ic(xi')-c(dx_n))]",
    lambda: (
        c_dxn().scale(S_ONE / (_g(0, 4) * _lin_minus()))
        + (c_dxn() - c_xi_prime(at_point=True).scale(ScalarExpr.const(I))).scale(
            S_ONE / (ScalarExpr.const(8) * _lin_minus(2))
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            (ScalarExpr.const(3) * xi_var(4) - _g(0, 7)) / (ScalarExpr.const(8) * _lin_minus(3))
        )
    ).scale(S_ONE / 2),
)
def _slot_5_34(ctx):
    cxi = c_xi(at_point=True).restrict_sphere()
    return pi_plus((cxi * c_dxn() * cxi).scale(S_ONE / _den_1x2(3)))


def _ref_5_35() -> CliffordExpr:
    xin = xi_var(4)

    def t_contract(prefix: str) -> ScalarExpr:
        out = S_ZERO
        for i_ in (1, 2, 3):
            coeff = S_ZERO
            for a in range(1, 5):
                coeff = coeff + sym(f"{prefix}{a}") * atom_T(a, i_, 4)
            out = out + coeff * xi_var(i_)
        return out

    y_dot = S_ZERO
    x_dot = S_ZERO
    for j in (1, 2, 3):
        y_dot = y_dot + sym(f"Y{j}") * xi_var(j)
        x_dot = x_dot + sym(f"X{j}") * xi_var(j)
    k1 = _g(0, 2) * xin / (_lin_minus() * _den_1x2(3))
    k2 = (ScalarExpr.const(3) * xin ** 2 - S_ONE) / (ScalarExpr.const(2) * _lin_minus() * _den_1x2(3))
    k3 = (ScalarExpr.const(3) * xin ** 2 - S_ONE) / (_lin_minus() * _den_1x2(3))
    return CliffordExpr.scalar(
        y_dot * k1 * t_contract("X")
        - y_dot * k2 * t_contract("X")
        + x_dot * k1 * t_contract("Y")
        - y_dot * k3 * t_contract("Y")
    )


@_slot(
    "eq_5_35", "T5.4", "b",
    "Sum Y_j xi_j 2i xi_n/((xi_n-i)(1+xi_n^2)^3) Sum T(X,e_i,e_n)xi_i - ... "
    "(torsion-contraction trace block)",
    _ref_5_35,
)
def _slot_5_35(ctx):
    from .symbols import torsion_two_form

    i_s = ScalarExpr.const(I)
    tangential_x = S_ZERO
    tangential_y = S_ZERO
    for j in (1, 2, 3):
        tangential_y = tangential_y + sym(f"Y{j}") * xi_var(j)
        tangential_x = tangential_x + sym(f"X{j}") * xi_var(j)
    tbar_x = torsion_two_form("X").map_coeffs(lambda c: c.subst_shx_one())
    tbar_y = torsion_two_form("Y").map_coeffs(lambda c: c.subst_shx_one())
    sigma_m1 = builtin_symbol("D_T^-1").component(-1).value.restrict_sphere()
    first = (tbar_x.scale(i_s * tangential_y) + tbar_y.scale(i_s * tangential_x)) * sigma_m1
    projected = pi_plus(first.restrict_sphere())
    return CliffordExpr.scalar(cl_trace_product(projected, _stage(ctx, "b").f2))


def _sigma_m4_nontorsion_ref() -> CliffordExpr:
    xin = xi_var(4)
    h1 = _h1()
    i_s = ScalarExpr.const(I)
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(h1 / 2)
    one = S_ONE
    bracket = (
        cxip.scale((_g(11, 0) / 2 * xin * (one + xin ** 2) + _g(0, 8) * xin) * h1)
        + c_dxn().scale(
            (
                _g(0, -2)
                + _g(0, 6) * xin ** 2
                - _g(7, 0) / 4 * (one + xin ** 2)
                + _g(15, 0) / 4 * xin ** 2 * (one + xin ** 2)
            )
            * h1
        )
        + dc.scale(_g(0, -3) * xin * (one + xin ** 2))
        + (c_xi_prime(at_point=True) * c_dxn() * dc).scale(i_s * (one + xin ** 2))
    )
    return bracket.scale(S_ONE / _den_1x2(4))


@_slot(
    "eq_5_45", "T5.4", "c",
    "sigma_-4|_{|xi'|=1} = 1/(xi_n^2+1)^4[(11/2 xi_n(1+xi_n^2)+8i xi_n)h'(0)c(xi') "
    "+ (-2i+6i xi_n^2-7/4(1+xi_n^2)+15/4 xi_n^2(1+xi_n^2))h'(0)c(dx_n) "
    "- 3i xi_n(1+xi_n^2) d_x_n c(xi') + i(1+xi_n^2)c(xi')c(dx_n)d_x_n c(xi')] "
    "+ c(xi)(3u-v)|xi|^2 c(xi)/|xi|^8",
    lambda: _sigma_m4_nontorsion_ref()
    + (
        c_xi(at_point=True).restrict_sphere()
        * (torsion_u().scale(ScalarExpr.const(3)) - torsion_v())
        * c_xi(at_point=True).restrict_sphere()
    ).scale(S_ONE / _den_1x2(3)),
)
def _slot_5_45(ctx):
    return _stage(ctx, "c").f2_base


@_slot(
    "eq_5_46", "T5.4", "c",
    "partial_xi_n pi+ sigma_1 = (c(xi')+ic(dx_n))/(2(xi_n-i)^2) Sum' X_jY_l xi_j xi_l "
    "- (c(xi')+ic(dx_n))/(2(xi_n-i)^2) X_nY_n + (ic(xi')-c(dx_n))/(2(xi_n-i)^2)(mixed, full sums)",
    lambda: (
        (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
            (_qt() - _xy_normal()) / (ScalarExpr.const(2) * _lin_minus(2))
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            (_mixed_xj_yn() + _mixed_xn_yl() + ScalarExpr.const(2) * _xy_normal() * xi_var(4))
            / (ScalarExpr.const(2) * _lin_minus(2))
        )
    ),
)
def _slot_5_46(ctx):
    return _projected_leading_f1(ctx).differentiate("xin")


@_slot(
    "eq_5_47", "T5.4", "c",
    "tr[c(xi')c(xi')c(dx_n)d_x_n c(xi')]=0 ; tr[c(dx_n)c(xi')c(dx_n)d_x_n c(xi')]=-2h'(0)",
    lambda: CliffordExpr.scalar(_g(-2, 0) * _h1()),
)
def _slot_5_47(ctx):
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_h1() / 2)
    first = cl_trace_product(cxip * cxip * c_dxn(), dc).restrict_sphere()
    if not first.is_zero():
        from .scalars import EngineError

        raise EngineError("first trace of the frame-derivative pair is nonzero")
    second = cl_trace_product(c_dxn() * cxip * c_dxn(), dc).restrict_sphere()
    return CliffordExpr.scalar(second)


def _ref_5_48() -> CliffordExpr:
    xin = xi_var(4)
    h1 = _h1()
    tang_num = (
        _g(7, 6)
        - (_g(20, -15)) * xin
        - (_g(7, -6)) * xin ** 2
        + _g(0, 15) * xin ** 3
    )
    norm_num = (
        _g(0, 3) * xin * (S_ONE - xin ** 2)
        - _g(11, 0) * xin * (S_ONE - xin ** 2)
        - _g(0, 16) * xin
        + (_g(13, 0) + _g(0, 7) / 2) * (S_ONE + xin ** 2)
        - _g(16, 0)
        - _g(15, 0) / 2 * xin ** 2 * (S_ONE + xin ** 2)
    )
    return CliffordExpr.scalar(
        _qt() * h1 * tang_num / (_lin_minus(5) * _lin_plus(4))
        + _xy_normal() * norm_num / (_lin_minus(2) * _lin_plus(4))
    )


@_slot(
    "eq_5_48", "T5.4", "c",
    "tr[partial_xi_n pi+ sigma_1 x (non-torsion sigma_-4 block)] = "
    "Sum X_jY_l xi_j xi_l h'(0)(7+6i-(20-15i)xi_n-(7-6i)xi_n^2+15i xi_n^3)/"
    "((xi_n-i)^5(xi_n+i)^4) + X_nY_n (...)/((xi_n-i)^2(xi_n+i)^4)",
    _ref_5_48,
)
def _slot_5_48(ctx):
    projected = _projected_leading_f1(ctx).differentiate("xin")
    return CliffordExpr.scalar(
        cl_trace_product(projected, _sigma_m4_nontorsion_ref())
    )


def _ref_5_49() -> CliffordExpr:
    coeff = _g(0, -3) / 8 * _pi()
    total = S_ZERO
    for i_ in range(1, 5):
        total = total + atom_A(i_, i_, 4)
    return CliffordExpr.scalar((_qt() + _xy_normal()) * coeff * total)


@_slot(
    "eq_5_49", "T5.4", "c",
    "tr(partial_xi_n pi+ sigma_1 x c(xi)(3u-v)|xi|^2 c(xi)/|xi|^8) = "
    "(Sum X_jY_l xi_j xi_l + X_nY_n)(-3i pi/8) Sum A_iin",
    _ref_5_49,
)
def _slot_5_49(ctx):
    projected = _projected_leading_f1(ctx).differentiate("xin")
    cxi = c_xi(at_point=True).restrict_sphere()
    torsion_block = (
        cxi * (torsion_u().scale(ScalarExpr.const(3)) - torsion_v()) * cxi
    ).scale(S_ONE / _den_1x2(3))
    return CliffordExpr.scalar(cl_trace_product(projected, torsion_block))


def slots_for(theorem: str) -> List[SlotEntry]:
    return [s for s in SLOTS if s.theorem == theorem]
