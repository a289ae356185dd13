"""Printed intermediates: engine slot computations paired with reconstructions.

The paper's printed results, the coefficient tables that the report rows
are checked against, live in `printed`.  This module holds the slots: each pairs a printed display with
the engine computation that reproduces it, so each case's step trail can
carry match/mismatch verdicts for every printed intermediate.  A slot is a
table row: a printed builder and the stage the engine value reads, a field
of one case's stage chain with pi+ and xin derivatives applied in order.
Nine rows finish that value, or build it without a read, by a `then` that
sees only the read value.  Every torsion family is present here; a torsion
switch acts on the report's fields.  The rows
read the case stages of `pipeline`, so `report` loads this module on the
first boundary theorem of a run.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, List, Optional, Tuple

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    ScalarExpr,
    S_ONE,
    atom_T,
    den_1x2,
    lin_minus,
    lin_plus,
    scalar_sum,
    sym,
)
from .clifford import CliffordExpr, cl_trace_product, clifford_sum
from .halfplane import pi_plus, principal_part
from .pipeline import BOUNDARY_THEOREMS, AxisStages, case_stages, case_trace_integrand, find_case
from .printed import XN_YN, _g, _H1, _SUM_A
# read from this module by perfbench (tracer.py times reference_value here)
from .printed import REFERENCES, reference_value  # noqa: F401
from .symbols import (
    _at_point_value,
    builtin_symbol,
    c_dxn,
    c_gen,
    c_xi,
    c_xi_prime,
    q_bilinear,
    sigma0_dirac_lc,
    torsion_two_form,
    torsion_u,
    torsion_v,
    xi_var,
)


def _tangential_dot(prefix: str) -> ScalarExpr:
    """Sum_{j<n} V_j xi_j for the vector V named by `prefix` (X or Y)."""
    return scalar_sum(sym(f"{prefix}{j}") * xi_var(j) for j in (1, 2, 3))


def _mixed_xj_yn() -> ScalarExpr:
    return _tangential_dot("X") * sym("Y4")


def _mixed_xn_yl() -> ScalarExpr:
    return sym("X4") * _tangential_dot("Y")


def _qt() -> ScalarExpr:
    return _tangential_dot("X") * _tangential_dot("Y")


@cache
def _cxi_sphere() -> CliffordExpr:
    """c(xi) at x0, restricted to the co-sphere |xi'| = 1."""
    return c_xi(at_point=True).restrict_sphere()


# ---------------------------------------------------------------------------
# Printed intermediates: engine slot computations paired with reconstructions
# ---------------------------------------------------------------------------

class SlotEntry:
    """A printed intermediate: its printed builder `build_ref()` and the
    engine builder `build_engine(ctx)`, which receives the TheoremContext.
    `case_id` is the case whose row carries the slot; `reads` is the case
    whose stage chain `build_engine` reads, or None when it reads none."""

    __slots__ = ("slot_id", "theorem", "case_id", "quote", "build_ref", "build_engine", "reads")

    def __init__(self, slot_id: str, theorem: str, case_id: str, quote: str,
                 build_ref: Callable[[], object], build_engine: Callable[[object], object],
                 reads: Optional[str]):
        self.slot_id, self.theorem, self.case_id, self.quote = slot_id, theorem, case_id, quote
        self.build_ref, self.build_engine, self.reads = build_ref, build_engine, reads


SLOTS: List[SlotEntry] = []

# the operations a stage read may apply to the field it reads, in order
_OPS = {"pi+": pi_plus, "d_xin": lambda value: value.differentiate("xin")}


def _engine_value(read: Optional[Tuple[str, ...]], then, ctx) -> object:
    """A row's engine value on `ctx`: its stage read, if any, then its
    `then` on the read value (None without a read)."""
    value = None if read is None else _read_value(ctx, read)
    return value if then is None else then(value)


def _read_value(ctx, read: Tuple[str, ...]) -> object:
    """The value of a stage read (case, field, *ops) on `ctx`, kept under
    its case in `ctx.reads` with each of its prefixes, so rows that share a
    prefix apply its ops once per context."""
    kept = ctx.reads.setdefault(read[0], {})
    if read not in kept:
        case_id, field, *ops = read
        if ops:
            value = _OPS[ops[-1]](_read_value(ctx, read[:-1]))
        elif field == "traced":
            value = case_trace_integrand(ctx, case_id)
        else:  # the cases read here take no tangential derivative: one pass
            (stage,) = case_stages(ctx, find_case(ctx, case_id))
            value = getattr(stage, field)
        kept[read] = value
    return kept[read]


def _slot(slot_id: str, theorem: str, case_id: str, quote: str, build_ref,
          read: Optional[Tuple[str, ...]] = None,
          then: Optional[Callable[[object], object]] = None) -> None:
    """Add a row to SLOTS.  `read` is (case, field, *ops): a case of the
    theorem, a field of its `AxisStages` ("traced" is the case's summed
    trace, `case_trace_integrand`), and "pi+" and "d_xin" applied in order.
    `then(value)` finishes the engine value from the read value alone.  A
    malformed row raises here, at import."""
    if read is None and then is None:
        raise EngineError(f"slot {slot_id} reads no stage and has no then")
    if read is not None:
        case, field, *ops = read
        if case not in BOUNDARY_THEOREMS[theorem].case_ids():
            raise EngineError(f"slot {slot_id} reads {case!r}, which is no case of {theorem}")
        if field not in AxisStages._fields:
            raise EngineError(f"slot {slot_id} reads {field!r}, which is no stage field")
        if not set(ops) <= _OPS.keys():
            raise EngineError(f"slot {slot_id} applies {ops}, not only pi+ and d_xin")
    SLOTS.append(SlotEntry(slot_id, theorem, case_id, quote, build_ref,
                           partial(_engine_value, read, then), None if read is None else read[0]))


# ---- first pipeline intermediates ----
# ("a3", "f1_base", "pi+") is pi+ of the restricted leading symbol of F1:
# the a3 case takes no x-side derivative of it (j = |alpha| = 0)

_slot(
    "eq_4_27", "T4.6", "a2",
    "partial_xi_n^2 sigma_-2((D_T^*D_T)^{-1}) = (6xi_n^2-2)/(1+xi_n^2)^3",
    lambda: CliffordExpr.scalar((ScalarExpr.const(6) * xi_var(4) ** 2 - ScalarExpr.const(2)) / den_1x2(3)),
    read=("a2", "f2"),
)

_slot(
    "eq_4_29", "T4.6", "a2",
    "partial_x_n sigma_0 = Sum X_jY_l xi_j xi_l h'(0)|xi'|^2/(1+xi_n^2)^2",
    lambda: CliffordExpr.scalar(
        (q_bilinear().restrict_sphere()) * _H1 / den_1x2(2)
    ),
    read=("a2", "f1"),
)

_slot(
    "eq_4_31", "T4.6", "a2",
    "pi+ d_x_n sigma_0 = -i xi_n/(4(xi_n-i)^2) Sum' X_jY_l xi_j xi_l h'(0) "
    "+ (2-i xi_n)/(4(xi_n-i)^2) X_nY_nh'(0) - i/(4(xi_n-i)^2)(mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(GRat(0, -1)) * xi_var(4) / (ScalarExpr.const(4) * lin_minus(2)) * _qt() * _H1
        + (ScalarExpr.const(2) - ScalarExpr.const(I) * xi_var(4))
        / (ScalarExpr.const(4) * lin_minus(2)) * XN_YN * _H1
        - ScalarExpr.const(I) / (ScalarExpr.const(4) * lin_minus(2)) * _mixed_xj_yn()
        - ScalarExpr.const(I) / (ScalarExpr.const(4) * lin_minus(2)) * _mixed_xn_yl()
    ),
    read=("a2", "f1", "pi+"),
)

_slot(
    "eq_4_34", "T4.6", "a3",
    "partial_x_n sigma_-2((D_T^*D_T)^{-1})|_{|xi'|=1} = -h'(0)/(1+xi_n^2)^2",
    lambda: CliffordExpr.scalar(-_H1 / den_1x2(2)),
    read=("a3", "f2_base"),
)

_slot(
    "eq_4_35", "T4.6", "a2",
    "2(1+xi_n i-3xi_n^3 i-i)/((xi_n-i)^5(xi_n+i)^3) (tangential and normal blocks) "
    "+ 2(1-3xi_n^2)i/(...)(mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(2)
        * (S_ONE + ScalarExpr.const(I) * xi_var(4) - ScalarExpr.const(GRat(0, 3)) * xi_var(4) ** 3 - ScalarExpr.const(I))
        / (lin_minus(5) * lin_plus(3)) * (_qt() * _H1 + XN_YN * _H1)
        + ScalarExpr.const(2) * (S_ONE - ScalarExpr.const(3) * xi_var(4) ** 2) * ScalarExpr.const(I)
        / (lin_minus(5) * lin_plus(3)) * (_mixed_xj_yn() + _mixed_xn_yl())
    ),
    read=("a2", "traced"),
)

_slot(
    "eq_4_36", "T4.6", "a3",
    "pi+ sigma_0 = i/(2(xi_n-i)) Sum X_jY_l xi_j xi_l - 1/(2(xi_n-i)) X_nY_n "
    "- 1/(2(xi_n-i)) (mixed sums)",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(I) / (ScalarExpr.const(2) * lin_minus()) * _qt()
        - S_ONE / (ScalarExpr.const(2) * lin_minus()) * XN_YN
        - S_ONE / (ScalarExpr.const(2) * lin_minus()) * (_mixed_xj_yn() + _mixed_xn_yl())
    ),
    read=("a3", "f1_base", "pi+"),
)

_slot(
    "eq_4_37", "T4.6", "a3",
    "partial_xi_n^2 pi+ sigma_0 = i/(xi_n-i)^3 Sum' X_jY_l xi_j xi_l - 1/(xi_n-i)^3 X_nY_n",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(I) / lin_minus(3) * _qt() - S_ONE / lin_minus(3) * XN_YN
    ),
    read=("a3", "f1_base", "pi+", "d_xin", "d_xin"),
)

_slot(
    "eq_4_38", "T4.6", "a3",
    "=-4 h'(0)i/((xi_n-i)^5(xi_n+i)^2) Sum X_jY_l xi_j xi_l "
    "+ 4h'(0)/((xi_n-i)^5(xi_n+i)^2) X_nY_n",
    lambda: CliffordExpr.scalar(
        ScalarExpr.const(GRat(0, -4)) * _H1 / (lin_minus(5) * lin_plus(2)) * _qt()
        + ScalarExpr.const(4) * _H1 / (lin_minus(5) * lin_plus(2)) * XN_YN
    ),
    read=("a3", "traced"),
)


def _sigma_m3_ref_printed() -> CliffordExpr:
    h1 = _H1
    xin = xi_var(4)
    m_cliff = clifford_sum((c_gen(k) * c_gen(4)).scale(xin) for k in (1, 2, 3))
    u = torsion_u()
    v = torsion_v()
    cxi = _cxi_sphere()
    bracket = CliffordExpr.scalar(_g(5, 0) / 2 * h1 * xin) - m_cliff.scale(h1 / 2)
    term1 = bracket.scale(ScalarExpr.const(-I) / den_1x2(2))
    term2 = CliffordExpr.scalar(_g(0, -2) * h1 * xin / den_1x2(3))
    term3 = ((u - v).scale(ScalarExpr.const(I)) * cxi + cxi.scale(ScalarExpr.const(I)) * (u + v)).scale(
        -S_ONE / den_1x2(2)
    )
    return clifford_sum((term1, term2, term3))


_slot(
    "eq_4_41", "T4.6", "b",
    "sigma_-3((D_T^*D_T)^{-1})|_{|xi'|=1} = -i/(1+xi_n^2)^2(-1/2 h'(0) "
    "Sum_{k<n} xi_n c(e_k)c(e_n) + 5/2 h'(0)xi_n) - 2ih'(0)xi_n/(1+xi_n^2)^3 "
    "- ((u-v)i c(xi)+i c(xi)(u+v))|xi|^{-4}",
    _sigma_m3_ref_printed,
    read=("b", "f2_base"),
)

_slot(
    "eq_4_43", "T4.6", "b",
    "=-h'(0)(5xi_n^2-5+4xi_n)/((xi_n-i)^5(xi_n+i)^3) Sum X_jY_l xi_j xi_l "
    "+ h'(0)i(5xi_n^3-xi_n)/((xi_n-i)^5(xi_n+i)^3) X_nY_n",
    lambda: CliffordExpr.scalar(
        -_H1
        * (ScalarExpr.const(5) * xi_var(4) ** 2 - ScalarExpr.const(5) + ScalarExpr.const(4) * xi_var(4))
        / (lin_minus(5) * lin_plus(3)) * _qt()
        + _H1 * ScalarExpr.const(I)
        * (ScalarExpr.const(5) * xi_var(4) ** 3 - xi_var(4))
        / (lin_minus(5) * lin_plus(3)) * XN_YN
    ),
    read=("b", "traced"),
)


# ---- second pipeline intermediates ----

_slot(
    "eq_5_15", "T5.4", "a2",
    "partial_xi_n^2 sigma_-3 = i[(20xi_n^2-4)c(xi')+12(xi_n^3-xi_n)c(dx_n)]/(1+xi_n^2)^4",
    lambda: (
        c_xi_prime(at_point=True).scale(
            ScalarExpr.const(I) * (ScalarExpr.const(20) * xi_var(4) ** 2 - ScalarExpr.const(4)) / den_1x2(4)
        )
        + c_dxn().scale(
            ScalarExpr.const(GRat(0, 12)) * (xi_var(4) ** 3 - xi_var(4)) / den_1x2(4)
        )
    ),
    read=("a2", "f2"),
)

_slot(
    "eq_5_16", "T5.4", "a2",
    "partial_x_n sigma_1 = Sum X_jY_l xi_j xi_l [d_x_n c(xi')/(1+xi_n^2) "
    "+ c(xi)h'(0)|xi'|^2/(1+xi_n^2)^2]",
    lambda: (
        c_xi_prime(at_point=True).scale(
            q_bilinear().restrict_sphere() * _H1 / 2 / den_1x2(1)
        )
        + _cxi_sphere().scale(
            q_bilinear().restrict_sphere() * _H1 / den_1x2(2)
        )
    ),
    read=("a2", "f1"),
)

_slot(
    "eq_5_21", "T5.4", "a3",
    "partial_x_n sigma_-3|_{|xi'|=1} = i d_x_n[c(xi')]/(1+xi_n^2)^4 "
    "- 2i h'(0)c(xi)|xi'|^2/(1+xi_n^2)^6",
    lambda: (
        c_xi_prime(at_point=True).scale(ScalarExpr.const(I) * _H1 / 2 / den_1x2(4))
        + _cxi_sphere().scale(_g(0, -2) * _H1 / den_1x2(6))
    ),
    read=("a3", "f2_base"),
)

_slot(
    "eq_5_22", "T5.4", "a3",
    "pi+ sigma_1 = -(c(xi')+ic(dx_n))/(2(xi_n-i)) Sum' X_jY_l xi_j xi_l "
    "-(c(xi')+ic(dx_n))/(2(xi_n-i)) X_nY_n - (ic(xi')-c(dx_n))/(2(xi_n-i)) (mixed)",
    lambda: (
        (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
            -(_qt() + XN_YN) / (ScalarExpr.const(2) * lin_minus())
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            -(_mixed_xj_yn() + _mixed_xn_yl()) / (ScalarExpr.const(2) * lin_minus())
        )
    ),
    read=("a3", "f1_base", "pi+"),
)

_slot(
    "eq_5_23", "T5.4", "a3",
    "partial_xi_n^2 pi+ sigma_1 = -(c(xi')+ic(dx_n))/(xi_n-i)^3 (Sum' X_jY_l xi_j xi_l + X_nY_n)",
    lambda: (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
        -(_qt() + XN_YN) / lin_minus(3)
    ),
    read=("a3", "f1_base", "pi+", "d_xin", "d_xin"),
)

_slot(
    "eq_5_24", "T5.4", "a3",
    "=-2h'(0)/((xi_n-i)^5(xi_n+i)^2)(Sum X_jY_l xi_j xi_l + X_nY_n)",
    lambda: CliffordExpr.scalar(
        _g(-2, 0) * _H1 / (lin_minus(5) * lin_plus(2)) * (_qt() + XN_YN)
    ),
    read=("a3", "traced"),
)

_slot(
    "eq_5_27", "T5.4", "b",
    "partial_xi_n sigma_-3|_{|xi'|=1} = i c(dx_n)/(1+xi_n^2)^2 - 4i xi_n c(xi)/(1+xi_n^2)^3",
    lambda: (
        c_dxn().scale(ScalarExpr.const(I) / den_1x2(2))
        + _cxi_sphere().scale(_g(0, -4) * xi_var(4) / den_1x2(3))
    ),
    read=("b", "f2"),
)


@cache
def _p0_full() -> CliffordExpr:
    return _at_point_value(sigma0_dirac_lc() + torsion_u() + torsion_v())


@cache
def _first_item_sandwich() -> CliffordExpr:
    """(c(xi)sigma_0(D_T)c(xi) + c(xi)c(dx_n) d_x_n c(xi'))/(1+xi_n^2)^2 at |xi'| = 1."""
    cxi = _cxi_sphere()
    dc = c_xi_prime(at_point=True).scale(_H1 / 2)
    inner = cxi * _p0_full() * cxi + cxi * c_dxn() * dc
    return inner.scale(S_ONE / den_1x2(2))


@cache
def _ref_5_31() -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_H1 / 2)
    p0 = _p0_full()
    i_s = ScalarExpr.const(I)
    return (
        (cxip * p0 * cxip).scale(i_s)
        + (c_dxn() * c_dxn().scale(_g(-3, 0) / 4 * _H1) * c_dxn()).scale(i_s)
        + (cxip * c_dxn() * dc).scale(i_s)
    )


@cache
def _ref_5_32() -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_H1 / 2)
    p0 = _p0_full()
    mix = cxip + c_dxn().scale(ScalarExpr.const(I))
    return mix * p0 * mix + cxip * c_dxn() * dc - dc.scale(ScalarExpr.const(I))


def _sandwich_principal_part(order: int, _) -> CliffordExpr:
    """-4 times the principal part of order `order` at xin = i of the sandwich."""
    return principal_part(_first_item_sandwich(), order).scale(ScalarExpr.const(-4))


_slot(
    "eq_5_30", "T5.4", "b",
    "pi+[(c(xi)sigma_0(D_T)c(xi)+c(xi)c(dx_n)d_x_n c(xi'))/(1+xi_n^2)^2] "
    "= -A_1/(4(xi_n-i)) - A_2/(4(xi_n-i)^2) + A_3/(4(xi_n-i)^2)",
    lambda: (
        _ref_5_31().scale(-S_ONE / (ScalarExpr.const(4) * lin_minus()))
        + _ref_5_32().scale(-S_ONE / (ScalarExpr.const(4) * lin_minus(2)))
    ),
    then=lambda _: pi_plus(_first_item_sandwich()),
)

_slot(
    "eq_5_31", "T5.4", "b",
    "A_1 = ic(xi')p_0c(xi')+ic(dx_n)(-3/4 h'(0)c(dx_n))c(dx_n)+ic(xi')c(dx_n)d_x_n c(xi')",
    _ref_5_31,
    then=partial(_sandwich_principal_part, 1),
)

_slot(
    "eq_5_32", "T5.4", "b",
    "A_2 = [c(xi')+ic(dx_n)]p_0[c(xi')+ic(dx_n)]+c(xi')c(dx_n)d_x_nc(xi')-i d_x_n[c(xi')]",
    _ref_5_32,
    then=partial(_sandwich_principal_part, 2),
)


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
    return tang.scale(_qt()) + norm.scale(XN_YN)


def _torsion_sandwich_principal_part(_) -> CliffordExpr:
    cxi = _cxi_sphere()
    uv = torsion_u() + torsion_v()
    sandwich = (cxi * uv * cxi).scale(q_bilinear().restrict_sphere() / den_1x2(2))
    return principal_part(sandwich, 2).scale(ScalarExpr.const(4))


def _projected_dxn_sandwich(_) -> CliffordExpr:
    cxi = _cxi_sphere()
    return pi_plus((cxi * c_dxn() * cxi).scale(S_ONE / den_1x2(3)))


_slot(
    "eq_5_33", "T5.4", "b",
    "A_3 = Sum X_jY_l xi_j xi_l ((-2-i xi_n)c(xi')(u+v)c(xi')-ic(dx_n)(u+v)c(xi')"
    "-ic(xi')(u+v)c(dx_n)-i xi_n c(dx_n)(u+v)c(dx_n)) + X_nY_n (...)",
    _ref_5_33,
    then=_torsion_sandwich_principal_part,
)

_slot(
    "eq_5_34", "T5.4", "b",
    "pi+[c(xi)c(dx_n)c(xi)/(1+xi_n)^3] = 1/2[c(dx_n)/(4i(xi_n-i)) "
    "+ (c(dx_n)-ic(xi'))/(8(xi_n-i)^2) + (3xi_n-7i)/(8(xi_n-i)^3)(ic(xi')-c(dx_n))]",
    lambda: (
        c_dxn().scale(S_ONE / (_g(0, 4) * lin_minus()))
        + (c_dxn() - c_xi_prime(at_point=True).scale(ScalarExpr.const(I))).scale(
            S_ONE / (ScalarExpr.const(8) * lin_minus(2))
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            (ScalarExpr.const(3) * xi_var(4) - _g(0, 7)) / (ScalarExpr.const(8) * lin_minus(3))
        )
    ).scale(S_ONE / 2),
    then=_projected_dxn_sandwich,
)


def _ref_5_35() -> CliffordExpr:
    xin = xi_var(4)

    def t_contract(prefix: str) -> ScalarExpr:
        return scalar_sum(sym(f"{prefix}{a}") * atom_T(a, i_, 4) * xi_var(i_)
                          for i_ in (1, 2, 3) for a in range(1, 5))

    y_dot = _tangential_dot("Y")
    x_dot = _tangential_dot("X")
    k1 = _g(0, 2) * xin / (lin_minus() * den_1x2(3))
    k2 = (ScalarExpr.const(3) * xin ** 2 - S_ONE) / (ScalarExpr.const(2) * lin_minus() * den_1x2(3))
    k3 = (ScalarExpr.const(3) * xin ** 2 - S_ONE) / (lin_minus() * den_1x2(3))
    tx, ty = t_contract("X"), t_contract("Y")
    return CliffordExpr.scalar(scalar_sum((y_dot * k1 * tx, x_dot * k1 * ty),
                                          (y_dot * k2 * tx, y_dot * k3 * ty)))


def _torsion_trace_block(f2: CliffordExpr) -> CliffordExpr:
    """The trace of pi+ of the torsion two-form block of F1 against F2."""
    i_s = ScalarExpr.const(I)
    tbar_x = _at_point_value(torsion_two_form("X"))
    tbar_y = _at_point_value(torsion_two_form("Y"))
    sigma_m1 = builtin_symbol("D_T^-1", "printed").component(-1).value
    first = (tbar_x.scale(i_s * _tangential_dot("Y")) + tbar_y.scale(i_s * _tangential_dot("X"))) * sigma_m1
    return CliffordExpr.scalar(cl_trace_product(pi_plus(first.restrict_sphere()), f2))


_slot(
    "eq_5_35", "T5.4", "b",
    "Sum Y_j xi_j 2i xi_n/((xi_n-i)(1+xi_n^2)^3) Sum T(X,e_i,e_n)xi_i - ... "
    "(torsion-contraction trace block)",
    _ref_5_35,
    read=("b", "f2"),
    then=_torsion_trace_block,
)


def _sigma_m4_nontorsion_ref() -> CliffordExpr:
    xin = xi_var(4)
    h1 = _H1
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
    return bracket.scale(S_ONE / den_1x2(4))


_slot(
    "eq_5_45", "T5.4", "c",
    "sigma_-4|_{|xi'|=1} = 1/(xi_n^2+1)^4[(11/2 xi_n(1+xi_n^2)+8i xi_n)h'(0)c(xi') "
    "+ (-2i+6i xi_n^2-7/4(1+xi_n^2)+15/4 xi_n^2(1+xi_n^2))h'(0)c(dx_n) "
    "- 3i xi_n(1+xi_n^2) d_x_n c(xi') + i(1+xi_n^2)c(xi')c(dx_n)d_x_n c(xi')] "
    "+ c(xi)(3u-v)|xi|^2 c(xi)/|xi|^8",
    lambda: _sigma_m4_nontorsion_ref()
    + (
        _cxi_sphere()
        * (torsion_u().scale(ScalarExpr.const(3)) - torsion_v())
        * _cxi_sphere()
    ).scale(S_ONE / den_1x2(3)),
    read=("c", "f2_base"),
)

_slot(
    "eq_5_46", "T5.4", "c",
    "partial_xi_n pi+ sigma_1 = (c(xi')+ic(dx_n))/(2(xi_n-i)^2) Sum' X_jY_l xi_j xi_l "
    "- (c(xi')+ic(dx_n))/(2(xi_n-i)^2) X_nY_n + (ic(xi')-c(dx_n))/(2(xi_n-i)^2)(mixed, full sums)",
    lambda: (
        (c_xi_prime(at_point=True) + c_dxn().scale(ScalarExpr.const(I))).scale(
            (_qt() - XN_YN) / (ScalarExpr.const(2) * lin_minus(2))
        )
        + (c_xi_prime(at_point=True).scale(ScalarExpr.const(I)) - c_dxn()).scale(
            (_mixed_xj_yn() + _mixed_xn_yl() + ScalarExpr.const(2) * XN_YN * xi_var(4))
            / (ScalarExpr.const(2) * lin_minus(2))
        )
    ),
    read=("a3", "f1_base", "pi+", "d_xin"),
)

def _frame_derivative_traces(_) -> CliffordExpr:
    cxip = c_xi_prime(at_point=True)
    dc = cxip.scale(_H1 / 2)
    first = cl_trace_product(cxip * cxip * c_dxn(), dc).restrict_sphere()
    if not first.is_zero():
        raise EngineError("first trace of the frame-derivative pair is nonzero")
    second = cl_trace_product(c_dxn() * cxip * c_dxn(), dc).restrict_sphere()
    return CliffordExpr.scalar(second)


_slot(
    "eq_5_47", "T5.4", "c",
    "tr[c(xi')c(xi')c(dx_n)d_x_n c(xi')]=0 ; tr[c(dx_n)c(xi')c(dx_n)d_x_n c(xi')]=-2h'(0)",
    lambda: CliffordExpr.scalar(_g(-2, 0) * _H1),
    then=_frame_derivative_traces,
)


def _ref_5_48() -> CliffordExpr:
    xin = xi_var(4)
    h1 = _H1
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
        _qt() * h1 * tang_num / (lin_minus(5) * lin_plus(4))
        + XN_YN * norm_num / (lin_minus(2) * lin_plus(4))
    )


_slot(
    "eq_5_48", "T5.4", "c",
    "tr[partial_xi_n pi+ sigma_1 x (non-torsion sigma_-4 block)] = "
    "Sum X_jY_l xi_j xi_l h'(0)(7+6i-(20-15i)xi_n-(7-6i)xi_n^2+15i xi_n^3)/"
    "((xi_n-i)^5(xi_n+i)^4) + X_nY_n (...)/((xi_n-i)^2(xi_n+i)^4)",
    _ref_5_48,
    read=("a3", "f1_base", "pi+", "d_xin"),
    then=lambda value: CliffordExpr.scalar(cl_trace_product(value, _sigma_m4_nontorsion_ref())),
)


def _ref_5_49() -> CliffordExpr:
    coeff = _g(0, -3) / 8 * sym("pi")
    return CliffordExpr.scalar((_qt() + XN_YN) * coeff * _SUM_A)


def _trace_against_torsion_block(value: CliffordExpr) -> CliffordExpr:
    cxi = _cxi_sphere()
    torsion_block = (
        cxi * (torsion_u().scale(ScalarExpr.const(3)) - torsion_v()) * cxi
    ).scale(S_ONE / den_1x2(3))
    return CliffordExpr.scalar(cl_trace_product(value, torsion_block))


_slot(
    "eq_5_49", "T5.4", "c",
    "tr(partial_xi_n pi+ sigma_1 x c(xi)(3u-v)|xi|^2 c(xi)/|xi|^8) = "
    "(Sum X_jY_l xi_j xi_l + X_nY_n)(-3i pi/8) Sum A_iin",
    _ref_5_49,
    read=("a3", "f1_base", "pi+", "d_xin"),
    then=_trace_against_torsion_block,
)


def slots_for(theorem: str) -> List[SlotEntry]:
    return [s for s in SLOTS if s.theorem == theorem]
