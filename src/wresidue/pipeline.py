"""Boundary-term pipeline: case enumeration and end-to-end evaluation.

Each boundary case evaluates

    prefactor * Int_{|xi'|=1} Int_R Tr[ d_xn^j d_xi'^alpha d_xin^k pi+ sigma_r(F1)
                                        x d_x'^alpha d_xin^(j+1) d_xn^k sigma_l(F2) ]

with prefactor (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!), summed over the case
list determined by r + l - k - j - |alpha| = -(n-1) within the factors' order
bounds.  The x-side and tangential xi derivatives act on unrestricted
symbols; each factor is then restricted to |xi'| = 1 and its xin derivatives
act on the restricted value.  Restriction sets shx = 1 and reduces xi3^2, a
ring homomorphism that fixes xin, so it commutes with d/dxin.  The
half-plane projection follows, the xin integral closes upward through the
residue at +i, and tangential moments are exact with the sphere volume kept
symbolic.

Each case is evaluated by one path, `case_stages`: per tangential axis it
derives and restricts F2 and F1, projects and traces the pair, integrates
over xin and takes the sphere moment, and keeps every stage on the
`TheoremContext`, the restricted factors before their xin derivatives
included.  `compute_case_term`, `case_trace_integrand`, the
printed-intermediate slots and the sigma3 variant check all read those
records, so a context evaluates each case once.  Cases are independent pure
computations; reports merge in case order.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from .gaussian import GRat
from .scalars import (
    EngineError,
    REG,
    Poly,
    ScalarExpr,
    S_ZERO,
    mono_items,
    mono_pack,
    sym,
)
# apply_torsion_switches is read from this module by perfbench/tracer.py
from .clifford import CliffordExpr, apply_torsion_switches, cl_trace_product  # noqa: F401
from .halfplane import pi_plus_scalar
from .integration import integrate_xi_n, sphere_moment
from .printed import G_XT_YT, XN_DYN, XN_YN
from .symbols import (
    GradedSymbol,
    builtin_symbol,
    d_xi,
    d_xn,
    d_x_tangential,
)

N_DIM = 4

THEOREM_IDS = ("T4.6", "T5.4")


class CaseSpec(NamedTuple):
    theorem: str
    case_id: str
    r: int
    ell: int
    k: int
    j: int
    alpha: int

    def constraint_ok(self) -> bool:
        return self.r + self.ell - self.k - self.j - self.alpha == -(N_DIM - 1)


_CASE_TABLES: Dict[str, List[Tuple[str, int, int, int, int, int]]] = {
    # (case_id, r, ell, k, j, |alpha|)
    "T4.6": [
        ("a1", 0, -2, 0, 0, 1),
        ("a2", 0, -2, 0, 1, 0),
        ("a3", 0, -2, 1, 0, 0),
        ("b", 0, -3, 0, 0, 0),
        ("c", -1, -2, 0, 0, 0),
    ],
    "T5.4": [
        ("a1", 1, -3, 0, 0, 1),
        ("a2", 1, -3, 0, 1, 0),
        ("a3", 1, -3, 1, 0, 0),
        ("b", 0, -3, 0, 0, 0),
        ("c", 1, -4, 0, 0, 0),
    ],
}

_FACTOR_IDS: Dict[str, Tuple[str, str]] = {
    "T4.6": ("nablaXY(D_T*D_T)^-1", "(D_T*D_T)^-1"),
    "T5.4": ("nablaXY D_T^-1", "(D_T*D_TD_T*)^-1"),
}

_ORDER_BOUNDS: Dict[str, Tuple[Tuple[int, int], Tuple[int, int]]] = {
    # ((top_r, min_r), (top_l, min_l))
    "T4.6": ((0, -1), (-2, -3)),
    "T5.4": ((1, 0), (-3, -4)),
}


def brute_force_cases(theorem: str, depth: int = 6) -> List[Tuple[int, int, int, int, int]]:
    """Scan (r, l, k, j, |alpha|) within order bounds for the case constraint."""
    (top_r, _), (top_l, _) = _ORDER_BOUNDS[theorem]
    found = []
    for r in range(top_r, top_r - depth, -1):
        for ell in range(top_l, top_l - depth, -1):
            budget = r + ell + (N_DIM - 1)
            if budget < 0:
                continue
            for k in range(budget + 1):
                for j in range(budget - k + 1):
                    a = budget - k - j
                    found.append((r, ell, k, j, a))
    return sorted(found)


def enumerate_cases(theorem: str) -> List[CaseSpec]:
    """The five boundary cases; completeness re-derived from the constraint."""
    if theorem not in _CASE_TABLES:
        raise EngineError(f"theorem {theorem!r} not wired")
    cases = [CaseSpec(theorem, *row) for row in _CASE_TABLES[theorem]]
    for c in cases:
        if not c.constraint_ok():
            raise EngineError(f"case {c.case_id} violates the order constraint")
    derived = brute_force_cases(theorem)
    tabulated = sorted((c.r, c.ell, c.k, c.j, c.alpha) for c in cases)
    if derived != tabulated:
        raise EngineError(
            f"case enumeration mismatch for {theorem}: derived {derived}, "
            f"tabulated {tabulated}"
        )
    return cases


# ---------------------------------------------------------------------------
# Trail and report records
# ---------------------------------------------------------------------------

class TrailStep(NamedTuple):
    """One trail step.  The report shows `note` then the text of `expr` under
    the config switches; a printed-intermediate step compares `expr` with
    its printed reference `ref`."""

    step_id: str
    op: str
    expr: object = None  # ScalarExpr | CliffordExpr | None
    note: str = ""
    ref_id: Optional[str] = None
    ref: object = None


# The reporting monomials of a boundary density, each with its label in
# `CollectedForm.text`: g(X^T,Y^T) = Sum_{j<n} X_jY_j, X_nY_n and X_n dY_n/dx_n.
REPORTING_MONOMIALS: Tuple[Tuple[str, ScalarExpr], ...] = (
    ("g(X^T,Y^T)", G_XT_YT), ("Xn*Yn", XN_YN), ("Xn*dYn", XN_DYN),
)


class CollectedForm(NamedTuple):
    """Boundary density in the reporting monomial basis."""

    tangential: ScalarExpr  # coefficient of g(X^T, Y^T)
    normal: ScalarExpr      # coefficient of X_n Y_n
    normal_dyn: ScalarExpr  # coefficient of X_n dY_n/dx_n
    leftover: ScalarExpr    # anything outside the basis (should be zero)

    def coefficients(self) -> Tuple[ScalarExpr, ScalarExpr, ScalarExpr]:
        """The coefficients in the order of `REPORTING_MONOMIALS`."""
        return self.tangential, self.normal, self.normal_dyn

    def text(self) -> str:
        parts = [f"[{c.text()}] * {label}"
                 for c, (label, _) in zip(self.coefficients(), REPORTING_MONOMIALS)
                 if not c.is_zero()]
        if not self.leftover.is_zero():
            parts.append(f"[{self.leftover.text()}] (outside basis)")
        return " + ".join(parts) if parts else "0"


class PhiReport(NamedTuple):
    case: Optional[CaseSpec]
    row_id: str
    value: ScalarExpr
    trail: List[TrailStep]


def collect_form(value: ScalarExpr) -> CollectedForm:
    """Split a boundary density over {g(X^T,Y^T), XnYn, Xn dYn} monomials.

    Off-diagonal tangential X_j Y_l and mixed X_j Y_n terms must have
    cancelled (sphere parity); anything unexpected lands in `leftover`.
    """
    if not value.den.is_const():
        return CollectedForm(S_ZERO, S_ZERO, S_ZERO, value)
    den_inv = ScalarExpr.const(value.den.const_value().inverse())
    x_ids = {REG.id_of(f"X{j}"): j for j in range(1, 5)}
    y_ids = {REG.id_of(f"Y{j}"): j for j in range(1, 5)}
    dyn_id = REG.id_of("dYn")
    diag: Dict[int, ScalarExpr] = {1: S_ZERO, 2: S_ZERO, 3: S_ZERO}
    normal = S_ZERO
    normal_dyn = S_ZERO
    leftover = S_ZERO
    for mono, coeff in value.num.terms.items():
        items = mono_items(mono)
        xs = [(s, e) for s, e in items if s in x_ids]
        ys = [(s, e) for s, e in items if s in y_ids]
        dyn = [(s, e) for s, e in items if s == dyn_id]
        rest = mono - mono_pack(xs + ys + dyn)
        term = ScalarExpr.from_poly(Poly({rest: coeff}, _trusted=True)) * den_inv
        full = ScalarExpr.from_poly(Poly({mono: coeff}, _trusted=True)) * den_inv
        if len(xs) == 1 and xs[0][1] == 1 and len(ys) == 1 and ys[0][1] == 1 and not dyn:
            xj = x_ids[xs[0][0]]
            yl = y_ids[ys[0][0]]
            if xj == yl and xj < 4:
                diag[xj] = diag[xj] + term
                continue
            if xj == yl == 4:
                normal = normal + term
                continue
            leftover = leftover + full
            continue
        if len(xs) == 1 and xs[0][1] == 1 and not ys and len(dyn) == 1 and dyn[0][1] == 1:
            if x_ids[xs[0][0]] == 4:
                normal_dyn = normal_dyn + term
                continue
        leftover = leftover + full
    if not (diag[1] == diag[2] == diag[3]):
        # tangential anisotropy: report everything as leftover
        for j in (1, 2, 3):
            leftover = leftover + diag[j] * sym(f"X{j}") * sym(f"Y{j}")
        return CollectedForm(S_ZERO, normal, normal_dyn, leftover)
    return CollectedForm(diag[1], normal, normal_dyn, leftover)


def collected_to_scalar(c: CollectedForm) -> ScalarExpr:
    """Reassemble over the reporting monomials, g(X^T,Y^T) as Sum X_j Y_j."""
    out = c.leftover
    for coeff, (_, mono) in zip(c.coefficients(), REPORTING_MONOMIALS):
        out = out + coeff * mono
    return out


# ---------------------------------------------------------------------------
# Case evaluation
# ---------------------------------------------------------------------------

_TANGENTIAL_AXES = (1, 2, 3)


def _prefactor(case: CaseSpec) -> GRat:
    e = case.alpha + case.j + case.k + 1
    return GRat(0, -1) ** e / GRat(math.factorial(case.j + case.k + 1))


class AxisStages(NamedTuple):
    """The stage chain of one tangential axis of a case (one pass if |alpha| = 0).

    `f2_base` and `f1_base` are the second and first factors after their
    x-side and tangential xi derivatives, restricted to |xi'| = 1; `f2` and
    `f1` are those restricted values after their xin derivatives.  `traced`
    is Tr[pi+ F1 x F2] and `moment` its xin integral's sphere moment; `steps`
    are the trail steps of the chain in order.  When F2 vanishes the chain
    stops there: the F1 fields and `traced` are None and `moment` is zero.
    """

    steps: List[TrailStep]
    f2_base: CliffordExpr
    f2: CliffordExpr
    f1_base: Optional[CliffordExpr] = None
    f1: Optional[CliffordExpr] = None
    traced: Optional[ScalarExpr] = None
    moment: ScalarExpr = S_ZERO


class TheoremContext(NamedTuple):
    theorem: str
    factor1: GradedSymbol
    factor2: GradedSymbol
    sigma3_variant: str
    # the torsion families built as 0 in the factors (see `builtin_symbol`)
    torsion_off: Tuple[str, ...]
    # per-case stage chains, evaluated on first use (see `case_stages`)
    stages: Dict[CaseSpec, List[AxisStages]]


def make_context(theorem: str, sigma3_variant: str = "printed",
                 torsion_off: Tuple[str, ...] = ()) -> TheoremContext:
    """The two factors of a theorem, with the torsion families in
    `torsion_off` switched off at the source."""
    f1_id, f2_id = _FACTOR_IDS[theorem]
    return TheoremContext(
        theorem,
        builtin_symbol(f1_id, sigma3_variant, torsion_off),
        builtin_symbol(f2_id, sigma3_variant, torsion_off),
        sigma3_variant,
        tuple(torsion_off),
        {},
    )


def _restrict_then_d_xin(value: CliffordExpr, times: int, label: str,
                         trail: List[TrailStep]) -> Tuple[CliffordExpr, CliffordExpr]:
    """(base, derived): value restricted to |xi'| = 1, and that base after
    `times` xin derivatives, which is recorded on the trail."""
    base = derived = value.restrict_sphere()
    for _ in range(times):
        derived = d_xi(derived, 4)
        label = f"d_xin {label}"
    trail.append(TrailStep(label, "derivatives+restrict", derived))
    return base, derived


def _first_factor_restricted(ctx: TheoremContext, case: CaseSpec,
                             tangential_axis: Optional[int],
                             trail: List[TrailStep]) -> Tuple[CliffordExpr, CliffordExpr]:
    """sigma_r(F1) after d_xn^j and d_xi'^alpha, then `_restrict_then_d_xin` with k."""
    comp = ctx.factor1.component(case.r)
    label = f"sigma_{case.r}(F1)"
    for _ in range(case.j):
        comp = d_xn(comp)
        label = f"d_xn {label}"
    value = comp.value
    if case.alpha:
        value = d_xi(value, tangential_axis)
        label = f"d_xi{tangential_axis} {label}"
    return _restrict_then_d_xin(value, case.k, label, trail)


def _second_factor(ctx: TheoremContext, case: CaseSpec, tangential_axis: Optional[int],
                   trail: List[TrailStep]) -> Tuple[CliffordExpr, CliffordExpr]:
    """sigma_l(F2) after d_x'^alpha and d_xn^k, then `_restrict_then_d_xin` with j+1."""
    comp = ctx.factor2.component(case.ell)
    label = f"sigma_{case.ell}(F2)"
    if case.alpha:
        comp = d_x_tangential(comp)
        label = f"d_x'{tangential_axis} {label}"
        trail.append(TrailStep(label, "d_x_tangential", comp.value))
        if comp.value.is_zero():
            return comp.value, comp.value
    for _ in range(case.k):
        comp = d_xn(comp)
        label = f"d_xn {label}"
    return _restrict_then_d_xin(comp.value, case.j + 1, label, trail)


def _traced_projected_product(f1_restricted: CliffordExpr, f2: CliffordExpr,
                              trail: List[TrailStep], tag: str) -> ScalarExpr:
    """Tr[pi+ f1 * f2] via trace pairing.

    Only equal canonical monomials pair into the identity, and pi+ acts
    coefficient-wise and commutes with the trace, so only the coefficients
    of f1 that pair with f2 are projected.
    """
    projected = CliffordExpr({m: pi_plus_scalar(c) for m, c in f1_restricted.terms.items()
                              if m in f2.terms})
    traced = cl_trace_product(projected, f2)
    trail.append(TrailStep(f"pi+ paired coefficients {tag}", "pi_plus", projected))
    trail.append(TrailStep(f"trace {tag}", "cl_trace", traced))
    return traced


def _axis_stages(ctx: TheoremContext, case: CaseSpec, axis: Optional[int]) -> AxisStages:
    steps: List[TrailStep] = []
    f2_base, f2 = _second_factor(ctx, case, axis, steps)
    if f2.is_zero():
        steps.append(
            TrailStep(f"case {case.case_id} axis {axis}", "product",
                      note="0 (second factor vanishes)")
        )
        return AxisStages(steps, f2_base, f2)
    tag = f"(axis {axis})" if axis else ""
    f1_base, f1 = _first_factor_restricted(ctx, case, axis, steps)
    traced = _traced_projected_product(f1, f2, steps, tag)
    line_scalar = integrate_xi_n(traced).scalar_part()
    steps.append(TrailStep(f"xin integral {tag}", "integrate_xi_n", line_scalar))
    moment = sphere_moment(line_scalar)
    steps.append(TrailStep(f"sphere moments {tag}", "sphere_moment", moment))
    return AxisStages(steps, f2_base, f2, f1_base, f1, traced, moment)


def case_stages(ctx: TheoremContext, case: CaseSpec) -> List[AxisStages]:
    """The stage chains of one case, evaluated once per context and kept on it."""
    hit = ctx.stages.get(case)
    if hit is None:
        axes = _TANGENTIAL_AXES if case.alpha else (None,)
        hit = ctx.stages[case] = [_axis_stages(ctx, case, axis) for axis in axes]
    return hit


def find_case(theorem: str, case_id: str) -> CaseSpec:
    return next(c for c in enumerate_cases(theorem) if c.case_id == case_id)


def compute_case_term(ctx: TheoremContext, case: CaseSpec) -> PhiReport:
    """One boundary case end to end with a full step trail, read off its stages."""
    trail: List[TrailStep] = []
    total = S_ZERO
    for stage in case_stages(ctx, case):
        trail.extend(stage.steps)
        total = total + stage.moment
    pref = _prefactor(case)
    value = total * ScalarExpr.const(pref)
    trail.append(TrailStep("prefactor", "scale", value, note=f"{pref} -> "))
    return PhiReport(
        case=case,
        row_id=f"{ctx.theorem}/{case.case_id}",
        value=value,
        trail=trail,
    )


def case_trace_integrand(ctx: TheoremContext, case_id: str) -> CliffordExpr:
    """The traced integrand of a case before line and sphere integration.

    This is the expression whose printed counterpart appears in the source
    text's per-case trace displays; it sums the case's stored stages.
    """
    total = S_ZERO
    for stage in case_stages(ctx, find_case(ctx.theorem, case_id)):
        if stage.traced is not None:
            total = total + stage.traced
    return CliffordExpr.scalar(total)


def total_boundary_term(reports: List[PhiReport], theorem: str) -> PhiReport:
    """Exact sum of the case values with the tangential contraction collected."""
    total = S_ZERO
    for rep in reports:
        total = total + rep.value
    return PhiReport(
        case=None,
        row_id=f"{theorem}/total",
        value=total,
        trail=[TrailStep("total", "sum", total)],
    )
