"""Boundary-term pipeline: case enumeration and end-to-end evaluation.

Each boundary case evaluates

    prefactor * Int_{|xi'|=1} Int_R Tr[ d_xn^j d_xi'^alpha d_xin^k pi+ sigma_r(F1)
                                        x d_x'^alpha d_xin^(j+1) d_xn^k sigma_l(F2) ]

with prefactor (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!), summed over the case
list determined by r + l - k - j - |alpha| = -(n-1) derived from the
factors' top orders.  The x-side derivatives act on unrestricted symbols;
the tangential ones vanish at x0, so an |alpha| = 1 case stops at F2.  Each
factor is then restricted to |xi'| = 1 and its xin derivatives act on the
restricted value.  Restriction sets shx = 1 and reduces xi3^2, a ring
homomorphism that fixes xin, so it commutes with d/dxin.  The half-plane
projection follows, the xin integral closes upward through the residue at
+i, and tangential moments are exact with the sphere volume kept symbolic.

Each case is evaluated by one path, `case_stages`: per tangential axis it
derives and restricts F2 and F1, projects and traces the pair, integrates
over xin and takes the sphere moment, and keeps every stage on the
`TheoremContext` as one `AxisStages` record, the restricted factors before
their xin derivatives included.  `compute_case_term` (whose trail is a view
of the records), `case_trace_integrand`, the printed-intermediate slots and
the sigma3 variant check all read those records, so a context evaluates
each case once.  Cases are independent pure computations; reports merge in
case order.
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
    scalar_sum,
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


class BoundaryTheorem(NamedTuple):
    """A boundary theorem as data: the operator ids of its factors F1 and F2,
    the inverse operators whose stated symbols the report diffs against
    their recomputation, and the names of the case that lowers F1 and of the
    case that lowers F2 one order below its top.  Those names are the
    paper's, and no rule gives them: b lowers F2 in theorem 4.6 but F1 in
    theorem 5.4."""

    factors: Tuple[str, str]
    diffed: Tuple[str, ...]
    lowered: Tuple[str, str]  # (F1 lowered, F2 lowered)

    def case_ids(self) -> Tuple[str, ...]:
        """The names of the cases, in the order of `enumerate_cases`."""
        return tuple(sorted(("a1", "a2", "a3") + self.lowered))


BOUNDARY_THEOREMS: Dict[str, BoundaryTheorem] = {
    "T4.6": BoundaryTheorem(("nablaXY(D_T*D_T)^-1", "(D_T*D_T)^-1"), ("(D_T*D_T)^-1",),
                            lowered=("c", "b")),
    "T5.4": BoundaryTheorem(("nablaXY D_T^-1", "(D_T*D_TD_T*)^-1"),
                            ("D_T^-1", "(D_T*D_TD_T*)^-1"), lowered=("b", "c")),
}


class CaseSpec(NamedTuple):
    theorem: str
    case_id: str
    r: int
    ell: int
    k: int
    j: int
    alpha: int


def enumerate_cases(ctx: TheoremContext) -> List[CaseSpec]:
    """The cases r + l - k - j - |alpha| = -(n-1) of the context's factors, by name.

    At the factors' top orders the budget k + j + |alpha| = r + l + n - 1
    must be 1, which gives a1 (|alpha| = 1), a2 (j = 1) and a3 (k = 1).
    Lowering one factor by one order leaves budget 0, one case each, named
    by the theorem's row; lowering both leaves none.
    """
    r, ell = ctx.factor1.top, ctx.factor2.top
    if r + ell + N_DIM - 1 != 1:
        raise EngineError(f"{ctx.theorem}: factor top orders {r} and {ell} do not give "
                          f"the five boundary cases (their sum must be {2 - N_DIM})")
    th = ctx.theorem
    lower_f1, lower_f2 = BOUNDARY_THEOREMS[th].lowered
    return sorted([
        CaseSpec(th, "a1", r, ell, 0, 0, 1),
        CaseSpec(th, "a2", r, ell, 0, 1, 0),
        CaseSpec(th, "a3", r, ell, 1, 0, 0),
        CaseSpec(th, lower_f1, r - 1, ell, 0, 0, 0),
        CaseSpec(th, lower_f2, r, ell - 1, 0, 0, 0),
    ], key=lambda case: case.case_id)


# ---------------------------------------------------------------------------
# Trail and report records
# ---------------------------------------------------------------------------

class TrailStep(NamedTuple):
    """One trail step.  The report shows `note` then the text of `expr` under
    the config switches."""

    step_id: str
    op: str
    expr: object = None  # ScalarExpr | CliffordExpr | None
    note: str = ""


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
    diag: Dict[int, List[ScalarExpr]] = {1: [], 2: [], 3: []}
    normal: List[ScalarExpr] = []
    normal_dyn: List[ScalarExpr] = []
    leftover: List[ScalarExpr] = []
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
                diag[xj].append(term)
                continue
            if xj == yl == 4:
                normal.append(term)
                continue
            leftover.append(full)
            continue
        if len(xs) == 1 and xs[0][1] == 1 and not ys and len(dyn) == 1 and dyn[0][1] == 1:
            if x_ids[xs[0][0]] == 4:
                normal_dyn.append(term)
                continue
        leftover.append(full)
    tangential = [scalar_sum(diag[j]) for j in (1, 2, 3)]
    isotropic = tangential[0] == tangential[1] == tangential[2]
    if not isotropic:
        # tangential anisotropy: report everything as leftover
        leftover += [t * sym(f"X{j}") * sym(f"Y{j}") for j, t in enumerate(tangential, 1)]
    return CollectedForm(tangential[0] if isotropic else S_ZERO, scalar_sum(normal),
                         scalar_sum(normal_dyn), scalar_sum(leftover))


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
    x-side derivatives, restricted to |xi'| = 1; `f2` and `f1` are those
    restricted values after their xin derivatives.  `projected` is pi+ of
    the coefficients of `f1` that pair with `f2`, `traced` is
    Tr[pi+ F1 x F2], `line` its xin integral and `moment` the sphere moment
    of that.  When F2 vanishes the chain stops there: the F1 fields,
    `projected`, `traced` and `line` are None and `moment` is zero.  The
    trail of the chain is the view `_axis_trail` reads off these fields.
    """

    f2_base: CliffordExpr
    f2: CliffordExpr
    f1_base: Optional[CliffordExpr] = None
    f1: Optional[CliffordExpr] = None
    projected: Optional[CliffordExpr] = None
    traced: Optional[ScalarExpr] = None
    line: Optional[ScalarExpr] = None
    moment: ScalarExpr = S_ZERO


class TheoremContext(NamedTuple):
    theorem: str
    factor1: GradedSymbol
    factor2: GradedSymbol
    sigma3_variant: str
    # per-case stage chains, evaluated on first use (see `case_stages`)
    stages: Dict[CaseSpec, List[AxisStages]]
    # per-case stage reads of the slots and their prefixes, on first use
    # (`references._read_value`)
    reads: Dict[str, Dict[Tuple[str, ...], object]]


def make_context(theorem: str, sigma3_variant: str = "printed") -> TheoremContext:
    """The two factors of a theorem, with every torsion family present."""
    if theorem not in BOUNDARY_THEOREMS:
        raise EngineError(f"{theorem!r} is not a boundary theorem")
    f1_id, f2_id = BOUNDARY_THEOREMS[theorem].factors
    return TheoremContext(
        theorem,
        builtin_symbol(f1_id, sigma3_variant),
        builtin_symbol(f2_id, sigma3_variant),
        sigma3_variant,
        {},
        {},
    )


def _axis_stages(ctx: TheoremContext, case: CaseSpec, axis: Optional[int]) -> AxisStages:
    """The stage chain of one axis of a case (eqs 4.26-4.55 and 5.13-5.50).

    sigma_l(F2) takes d_x'^alpha and d_xn^k, is restricted to |xi'| = 1 and
    takes d_xin^(j+1); sigma_r(F1) takes d_xn^j, is restricted and takes
    d_xin^k.  Only equal canonical monomials pair into the identity under
    the trace, and pi+ acts coefficient-wise and commutes with it, so only
    the coefficients of F1 that pair with F2 are projected.  The traced
    product is integrated over xin and over the sphere.

    `symbols.d_x_tangential` is identically 0 at x0 (geodesic boundary
    coordinates), so a chain with |alpha| = 1 stops at F2 and F1 takes no
    xi' derivative: no tier-1 test and no benchmark command reaches an
    |alpha| = 1 chain past F2, and a d_x' that did not vanish would raise
    here rather than drop that derivative.
    """
    comp = ctx.factor2.component(case.ell)
    if case.alpha:
        zero = d_x_tangential(comp).value
        if not zero.is_zero():
            raise EngineError(f"d_x'{axis} sigma_{case.ell}(F2) does not vanish at x0")
        return AxisStages(zero, zero)
    for _ in range(case.k):
        comp = d_xn(comp)
    f2_base = f2 = comp.value.restrict_sphere()
    for _ in range(case.j + 1):
        f2 = d_xi(f2, 4)
    if f2.is_zero():
        return AxisStages(f2_base, f2)
    comp = ctx.factor1.component(case.r)
    for _ in range(case.j):
        comp = d_xn(comp)
    f1_base = f1 = comp.value.restrict_sphere()
    for _ in range(case.k):
        f1 = d_xi(f1, 4)
    projected = CliffordExpr({m: pi_plus_scalar(c) for m, c in f1.terms.items()
                              if m in f2.terms})
    traced = cl_trace_product(projected, f2)
    line = integrate_xi_n(traced).scalar_part()
    return AxisStages(f2_base, f2, f1_base, f1, projected, traced, line, sphere_moment(line))


def _axes(case: CaseSpec) -> Tuple[Optional[int], ...]:
    return _TANGENTIAL_AXES if case.alpha else (None,)


def case_stages(ctx: TheoremContext, case: CaseSpec) -> List[AxisStages]:
    """The stage chains of one case, evaluated once per context and kept on it."""
    hit = ctx.stages.get(case)
    if hit is None:
        hit = ctx.stages[case] = [_axis_stages(ctx, case, axis) for axis in _axes(case)]
    return hit


def _axis_trail(case: CaseSpec, axis: Optional[int], stage: AxisStages) -> List[TrailStep]:
    """The trail of one axis chain: its stage fields, each step named from the case."""
    if case.alpha:
        steps = [TrailStep(f"d_x'{axis} sigma_{case.ell}(F2)", "d_x_tangential", stage.f2)]
    else:
        label = "d_xin " * (case.j + 1) + "d_xn " * case.k + f"sigma_{case.ell}(F2)"
        steps = [TrailStep(label, "derivatives+restrict", stage.f2)]
    if stage.f1 is None:
        return steps + [TrailStep(f"case {case.case_id} axis {axis}", "product",
                                  note="0 (second factor vanishes)")]
    tag = f"(axis {axis})" if axis else ""
    return steps + [
        TrailStep("d_xin " * case.k + "d_xn " * case.j + f"sigma_{case.r}(F1)",
                  "derivatives+restrict", stage.f1),
        TrailStep(f"pi+ paired coefficients {tag}", "pi_plus", stage.projected),
        TrailStep(f"trace {tag}", "cl_trace", stage.traced),
        TrailStep(f"xin integral {tag}", "integrate_xi_n", stage.line),
        TrailStep(f"sphere moments {tag}", "sphere_moment", stage.moment),
    ]


def find_case(ctx: TheoremContext, case_id: str) -> CaseSpec:
    for case in enumerate_cases(ctx):
        if case.case_id == case_id:
            return case
    raise EngineError(f"{ctx.theorem} has no boundary case {case_id!r}")


def compute_case_term(ctx: TheoremContext, case: CaseSpec) -> PhiReport:
    """One boundary case end to end with a full step trail, read off its stages."""
    stages = case_stages(ctx, case)
    trail = [step for axis, stage in zip(_axes(case), stages)
             for step in _axis_trail(case, axis, stage)]
    pref = _prefactor(case)
    value = scalar_sum(stage.moment for stage in stages) * ScalarExpr.const(pref)
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
    return CliffordExpr.scalar(scalar_sum(
        stage.traced for stage in case_stages(ctx, find_case(ctx, case_id))
        if stage.traced is not None))


def total_boundary_term(reports: List[PhiReport], theorem: str) -> PhiReport:
    """Exact sum of the case values with the tangential contraction collected."""
    total = scalar_sum(rep.value for rep in reports)
    return PhiReport(
        case=None,
        row_id=f"{theorem}/total",
        value=total,
        trail=[TrailStep("total", "sum", total)],
    )
