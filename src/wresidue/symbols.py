"""Graded symbols in boundary normal coordinates, composition and inversion.

Symbols live at the boundary base point x0 of the collar chart with metric
h(x_n)^-1 g_boundary + dx_n^2.  The normal-direction dependence of the metric
is carried by the scalar variable shx = sqrt(h(x_n)): the coordinate Clifford
element c(xi') is shx * sum_j xi_j c(e_j) and |xi|^2 = shx^2 |xi'|^2 + xi_n^2.
The boundary derivative rule table is then a single mechanical rule,

    d/dx_n  =  (h'(0)/2) * d/d(shx), evaluated at shx = 1,

which reproduces d/dx_n |xi|^2 = h'(0)|xi'|^2, kills tangential x-derivatives,
and materializes d/dx_n c(xi') = (h'(0)/2) c(xi').  Components that are only
known as evaluated data at x0 (torsion endomorphisms, inverse-symbol ground
data) are flagged `at_point`; asking for their normal derivative would need
h''(0) and is rejected.

Composition follows sigma(P o Q) = sum_alpha (1/alpha!) d_xi^alpha[sigma(P)]
D_x^alpha[sigma(Q)] with D_x = -i d_x; only the normal direction survives the
rule table, and second normal derivatives are rejected.  Inversion builds the
parametrix recursively from the leading component.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    SHX,
    ScalarExpr,
    S_ONE,
    S_ZERO,
    XI,
    atom_A,
    atom_T,
    atom_V,
    mono_items,
    norm_xi_sq,
    sym,
    tangential_norm_sq,
)
from .clifford import CliffordExpr, CL_ZERO, clifford_inverse

S_I = ScalarExpr.const(I)
S_HALF_H1 = sym("h1") * ScalarExpr.const(GRat(1) / GRat(2))


def once_per_off(build: Callable) -> Callable:
    """`build`, a builder of a constant value whose last parameter is `off`
    (the torsion families switched off, default ()), memoized per process on
    its arguments with `off` keyed as a tuple, so `f()` and `f(())` share one
    build.  Callers must not mutate the values it returns.  `builds` counts
    the builds per key, and `__wrapped__` is the plain builder."""
    cache: Dict[tuple, object] = {}
    arity = build.__code__.co_argcount

    @functools.wraps(build)
    def memo(*args):
        key = args + ((),) * (arity - len(args))
        if key:
            key = key[:-1] + (tuple(key[-1]),)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = build(*key)
            memo.builds[key] = memo.builds.get(key, 0) + 1
        return hit

    def cache_clear():
        cache.clear()
        memo.builds.clear()

    memo.builds = {}
    memo.cache_clear = cache_clear
    return memo


# ---------------------------------------------------------------------------
# Coordinate Clifford elements and operator building blocks
# ---------------------------------------------------------------------------

def xi_var(j: int) -> ScalarExpr:
    """xi_j for j = 1..4 with xi_4 the normal component."""
    return ScalarExpr.var(XI[j - 1])


def c_gen(i: int) -> CliffordExpr:
    return CliffordExpr.gen(i)


def c_xi_prime(at_point: bool = False) -> CliffordExpr:
    """c(xi') = shx * sum_{j<4} xi_j c(e_j); shx = 1 at the base point."""
    w = sym("shx") if not at_point else S_ONE
    return CliffordExpr.from_cotangent([w * xi_var(1), w * xi_var(2), w * xi_var(3), S_ZERO])


def c_dxn() -> CliffordExpr:
    return CliffordExpr.gen(4)


def c_xi(at_point: bool = False) -> CliffordExpr:
    return c_xi_prime(at_point) + c_dxn().scale(xi_var(4))


def c_vector(components: List[ScalarExpr]) -> CliffordExpr:
    return CliffordExpr.from_cotangent(components)


def xdot_xi(prefix: str) -> ScalarExpr:
    """sum_j prefix_j xi_j over all four directions."""
    total = S_ZERO
    for j in range(1, 5):
        total = total + sym(f"{prefix}{j}") * xi_var(j)
    return total


def q_bilinear() -> ScalarExpr:
    """sum_{j,l} X_j Y_l xi_j xi_l = (X.xi)(Y.xi)."""
    return xdot_xi("X") * xdot_xi("Y")


@once_per_off
def torsion_u(off: Tuple[str, ...] = ()) -> CliffordExpr:
    """(1/4) sum over pairwise distinct (i,s,t) of A_ist c(e_i)c(e_s)c(e_t);
    0 when the family "A" is in `off`, the torsion families switched off."""
    if "A" in off:
        return CL_ZERO
    quarter = ScalarExpr.const(GRat(1) / GRat(4))
    total = CL_ZERO
    for i in range(1, 5):
        for s in range(1, 5):
            for t in range(1, 5):
                if len({i, s, t}) != 3:
                    continue
                coeff = atom_A(i, s, t)
                if coeff.is_zero():
                    continue
                total = total + (c_gen(i) * c_gen(s) * c_gen(t)).scale(coeff * quarter)
    return total


@once_per_off
def torsion_v(off: Tuple[str, ...] = ()) -> CliffordExpr:
    """(1/4)[ -sum A_iit c(e_t) + sum A_isi c(e_s) - sum A_iss c(e_i) + 2 sum A_iii c(e_i) ];
    0 when the family "A" is in `off`."""
    if "A" in off:
        return CL_ZERO
    quarter = ScalarExpr.const(GRat(1) / GRat(4))
    total = CL_ZERO
    for i in range(1, 5):
        for t in range(1, 5):
            total = total + c_gen(t).scale(-atom_A(i, i, t) * quarter)
        for s_ in range(1, 5):
            total = total + c_gen(s_).scale(atom_A(i, s_, i) * quarter)
            total = total + c_gen(i).scale(-atom_A(i, s_, s_) * quarter)
        total = total + c_gen(i).scale(2 * atom_A(i, i, i) * quarter)
    return total


def sigma0_dirac_lc() -> CliffordExpr:
    """Order-zero symbol of the torsion-free Dirac operator at x0: -(3/4)h'(0)c(dx_n)."""
    return c_dxn().scale(sym("h1") * ScalarExpr.const(GRat(-3) / GRat(4)))


def spin_connection_term(prefix: str) -> CliffordExpr:
    """A(X) at x0 = (1/4)h'(0) sum_{k<4} X_k c(e_k)c(e_4) for X = sum X_k d/dx_k."""
    quarter_h1 = sym("h1") * ScalarExpr.const(GRat(1) / GRat(4))
    total = CL_ZERO
    for k in range(1, 4):
        total = total + (c_gen(k) * c_gen(4)).scale(sym(f"{prefix}{k}") * quarter_h1)
    return total


@once_per_off
def torsion_two_form(prefix: str, off: Tuple[str, ...] = ()) -> CliffordExpr:
    """T-bar(X) = (3/2) sum_{i<j} T(X,e_i,e_j)c(e_i)c(e_j) - (1/2)c(V)c(X) - (1/2)<V,X>,
    without the T part or the V parts when "T" or "V" is in `off`."""
    three_half = ScalarExpr.const(GRat(3) / GRat(2))
    half = ScalarExpr.const(GRat(1) / GRat(2))
    total = CL_ZERO
    if "T" not in off:
        for i in range(1, 5):
            for j in range(i + 1, 5):
                coeff = S_ZERO
                for a in range(1, 5):
                    coeff = coeff + sym(f"{prefix}{a}") * atom_T(a, i, j)
                total = total + (c_gen(i) * c_gen(j)).scale(coeff * three_half)
    if "V" in off:
        return total
    cv = c_vector([atom_V(k) for k in range(1, 5)])
    cx = c_vector([sym(f"{prefix}{k}") for k in range(1, 5)])
    total = total - (cv * cx).scale(half)
    inner = S_ZERO
    for k in range(1, 5):
        inner = inner + atom_V(k) * sym(f"{prefix}{k}")
    total = total - CliffordExpr.scalar(inner * half)
    return total


# ---------------------------------------------------------------------------
# Graded symbols
# ---------------------------------------------------------------------------

class SymbolComponent(NamedTuple):
    """One homogeneity component of a symbol.

    at_point: the value is evaluated data at x0 (no shx dependence left);
              normal derivatives are rejected on it.
    homogeneous: eligible for the xi-scaling bookkeeping check.
    """

    value: CliffordExpr
    at_point: bool = False
    homogeneous: bool = True


class GradedSymbol(NamedTuple):
    label: str
    components: Dict[int, SymbolComponent]
    top: int
    known_down_to: int

    def component(self, order: int) -> SymbolComponent:
        if order not in self.components:
            raise EngineError(
                f"{self.label}: missing symbol component at order {order} "
                f"(known down to {self.known_down_to})"
            )
        return self.components[order]

    def orders(self) -> List[int]:
        return sorted(self.components, reverse=True)


def _at_point_value(value: CliffordExpr) -> CliffordExpr:
    return value.map_coeffs(lambda c: c.subst_shx_one())


def d_xi(value: CliffordExpr, j: int) -> CliffordExpr:
    """Formal xi_j derivative, j = 1..4 (4 = normal)."""
    return value.differentiate(XI[j - 1])


def d_xn(component: SymbolComponent) -> SymbolComponent:
    """Boundary normal derivative at x0: (h'(0)/2) d/d(shx), then shx -> 1."""
    if component.at_point:
        raise EngineError(
            "normal derivative of evaluated (at-point) data needs h''(0); rejected"
        )
    derived = component.value.differentiate(SHX).scale(S_HALF_H1)
    return SymbolComponent(_at_point_value(derived), at_point=True,
                           homogeneous=component.homogeneous)


def d_x_tangential(component: SymbolComponent) -> SymbolComponent:
    """Tangential x-derivatives vanish at x0 (geodesic boundary coordinates)."""
    return SymbolComponent(CL_ZERO, at_point=True, homogeneous=component.homogeneous)


def _combine_components(a: SymbolComponent, b: SymbolComponent, op) -> SymbolComponent:
    """op of the two values; if either is at the boundary point, both are moved there."""
    at_point = a.at_point or b.at_point
    va, vb = (_at_point_value(c.value) if at_point and not c.at_point else c.value
              for c in (a, b))
    return SymbolComponent(op(va, vb), at_point=at_point,
                           homogeneous=a.homogeneous and b.homogeneous)


def _mul_components(a: SymbolComponent, b: SymbolComponent) -> SymbolComponent:
    return _combine_components(a, b, operator.mul)


def _add_components(a: SymbolComponent, b: SymbolComponent) -> SymbolComponent:
    return _combine_components(a, b, operator.add)


_ZERO_COMPONENT = SymbolComponent(CL_ZERO, at_point=False)


def _dx_normal(component: SymbolComponent) -> SymbolComponent:
    """D_xn = -i d_xn."""
    d = d_xn(component)
    return SymbolComponent(d.value.scale(-S_I), at_point=True, homogeneous=d.homogeneous)


def _order_sum(op: str, target: int, terms) -> SymbolComponent:
    """Sum of d_xi^k p_j * D_xn^k q_l over (p_j, q_l, k) with k >= 0.

    Tangential x-derivatives vanish at x0, so only normal ones enter, and
    k >= 2 would need h''(0), which is not modeled.
    """
    acc = _ZERO_COMPONENT
    for pj, ql, k in terms:
        if k >= 2:
            raise EngineError(
                f"{op}: order {target} needs {k} normal derivatives; "
                "h''(0) is not modeled"
            )
        if k == 0:
            acc = _add_components(acc, _mul_components(pj, ql))
        else:
            left = SymbolComponent(d_xi(pj.value, 4), pj.at_point, pj.homogeneous)
            acc = _add_components(acc, _mul_components(left, _dx_normal(ql)))
    return acc


def compose(p: GradedSymbol, q: GradedSymbol, min_order: int,
            label: Optional[str] = None) -> GradedSymbol:
    """Graded components of sigma(P o Q) down to min_order.

    Only alpha supported on the normal direction contributes (tangential
    x-derivatives vanish at x0); alpha_n >= 2 would need h''(0) and is
    rejected if the order bookkeeping demands it.
    """
    top = p.top + q.top
    if min_order > top:
        raise EngineError("compose: min_order above the product's top order")
    # availability: every potentially contributing order must be present
    if min_order < p.known_down_to + q.top:
        raise EngineError(
            f"compose: {p.label} missing orders below {p.known_down_to} "
            f"needed for product order {min_order}"
        )
    if min_order < p.top + q.known_down_to:
        raise EngineError(
            f"compose: {q.label} missing orders below {q.known_down_to} "
            f"needed for product order {min_order}"
        )
    out: Dict[int, SymbolComponent] = {}
    for t in range(top, min_order - 1, -1):
        out[t] = _order_sum("compose", t, (
            (p.component(j), q.component(l), j + l - t)
            for j in p.orders()
            for l in q.orders()
            if j + l - t >= 0
        ))
    return GradedSymbol(label or f"({p.label}) o ({q.label})", out, top, min_order)


def invert(p: GradedSymbol, min_order: int, label: Optional[str] = None) -> GradedSymbol:
    """Parametrix of p down to min_order: compose(p, invert(p)) = 1."""
    m = p.top
    lead = p.component(m)
    if lead.at_point:
        raise EngineError("invert: leading symbol must be generic data")
    inv_lead = clifford_inverse(lead.value)
    comps: Dict[int, SymbolComponent] = {
        -m: SymbolComponent(inv_lead, at_point=False, homogeneous=True)
    }
    inv_lead_comp = comps[-m]
    for s in range(1, -min_order - m + 1):
        target = -m - s
        if p.known_down_to > m - s:
            raise EngineError(
                f"invert: {p.label} missing order {m - s} needed for order {target}"
            )
        acc = _order_sum("invert", target, (
            (p.component(j), comps[l], j + l + s)
            for j in p.orders()
            for l in comps
            if j + l + s >= 0
        ))
        neg = SymbolComponent(-acc.value, acc.at_point, acc.homogeneous)
        comps[target] = _mul_components(inv_lead_comp, neg)
    return GradedSymbol(label or f"({p.label})^-1", comps, -m, min_order)


# ---------------------------------------------------------------------------
# Homogeneity bookkeeping
# ---------------------------------------------------------------------------

def _poly_xi_degrees(pterms) -> set:
    degs = set()
    xi_ids = set(XI)
    for mono in pterms:
        degs.add(sum(e for s_, e in mono_items(mono) if s_ in xi_ids))
    return degs


def check_homogeneity(component: SymbolComponent, order: int) -> bool:
    """True when every coefficient is xi-homogeneous of the right degree."""
    if not component.homogeneous:
        return True  # exempted ground data
    for coeff in component.value.terms.values():
        nd = _poly_xi_degrees(coeff.num.terms)
        dd = _poly_xi_degrees(coeff.den.terms)
        if len(nd) > 1 or len(dd) > 1:
            return False
        if nd and dd and nd.pop() - dd.pop() != order:
            return False
    return True


# ---------------------------------------------------------------------------
# Builtin operator symbol library
# ---------------------------------------------------------------------------

SIGMA3_VARIANTS = ("printed", "xik")


def _sym_dirac(star: bool, off: Tuple[str, ...]) -> GradedSymbol:
    u = torsion_u(off)
    v = torsion_v(off)
    p0 = sigma0_dirac_lc() + u + (v if not star else -v)
    return GradedSymbol(
        "D_T*" if star else "D_T",
        {
            1: SymbolComponent(c_xi().scale(S_I), at_point=False),
            0: SymbolComponent(_at_point_value(p0), at_point=True),
        },
        top=1,
        known_down_to=0,
    )


def _sym_nabla2(off: Tuple[str, ...]) -> GradedSymbol:
    q = q_bilinear()
    sigma2 = CliffordExpr.scalar(-q)
    dyn_term = CliffordExpr.scalar(S_I * sym("X4") * sym("dYn") * xi_var(4))
    ax = spin_connection_term("X") + torsion_two_form("X", off)
    ay = spin_connection_term("Y") + torsion_two_form("Y", off)
    sigma1 = dyn_term + ay.scale(S_I * xdot_xi("X")) + ax.scale(S_I * xdot_xi("Y"))
    return GradedSymbol(
        "nablaXY",
        {
            2: SymbolComponent(sigma2, at_point=False),
            1: SymbolComponent(_at_point_value(sigma1), at_point=True),
        },
        top=2,
        known_down_to=1,
    )


def _sigma_m3_laplacian_ground(variant: str, off: Tuple[str, ...]) -> CliffordExpr:
    """Evaluated order -3 data of the inverse torsion Laplacian at x0."""
    if variant not in SIGMA3_VARIANTS:
        raise EngineError(f"unknown sigma_-3 variant {variant!r}")
    h1 = sym("h1")
    xin = xi_var(4)
    norm2 = norm_xi_sq().subst_shx_one()
    inv2 = norm2 ** -2
    inv3 = norm2 ** -3
    if variant == "printed":
        m_cliff = CL_ZERO
        for k in range(1, 4):
            m_cliff = m_cliff + (c_gen(k) * c_gen(4)).scale(xin)
    else:
        m_cliff = c_xi_prime(at_point=True) * c_gen(4)
    u = torsion_u(off)
    v = torsion_v(off)
    cxi = c_xi(at_point=True)
    bracket = CliffordExpr.scalar(h1 * xin * ScalarExpr.const(GRat(5) / GRat(2))) \
        - m_cliff.scale(h1 * ScalarExpr.const(GRat(1) / GRat(2)))
    term1 = bracket.scale(-S_I * inv2)
    term2 = CliffordExpr.scalar(
        ScalarExpr.const(GRat(0, -2)) * h1 * tangential_norm_sq() * xin * inv3
    )
    term3 = ((u - v).scale(S_I) * cxi + cxi.scale(S_I) * (u + v)).scale(-inv2)
    return term1 + term2 + term3


def _sym_laplacian_inv(variant: str, off: Tuple[str, ...]) -> GradedSymbol:
    norm2 = norm_xi_sq()
    return GradedSymbol(
        "(D_T*D_T)^-1",
        {
            -2: SymbolComponent(CliffordExpr.scalar(norm2 ** -1), at_point=False),
            -3: SymbolComponent(_sigma_m3_laplacian_ground(variant, off), at_point=True),
        },
        top=-2,
        known_down_to=-3,
    )


def _sym_dirac_inv(star: bool, off: Tuple[str, ...]) -> GradedSymbol:
    """Stated inverse symbols of the torsion Dirac operator at x0."""
    u = torsion_u(off)
    v = torsion_v(off)
    p0 = _at_point_value(sigma0_dirac_lc()) + u + (v if not star else -v)
    norm2 = norm_xi_sq().subst_shx_one()
    cxi = c_xi(at_point=True)
    dc = c_xi_prime(at_point=True).scale(S_HALF_H1.subst_shx_one())
    h1 = sym("h1")
    s_t = tangential_norm_sq()
    sigma_m2 = (cxi * p0 * cxi).scale(norm2 ** -2) + (
        cxi * c_gen(4) * (dc.scale(norm2) - cxi.scale(h1 * s_t))
    ).scale(norm2 ** -3)
    label = "(D_T*)^-1" if star else "D_T^-1"
    # order -1 is generic (shx-carrying) so normal derivatives can act on it
    sigma_m1_generic = c_xi().scale(S_I * norm_xi_sq() ** -1)
    return GradedSymbol(
        label,
        {
            -1: SymbolComponent(sigma_m1_generic, at_point=False),
            -2: SymbolComponent(sigma_m2, at_point=True),
        },
        top=-1,
        known_down_to=-2,
    )


def sigma2_cube_evaluated(off: Tuple[str, ...] = ()) -> CliffordExpr:
    """Order-2 symbol of the Dirac-cube combination, evaluated at x0.

    Connection data at x0: sigma^k = (1/4)h'(0)c(e_k)c(e_4) for k < 4 (zero
    for k = 4) and Gamma^k = (3/2)h'(0) delta_{k,4}, so
    (4 sigma^k - 2 Gamma^k) xi_k = h'(0) c(xi')c(dx_n) - 3 h'(0) xi_n.
    """
    h1 = sym("h1")
    xin = xi_var(4)
    norm2 = norm_xi_sq().subst_shx_one()
    cxi = c_xi(at_point=True)
    cxip = c_xi_prime(at_point=True)
    inner = (cxip * c_gen(4)).scale(h1) - CliffordExpr.scalar(
        ScalarExpr.const(3) * h1 * xin
    )
    u = torsion_u(off)
    v = torsion_v(off)
    lc_part = c_dxn().scale(h1 * ScalarExpr.const(GRat(-3) / GRat(4)) * norm2)
    return cxi * inner + lc_part + (u.scale(ScalarExpr.const(3)) - v).scale(norm2)


def _sigma_m4_cube_ground(off: Tuple[str, ...]) -> CliffordExpr:
    """Evaluated order -4 data of the inverse Dirac-cube combination at x0."""
    h1 = sym("h1")
    xin = xi_var(4)
    norm2 = norm_xi_sq().subst_shx_one()
    cxi = c_xi(at_point=True)
    dc = c_xi_prime(at_point=True).scale(S_HALF_H1.subst_shx_one())
    sandwich = (cxi * sigma2_cube_evaluated(off) * cxi).scale(norm2 ** -4)
    paren = (
        (c_gen(4) * dc).scale(norm2 ** 2)
        - (c_gen(4) * cxi).scale(ScalarExpr.const(2) * h1)
        + (cxi * dc).scale(ScalarExpr.const(2) * xin)
        + CliffordExpr.scalar(ScalarExpr.const(4) * xin * h1)
    )
    return sandwich + (cxi.scale(S_I) * paren).scale(norm2 ** -4)


def _sym_cube_inv(off: Tuple[str, ...]) -> GradedSymbol:
    norm2 = norm_xi_sq()
    return GradedSymbol(
        "(D_T*D_TD_T*)^-1",
        {
            -3: SymbolComponent(c_xi().scale(S_I * norm2 ** -2), at_point=False),
            -4: SymbolComponent(_sigma_m4_cube_ground(off), at_point=True,
                                homogeneous=False),
        },
        top=-3,
        known_down_to=-4,
    )


_BUILTIN_CACHE: Dict[Tuple[str, ...], GradedSymbol] = {}

# the operators whose symbol reads the sigma3 variant; the others are cached
# once, under the variant "printed", whichever variant is asked for
_READS_SIGMA3 = frozenset({"(D_T*D_T)^-1", "nablaXY(D_T*D_T)^-1"})


def builtin_symbol(operator_id: str, sigma3_variant: str = "printed",
                   off: Tuple[str, ...] = ()) -> GradedSymbol:
    """Stated graded symbols, with composites built by the composition formula.

    `off` names the torsion families ("A", "T", "V", in that order) whose
    atoms are built as 0; setting atoms to 0 is a ring homomorphism, so
    every stage downstream equals the switched full result.  Results are
    cached by (operator_id, sigma3_variant) plus `off`, and a composite
    takes its factors from this cache, so a process builds each symbol
    once; graded symbols are pure values and safe to share.
    """
    if operator_id not in _READS_SIGMA3:
        sigma3_variant = "printed"
    off = tuple(off)
    key = (operator_id, sigma3_variant) + off
    hit = _BUILTIN_CACHE.get(key)
    if hit is None:
        hit = _build_symbol(operator_id, sigma3_variant, off)
        _BUILTIN_CACHE[key] = hit
    return hit


def _build_symbol(operator_id: str, sigma3_variant: str, off: Tuple[str, ...]) -> GradedSymbol:
    def factor(factor_id: str) -> GradedSymbol:
        return builtin_symbol(factor_id, sigma3_variant, off)

    if operator_id == "D_T":
        return _sym_dirac(False, off)
    if operator_id == "D_T*":
        return _sym_dirac(True, off)
    if operator_id == "nablaXY":
        return _sym_nabla2(off)
    if operator_id == "D_T*D_T":
        return compose(factor("D_T*"), factor("D_T"), 1, label="D_T*D_T")
    if operator_id == "(D_T*D_T)^-1":
        return _sym_laplacian_inv(sigma3_variant, off)
    if operator_id == "D_T^-1":
        return _sym_dirac_inv(False, off)
    if operator_id == "(D_T*)^-1":
        return _sym_dirac_inv(True, off)
    if operator_id == "D_T*D_TD_T*":
        return compose(factor("D_T*D_T"), factor("D_T*"), 2, label="D_T*D_TD_T*")
    if operator_id == "(D_T*D_TD_T*)^-1":
        return _sym_cube_inv(off)
    if operator_id == "nablaXY(D_T*D_T)^-1":
        return compose(factor("nablaXY"), factor("(D_T*D_T)^-1"), -1,
                       label="nablaXY(D_T*D_T)^-1")
    if operator_id == "nablaXY D_T^-1":
        return compose(factor("nablaXY"), factor("D_T^-1"), 0, label="nablaXY D_T^-1")
    raise EngineError(f"unknown operator id {operator_id!r}")


def recomputed_symbol(operator_id: str, off: Tuple[str, ...] = ()) -> GradedSymbol:
    """Independent recomputation via invert() for the inverse-symbol library,
    from the builtin symbols with the torsion families in `off` built as 0."""
    if operator_id == "(D_T*D_T)^-1":
        return invert(builtin_symbol("D_T*D_T", "printed", off), -3,
                      label="(D_T*D_T)^-1 [recomputed]")
    if operator_id == "D_T^-1":
        return invert(builtin_symbol("D_T", "printed", off), -2, label="D_T^-1 [recomputed]")
    if operator_id == "(D_T*)^-1":
        return invert(builtin_symbol("D_T*", "printed", off), -2,
                      label="(D_T*)^-1 [recomputed]")
    if operator_id == "(D_T*D_TD_T*)^-1":
        return invert(builtin_symbol("D_T*D_TD_T*", "printed", off), -4,
                      label="(D_T*D_TD_T*)^-1 [recomputed]")
    raise EngineError(f"no recomputation route for {operator_id!r}")
