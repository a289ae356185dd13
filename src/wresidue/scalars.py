"""Exact multivariate rational functions over the Gaussian rationals.

The registry fixes a finite, ordered set of commuting formal indeterminates
(cotangent components, the metric profile data, vector-field components,
torsion/curvature atoms, and the transcendentals pi and Omega_3).  Polynomials
are sparse dicts keyed by monomials; rational functions are kept in canonical
form: gcd(numerator, denominator) = 1 and denominator monic under graded
lexicographic order in registry order.  Equality of canonical forms is the
engine's notion of symbolic equality.

All values are immutable after construction and safe to share between
workers; the registry is frozen at configuration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .gaussian import GRat, ONE, ZERO

Monomial = Tuple[Tuple[int, int], ...]  # sorted ((sym_id, exp), ...), exp > 0

MONO_ONE: Monomial = ()


class EngineError(ValueError):
    """Rejection with diagnostic: raised on contract violations."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

KIND_TANGENTIAL = "cotangent-tangential"
KIND_NORMAL = "cotangent-normal"
KIND_GEOMETRIC = "geometric"
KIND_TRANSCENDENTAL = "transcendental"


@dataclass(frozen=True)
class Indeterminate:
    sym_id: int
    name: str
    kind: str
    family: Optional[str] = None  # e.g. "A", "T", "V", "R" for switchable atoms


class Registry:
    """Ordered table of indeterminates; the order fixes the monomial order."""

    def __init__(self):
        self._by_name: Dict[str, Indeterminate] = {}
        self._by_id: List[Indeterminate] = []
        self._frozen = False

    def register(self, name: str, kind: str, family: Optional[str] = None) -> int:
        if self._frozen:
            raise EngineError(f"registry frozen; cannot register {name!r}")
        if name in self._by_name:
            raise EngineError(f"duplicate indeterminate name {name!r}")
        sym = Indeterminate(len(self._by_id), name, kind, family)
        self._by_name[name] = sym
        self._by_id.append(sym)
        return sym.sym_id

    def freeze(self):
        self._frozen = True

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name].sym_id
        except KeyError:
            raise EngineError(f"unknown indeterminate {name!r}") from None

    def name_of(self, sym_id: int) -> str:
        return self._by_id[sym_id].name

    def names(self) -> List[str]:
        return [s.name for s in self._by_id]

    def ids_of_family(self, family: str) -> List[int]:
        return [s.sym_id for s in self._by_id if s.family == family]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_id)


def default_registry(n: int = 4) -> Registry:
    """The engine's standard registry for the n = 4 boundary pipelines.

    Antisymmetric families store only canonically ordered indices; the atom
    constructors below normalize index order with sign.
    """
    reg = Registry()
    # cotangent variables: xi1..xi3 tangential, xin normal
    for j in range(1, n):
        reg.register(f"xi{j}", KIND_TANGENTIAL)
    reg.register("xin", KIND_NORMAL)
    # metric profile sqrt(h(x_n)) along the collar (1 at the base point) and h'(0)
    reg.register("shx", KIND_GEOMETRIC)
    reg.register("h1", KIND_GEOMETRIC)
    # vector-field components and the one kept derivative dYn = dY_n/dx_n
    for j in range(1, n + 1):
        reg.register(f"X{j}", KIND_GEOMETRIC)
    for j in range(1, n + 1):
        reg.register(f"Y{j}", KIND_GEOMETRIC)
    reg.register("dYn", KIND_GEOMETRIC)
    # torsion coefficients A[i,s,t], antisymmetric in (s,t): store s < t
    for i in range(1, n + 1):
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                reg.register(f"A[{i},{s},{t}]", KIND_GEOMETRIC, family="A")
    # three-form components T[a,i,j], antisymmetric in (i,j)
    for a in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                reg.register(f"T[{a},{i},{j}]", KIND_GEOMETRIC, family="T")
    # vector field V
    for k in range(1, n + 1):
        reg.register(f"V[{k}]", KIND_GEOMETRIC, family="V")
    # curvature atoms R[a,b,s,t], antisymmetric in (a,b) and in (s,t)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for s in range(1, n + 1):
                for t in range(s + 1, n + 1):
                    reg.register(f"R[{a},{b},{s},{t}]", KIND_GEOMETRIC, family="R")
    # interior-functional atom families
    reg.register("dT4[1,2,3,4]", KIND_GEOMETRIC, family="T")  # four-form coefficient
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    reg.register(f"dT2[{a},{b},{i},{j}]", KIND_GEOMETRIC, family="T")
    for a in range(1, n + 1):
        for k in range(1, n + 1):
            reg.register(f"dV[{a},{k}]", KIND_GEOMETRIC, family="V")
    for k in range(1, n + 1):
        reg.register(f"w[{k}]", KIND_GEOMETRIC)
    # scalar curvature atoms and contractions
    reg.register("Rg", KIND_GEOMETRIC)
    reg.register("s_scal", KIND_GEOMETRIC)
    reg.register("RicVW", KIND_GEOMETRIC)
    reg.register("divV", KIND_GEOMETRIC)
    reg.register("normT2", KIND_GEOMETRIC)
    reg.register("normV2", KIND_GEOMETRIC)
    reg.register("gVW", KIND_GEOMETRIC)
    reg.register("gXTYT", KIND_GEOMETRIC)  # reporting atom for g(X^T, Y^T)
    # transcendentals, never evaluated
    reg.register("pi", KIND_TRANSCENDENTAL)
    reg.register("Omega3", KIND_TRANSCENDENTAL)
    reg.freeze()
    return reg


REG = default_registry()
N_DIM = 4

XI = tuple(REG.id_of(f"xi{j}") for j in range(1, 4)) + (REG.id_of("xin"),)
XIN = REG.id_of("xin")
SHX = REG.id_of("shx")
H1 = REG.id_of("h1")
PI = REG.id_of("pi")
OMEGA3 = REG.id_of("Omega3")


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for sym, exp in b:
        merged[sym] = merged.get(sym, 0) + exp
    return tuple(sorted(merged.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


_MONO_KEY_CACHE: Dict[Monomial, tuple] = {}


def mono_key(m: Monomial):
    """Graded lexicographic key; earlier registry ids rank higher.

    Larger key = larger monomial.  Lex tie-break: compare exponents variable
    by variable in registry order; a higher exponent on the earliest differing
    variable wins, so the exponent of a small sym_id is compared first and
    missing variables count as 0.  Encode as (degree, tuple of (-sym_id, exp)
    sorted so that comparison walks ascending sym_id).
    """
    key = _MONO_KEY_CACHE.get(m)
    if key is None:
        key = (mono_degree(m), tuple((-sym, exp) for sym, exp in m))
        if len(_MONO_KEY_CACHE) < 500_000:
            _MONO_KEY_CACHE[m] = key
    return key


def mono_divides(a: Monomial, b: Monomial) -> bool:
    da = dict(a)
    for sym, exp in b:
        if da.get(sym, 0) < exp:
            return False
    return True


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    da = dict(a)
    for sym, exp in b:
        da[sym] -= exp
    return tuple(sorted((s, e) for s, e in da.items() if e))


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse multivariate polynomial with GRat coefficients.

    Invariant: no stored coefficient is zero, so the zero polynomial is the
    empty dict and equal polynomials have equal term dicts (``is_zero``,
    ``__eq__``, ``__hash__`` and ``poly_text`` rely on this).  The
    constructor drops zero coefficients from the dict it is given.
    ``_trusted=True`` skips that scan; pass it only for a dict that already
    holds no zero coefficient.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Optional[Dict[Monomial, GRat]] = None, _trusted: bool = False):
        if terms is None:
            terms = {}
        elif not _trusted and any(c.is_zero() for c in terms.values()):
            terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self.terms: Dict[Monomial, GRat] = terms
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = GRat.of(c)
        return Poly({} if c.is_zero() else {MONO_ONE: c}, _trusted=True)

    @staticmethod
    def var(sym_id: int, exp: int = 1) -> "Poly":
        return Poly({((sym_id, exp),): ONE}, _trusted=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def const_value(self) -> GRat:
        if self.is_zero():
            return ZERO
        if not self.is_const():
            raise EngineError("polynomial is not constant")
        return self.terms[MONO_ONE]

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for sym, _ in m:
                out.add(sym)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(out, _trusted=True)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out: Dict[Monomial, GRat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(m)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly(out, _trusted=True)

    def scale(self, c) -> "Poly":
        c = GRat.of(c)
        if c.is_zero():
            return Poly()
        return Poly({m: cf * c for m, cf in self.terms.items()}, _trusted=True)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise EngineError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- structure ---------------------------------------------------------

    def leading(self) -> Tuple[Monomial, GRat]:
        if self.is_zero():
            raise EngineError("leading term of zero polynomial")
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def degree_in(self, sym_id: int) -> int:
        deg = -1 if self.is_zero() else 0
        for m in self.terms:
            for sym, exp in m:
                if sym == sym_id and exp > deg:
                    deg = exp
        return deg

    def coeffs_in(self, sym_id: int) -> Dict[int, "Poly"]:
        """View as univariate in sym_id: degree -> coefficient Poly."""
        out: Dict[int, Dict[Monomial, GRat]] = {}
        for m, c in self.terms.items():
            d = 0
            rest = []
            for sym, exp in m:
                if sym == sym_id:
                    d = exp
                else:
                    rest.append((sym, exp))
            out.setdefault(d, {})[tuple(rest)] = c
        return {d: Poly(t, _trusted=True) for d, t in out.items()}

    def diff(self, sym_id: int) -> "Poly":
        out: Dict[Monomial, GRat] = {}
        for m, c in self.terms.items():
            for idx, (sym, exp) in enumerate(m):
                if sym == sym_id:
                    nm = list(m)
                    if exp == 1:
                        nm.pop(idx)
                    else:
                        nm[idx] = (sym, exp - 1)
                    key = tuple(nm)
                    add = c * exp
                    acc = out.get(key)
                    s = add if acc is None else acc + add
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
                    break
        return Poly(out, _trusted=True)

    def eval_numeric(self, bindings: Mapping[int, GRat]) -> GRat:
        total = ZERO
        pow_cache: Dict[Tuple[int, int], GRat] = {}
        for m, c in self.terms.items():
            val = c
            for sym, exp in m:
                key = (sym, exp)
                pv = pow_cache.get(key)
                if pv is None:
                    if sym not in bindings:
                        raise EngineError(
                            f"unbound indeterminate {REG.name_of(sym)!r} "
                            "in numeric evaluation"
                        )
                    pv = bindings[sym] ** exp
                    pow_cache[key] = pv
                val = val * pv
            total = total + val
        return total

    def __repr__(self):
        return f"Poly({poly_text(self)})"


P_ZERO = Poly()
P_ONE = Poly.const(1)


def poly_text(p: Poly) -> str:
    """Canonical text: monomials in descending graded-lex order."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=mono_key, reverse=True):
        c = p.terms[m]
        factors = [f"{REG.name_of(sym)}" + (f"^{exp}" if exp > 1 else "") for sym, exp in m]
        body = "*".join(factors)
        cs = str(c)
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        parts.append(f"{cs}*{body}" if body else cs)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Exact division and gcd (primitive PRS)
# ---------------------------------------------------------------------------

def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises if b does not divide a.

    Heap-driven long division: the running remainder is a coefficient dict
    plus a max-heap of candidate leading monomials, so each reduction step
    costs O(|b| log n) instead of a fresh max scan.
    """
    import heapq

    if b.is_zero():
        raise EngineError("zero denominator in exact division")
    if a.is_zero():
        return Poly()
    if b.is_const():
        inv = b.const_value().inverse()
        return a.scale(inv)
    bm, bc = b.leading()
    b_rest = [(m, c) for m, c in b.terms.items() if m != bm]
    bc_inv = bc.inverse()
    rem: Dict[Monomial, GRat] = dict(a.terms)
    heap: List[tuple] = []
    seen = set()

    def push(m: Monomial):
        if m not in seen:
            seen.add(m)
            k = mono_key(m)
            heapq.heappush(heap, (-k[0], tuple((-x, -y) for x, y in k[1]), m))

    for m in rem:
        push(m)
    quo: Dict[Monomial, GRat] = {}
    while heap:
        _, _, rm = heapq.heappop(heap)
        seen.discard(rm)
        rc = rem.pop(rm, None)
        if rc is None or rc.is_zero():
            continue
        if not mono_divides(rm, bm):
            raise EngineError("inexact polynomial division")
        qm = mono_div(rm, bm)
        qc = rc * bc_inv
        quo[qm] = qc
        for m2, c2 in b_rest:
            tm = mono_mul(qm, m2)
            sub = qc * c2
            cur = rem.get(tm)
            val = -sub if cur is None else cur - sub
            if val.is_zero():
                rem.pop(tm, None)
            else:
                rem[tm] = val
                push(tm)
    if rem:
        raise EngineError("inexact polynomial division")
    return Poly(quo, _trusted=True)


def _prem(a: Poly, b: Poly, x: int) -> Poly:
    """Pseudo-remainder of a by b as univariate polynomials in x."""
    da, db = a.degree_in(x), b.degree_in(x)
    if db < 0:
        raise EngineError("pseudo-division by zero")
    bc = b.coeffs_in(x)
    lb = bc[db]
    r = a
    while not r.is_zero():
        dr = r.degree_in(x)
        if dr < db:
            break
        rc = r.coeffs_in(x)
        lr = rc[dr]
        # r <- lb * r - lr * x^(dr-db) * b
        r = lb * r - lr * (Poly.var(x, dr - db) if dr > db else Poly.const(1)) * b
    return r


def _content_and_primitive(a: Poly, x: int) -> Tuple[Poly, Poly]:
    coeffs = list(a.coeffs_in(x).values())
    cont = Poly()
    for c in coeffs:
        cont = poly_gcd(cont, c)
        if cont.is_const() and not cont.is_zero():
            cont = Poly.const(1)
            break
    if cont.is_zero():
        return Poly.const(1), a
    return cont, poly_divexact(a, cont)


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    if lc.is_one():
        return p
    return p.scale(lc.inverse())


_GCD_CACHE: Dict[Tuple[Poly, Poly], Poly] = {}
_GCD_CACHE_LIMIT = 200_000


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i) via the primitive Euclidean algorithm (cached).

    Denominators in this engine are power products of a handful of known
    irreducible polynomials; when one operand factors over that base set the
    gcd reduces to multiplicity counting, avoiding the general recursion.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_const() or b.is_const():
        return Poly.const(1)
    key = (a, b) if hash(a) <= hash(b) else (b, a)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    out = _structured_gcd(a, b)
    if out is None:
        out = _poly_gcd_uncached(a, b)
    if len(_GCD_CACHE) < _GCD_CACHE_LIMIT:
        _GCD_CACHE[key] = out
    return out


def _poly_gcd_uncached(a: Poly, b: Poly) -> Poly:
    avars, bvars = a.variables(), b.variables()
    common = avars | bvars
    x = max(common)
    if x not in avars or x not in bvars:
        # main variable absent from one side: gcd divides the other's content
        if x in avars:
            cont, _ = _content_and_primitive(a, x)
            return poly_gcd(cont, b)
        cont, _ = _content_and_primitive(b, x)
        return poly_gcd(a, cont)
    ca, pa = _content_and_primitive(a, x)
    cb, pb = _content_and_primitive(b, x)
    cg = poly_gcd(ca, cb)
    f, g = pa, pb
    if f.degree_in(x) < g.degree_in(x):
        f, g = g, f
    while not g.is_zero():
        r = _prem(f, g, x)
        if r.is_zero():
            f = g
            break
        _, r = _content_and_primitive(r, x)
        f, g = g, r
    _, pf = _content_and_primitive(f, x)
    return _monic(cg * pf)


# ---------------------------------------------------------------------------
# Structured gcd over the engine's known irreducible denominators
# ---------------------------------------------------------------------------

import random as _random

_WITNESS_RNG = _random.Random(0x5EED)


GaussInt = Tuple[int, int]


def _gauss_int_eval(p: Poly, bindings: List[GaussInt]) -> Tuple[int, int, int]:
    """Evaluate p at Gaussian-integer bindings (indexed by sym_id).

    Returns (re, im, den) with den > 0 and p = (re + im*i)/den, not reduced.
    Everything runs in plain integers over a running common denominator, so
    the value vanishes exactly when re == im == 0.  Used by the
    divisibility witnesses.
    """
    pow_cache: Dict[Tuple[int, int], GaussInt] = {}
    tot_re = tot_im = 0
    den = 1
    for m, c in p.terms.items():
        vr, vi = 1, 0
        for sym, exp in m:
            key = (sym, exp)
            pv = pow_cache.get(key)
            if pv is None:
                br, bi = bindings[sym]
                pr, pi_ = 1, 0
                for _ in range(exp):
                    pr, pi_ = pr * br - pi_ * bi, pr * bi + pi_ * br
                pv = (pr, pi_)
                pow_cache[key] = pv
            vr, vi = vr * pv[0] - vi * pv[1], vr * pv[1] + vi * pv[0]
        a, b, d = c.a, c.b, c.d
        if d != den:
            if den % d:
                scale = d // gcd(den, d)
                tot_re *= scale
                tot_im *= scale
                den *= scale
            scale = den // d
            a *= scale
            b *= scale
        tot_re += a * vr - b * vi
        tot_im += a * vi + b * vr
    return tot_re, tot_im, den


def _known_bases() -> List[Tuple[Poly, List[List[GaussInt]]]]:
    """Irreducible monic polynomials whose powers form every denominator.

    Each entry carries two fixed random Gaussian-integer points on the base's
    zero set, used as a sound fast filter (nonvanishing there rules out
    divisibility) before attempting exact division.
    """
    def fill(base_bnd: Dict[int, GaussInt]) -> List[GaussInt]:
        out = []
        for v in range(len(REG)):
            out.append(base_bnd.get(v, (_WITNESS_RNG.randint(2, 97), 0)))
        return out

    def sphere_points(with_shx: bool) -> List[List[GaussInt]]:
        pts = []
        for _ in range(2):
            aa = _WITNESS_RNG.randint(2, 9)
            bb = _WITNESS_RNG.randint(10, 17)
            sh = _WITNESS_RNG.randint(2, 7) if with_shx else 1
            # xi1 = a^2-b^2, xi2 = 2ab, xi3 = 0 makes |xi'| a perfect square
            bnd: Dict[int, GaussInt] = {
                XI[0]: (aa * aa - bb * bb, 0),
                XI[1]: (2 * aa * bb, 0),
                XI[2]: (0, 0),
                XIN: (0, sh * (aa * aa + bb * bb)),
            }
            if with_shx:
                bnd[SHX] = (sh, 0)
            pts.append(fill(bnd))
        return pts

    lin_minus = Poly.var(XIN) + Poly.const(GRat(0, -1))
    lin_plus = Poly.var(XIN) + Poly.const(GRat(0, 1))
    s_tang = Poly.var(XI[0], 2) + Poly.var(XI[1], 2) + Poly.var(XI[2], 2)
    sphere = s_tang + Poly.var(XIN, 2)
    sphere_shx = Poly.var(SHX, 2) * s_tang + Poly.var(XIN, 2)
    return [
        (lin_minus, [fill({XIN: (0, 1)}) for _ in range(2)]),
        (lin_plus, [fill({XIN: (0, -1)}) for _ in range(2)]),
        (sphere, sphere_points(False)),
        (sphere_shx, sphere_points(True)),
    ]


_BASES: Optional[List[Tuple[Poly, List[List[GaussInt]]]]] = None
_FACTOR_CACHE: Dict[Poly, Optional[Tuple[GRat, Tuple[Tuple[int, int], ...]]]] = {}
_MULT_CACHE: Dict[Tuple[Poly, int], int] = {}


def _vanishes_at_witnesses(p: Poly, base_idx: int) -> bool:
    base, points = _BASES[base_idx]
    base_vars = base.variables()
    if not base_vars <= p.variables():
        return False  # a multiple of the base must involve all its variables
    for bnd in points:
        re, im, _ = _gauss_int_eval(p, bnd)
        if re or im:
            return False
    return True


def _factor_known(p: Poly):
    """p = const * prod base_i^mult_i over the known bases, or None."""
    global _BASES
    if _BASES is None:
        _BASES = _known_bases()
    if p in _FACTOR_CACHE:
        return _FACTOR_CACHE[p]
    work = p
    factors: List[Tuple[int, int]] = []
    for idx, (base, _) in enumerate(_BASES):
        mult = 0
        while not work.is_const():
            if not _vanishes_at_witnesses(work, idx):
                break
            try:
                candidate = poly_divexact(work, base)
            except EngineError:
                break
            work = candidate
            mult += 1
        if mult:
            factors.append((idx, mult))
        if work.is_const():
            break
    out = (work.const_value(), tuple(factors)) if work.is_const() else None
    if len(_FACTOR_CACHE) < _GCD_CACHE_LIMIT:
        _FACTOR_CACHE[p] = out
    return out


def _multiplicity_in(a: Poly, base_idx: int, cap: int) -> int:
    """Multiplicity of the indexed base in a, witness-filtered and cached."""
    key = (a, base_idx)
    hit = _MULT_CACHE.get(key)
    if hit is not None:
        return min(hit, cap)
    base = _BASES[base_idx][0]
    mult = 0
    work = a
    while True:
        if not _vanishes_at_witnesses(work, base_idx):
            break
        try:
            work = poly_divexact(work, base)
        except EngineError:
            break
        mult += 1
    if len(_MULT_CACHE) < _GCD_CACHE_LIMIT:
        _MULT_CACHE[key] = mult
    return min(mult, cap)


def _structured_gcd(a: Poly, b: Poly) -> Optional[Poly]:
    fb = _factor_known(b)
    if fb is not None:
        other = a
    else:
        fb = _factor_known(a)
        if fb is None:
            return None
        other = b
    _, factors = fb
    out = P_ONE
    for idx, mult in factors:
        m = _multiplicity_in(other, idx, mult)
        if m:
            out = out * _BASES[idx][0] ** m
    return out


# ---------------------------------------------------------------------------
# Rational functions in canonical form
# ---------------------------------------------------------------------------

class ScalarExpr:
    """Canonical rational function: gcd(num, den) = 1, den monic, 0 = 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _canonical: bool = False):
        if _canonical:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise EngineError("zero denominator")
        if num.is_zero():
            self.num, self.den = P_ZERO, P_ONE
            return
        if den.is_const():
            c = den.const_value()
            if c.is_one():
                self.num, self.den = num, den
            else:
                self.num, self.den = num.scale(c.inverse()), P_ONE
            return
        g = poly_gcd(num, den)
        if not (g.is_const() and not g.is_zero()):
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        _, lc = den.leading()
        if not lc.is_one():
            inv = lc.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "ScalarExpr":
        return ScalarExpr(Poly.const(c), P_ONE, _canonical=not GRat.of(c).is_zero())

    @staticmethod
    def var(name_or_id, exp: int = 1) -> "ScalarExpr":
        sym = name_or_id if isinstance(name_or_id, int) else REG.id_of(name_or_id)
        return ScalarExpr(Poly.var(sym, exp), P_ONE, _canonical=True)

    @staticmethod
    def from_poly(p: Poly) -> "ScalarExpr":
        if p.is_zero():
            return S_ZERO
        return ScalarExpr(p, P_ONE, _canonical=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == P_ONE

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return ScalarExpr(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            return ScalarExpr(self.num * other.den + other.num * self.den, self.den * other.den)
        d1 = poly_divexact(self.den, g)
        d2 = poly_divexact(other.den, g)
        return ScalarExpr(self.num * d2 + other.num * d1, d1 * other.den)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-_as_scalar(other))

    def __rsub__(self, other):
        return _as_scalar(other) - self

    def __mul__(self, other):
        other = _as_scalar(other)
        if self.is_zero() or other.is_zero():
            return S_ZERO
        return ScalarExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExpr":
        if self.is_zero():
            raise EngineError("zero denominator: inverse of zero")
        return ScalarExpr(self.den, self.num)

    def __truediv__(self, other):
        return self * _as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = S_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, GRat)):
            other = ScalarExpr.const(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus ----------------------------------------------------------

    def differentiate(self, name_or_id) -> "ScalarExpr":
        sym = name_or_id if isinstance(name_or_id, int) else REG.id_of(name_or_id)
        dn = self.num.diff(sym)
        dd = self.den.diff(sym)
        if dd.is_zero():
            return ScalarExpr(dn, self.den)
        return ScalarExpr(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, bindings: Mapping) -> "ScalarExpr":
        """Simultaneous substitution indeterminate -> ScalarExpr, then normalize."""
        ids: Dict[int, ScalarExpr] = {}
        for key, val in bindings.items():
            sym = key if isinstance(key, int) else REG.id_of(key)
            ids[sym] = _as_scalar(val)
        num = _poly_subst(self.num, ids)
        den = _poly_subst(self.den, ids)
        if den.is_zero():
            raise EngineError("zero denominator after substitution")
        return num / den

    def evaluate(self, bindings: Mapping) -> GRat:
        ids: Dict[int, GRat] = {}
        for key, val in bindings.items():
            sym = key if isinstance(key, int) else REG.id_of(key)
            ids[sym] = GRat.of(val)
        den = self.den.eval_numeric(ids)
        if den.is_zero():
            raise EngineError("zero denominator at evaluation point")
        return self.num.eval_numeric(ids) / den

    def subst_shx_one(self) -> "ScalarExpr":
        """Evaluate the metric profile at the boundary point (shx -> 1)."""
        if SHX not in self.variables():
            return self
        num = _poly_subst_one(self.num, SHX)
        den = _poly_subst_one(self.den, SHX)
        if den.is_zero():
            raise EngineError("zero denominator at shx = 1")
        return ScalarExpr(num, den)

    def restrict_sphere(self) -> "ScalarExpr":
        """Evaluate at the boundary point on the unit tangential co-sphere.

        Substitutes shx -> 1 and reduces modulo xi1^2+xi2^2+xi3^2 = 1 by
        eliminating even powers of xi3.
        """
        num = _poly_reduce_sphere(_poly_subst_one(self.num, SHX))
        den = _poly_reduce_sphere(_poly_subst_one(self.den, SHX))
        if den.is_zero():
            raise EngineError("zero denominator after sphere restriction")
        return ScalarExpr(num, den)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        if self.is_poly():
            return poly_text(self.num)
        return f"({poly_text(self.num)}) / ({poly_text(self.den)})"

    def __repr__(self):
        return f"ScalarExpr({self.text()})"


S_ZERO = ScalarExpr(P_ZERO, P_ONE, _canonical=True)
S_ONE = ScalarExpr(P_ONE, P_ONE, _canonical=True)
S_I = ScalarExpr.const(GRat(0, 1))


def _as_scalar(v) -> ScalarExpr:
    if isinstance(v, ScalarExpr):
        return v
    if isinstance(v, (int, GRat)):
        return ScalarExpr.const(v)
    raise EngineError(f"cannot coerce {v!r} to ScalarExpr")


def _poly_subst(p: Poly, ids: Dict[int, ScalarExpr]) -> "ScalarExpr | Poly":
    """Substitute into a polynomial; returns ScalarExpr (bindings may be rational)."""
    total = S_ZERO
    for m, c in p.terms.items():
        term = ScalarExpr.const(c)
        for sym, exp in m:
            if sym in ids:
                term = term * (ids[sym] ** exp)
            else:
                term = term * ScalarExpr(Poly.var(sym, exp), P_ONE, _canonical=True)
        total = total + term
    return total


def _poly_subst_one(p: Poly, sym: int) -> Poly:
    """Substitute sym -> 1 inside a polynomial (cheap special case)."""
    out: Dict[Monomial, GRat] = {}
    for m, c in p.terms.items():
        nm = tuple((s, e) for s, e in m if s != sym)
        acc = out.get(nm)
        s2 = c if acc is None else acc + c
        if s2.is_zero():
            out.pop(nm, None)
        else:
            out[nm] = s2
    return Poly(out, _trusted=True)


_XI3 = XI[2]
_SPHERE_COMPLEMENT = Poly.const(1) - Poly.var(XI[0], 2) - Poly.var(XI[1], 2)


def _poly_reduce_sphere(p: Poly) -> Poly:
    """Reduce mod (xi1^2+xi2^2+xi3^2-1): xi3^(2k+r) -> (1-xi1^2-xi2^2)^k xi3^r."""
    out = Poly()
    for m, c in p.terms.items():
        e3 = 0
        rest = []
        for sym, exp in m:
            if sym == _XI3:
                e3 = exp
            else:
                rest.append((sym, exp))
        if e3 < 2:
            out = out + Poly({m: c}, _trusted=True)
            continue
        k, r = divmod(e3, 2)
        base: Dict[Monomial, GRat] = {tuple(rest): c}
        term = Poly(base, _trusted=True) * (_SPHERE_COMPLEMENT ** k)
        if r:
            term = term * Poly.var(_XI3)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Normalization entry point and atom constructors
# ---------------------------------------------------------------------------

def normalize(num: Poly, den: Poly) -> ScalarExpr:
    """Canonicalize a raw ratio of polynomials (spec operation)."""
    return ScalarExpr(num, den)


def sym(name: str) -> ScalarExpr:
    return ScalarExpr.var(name)


def _signed_atom(name_sorted: str, sign: int) -> ScalarExpr:
    v = ScalarExpr.var(name_sorted)
    return v if sign > 0 else -v


def atom_A(i: int, s: int, t: int) -> ScalarExpr:
    """Torsion coefficient A[i,s,t]; antisymmetric in (s,t)."""
    if s == t:
        return S_ZERO
    if s < t:
        return ScalarExpr.var(f"A[{i},{s},{t}]")
    return -ScalarExpr.var(f"A[{i},{t},{s}]")


def atom_T(a: int, i: int, j: int) -> ScalarExpr:
    """Three-form component T[a,i,j]; antisymmetric in (i,j)."""
    if i == j:
        return S_ZERO
    if i < j:
        return ScalarExpr.var(f"T[{a},{i},{j}]")
    return -ScalarExpr.var(f"T[{a},{j},{i}]")


def atom_V(k: int) -> ScalarExpr:
    return ScalarExpr.var(f"V[{k}]")


def atom_R(a: int, b: int, s: int, t: int) -> ScalarExpr:
    """Curvature atom R[a,b,s,t]; antisymmetric in (a,b) and in (s,t)."""
    sign = 1
    if a == b or s == t:
        return S_ZERO
    if a > b:
        a, b = b, a
        sign = -sign
    if s > t:
        s, t = t, s
        sign = -sign
    return _signed_atom(f"R[{a},{b},{s},{t}]", sign)


def atom_dT2(a: int, b: int, i: int, j: int) -> ScalarExpr:
    """Frame derivative e_a(T(e_b, e_i, e_j)); antisymmetric in (i,j)."""
    if i == j:
        return S_ZERO
    if i < j:
        return ScalarExpr.var(f"dT2[{a},{b},{i},{j}]")
    return -ScalarExpr.var(f"dT2[{a},{b},{j},{i}]")


def atom_dV(a: int, k: int) -> ScalarExpr:
    return ScalarExpr.var(f"dV[{a},{k}]")


def atom_dT4(perm: Sequence[int]) -> ScalarExpr:
    """Four-form coefficient dT(e_i,e_j,e_k,e_l); totally antisymmetric."""
    idx = list(perm)
    if sorted(idx) != [1, 2, 3, 4]:
        if len(set(idx)) != 4:
            return S_ZERO
        raise EngineError(f"four-form indices out of range: {idx}")
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if idx[i] > idx[j]:
                sign = -sign
    return _signed_atom("dT4[1,2,3,4]", sign)


def norm_xi_sq() -> ScalarExpr:
    """|xi|^2 in the collar chart: shx^2*(xi1^2+xi2^2+xi3^2) + xin^2."""
    s = Poly()
    for j in range(3):
        s = s + Poly.var(XI[j], 2)
    return ScalarExpr.from_poly(Poly.var(SHX, 2) * s + Poly.var(XIN, 2))


def tangential_norm_sq() -> ScalarExpr:
    s = Poly()
    for j in range(3):
        s = s + Poly.var(XI[j], 2)
    return ScalarExpr.from_poly(s)


def zero_torsion_bindings(a: bool = True, t: bool = True, v: bool = True) -> Dict[int, ScalarExpr]:
    """Bindings switching off the selected torsion atom families."""
    out: Dict[int, ScalarExpr] = {}
    if a:
        for sid in REG.ids_of_family("A"):
            out[sid] = S_ZERO
    if t:
        for sid in REG.ids_of_family("T"):
            out[sid] = S_ZERO
        out[REG.id_of("normT2")] = S_ZERO
    if v:
        for sid in REG.ids_of_family("V"):
            out[sid] = S_ZERO
        out[REG.id_of("normV2")] = S_ZERO
        out[REG.id_of("divV")] = S_ZERO
    return out
