"""Exact multivariate rational functions over the Gaussian rationals.

The registry fixes a finite, ordered set of commuting formal indeterminates
(cotangent components, the metric profile data, vector-field components,
torsion/curvature atoms, and the transcendentals pi and Omega_3).  Polynomials
are sparse dicts keyed by monomials; rational functions are kept in canonical
form: gcd(numerator, denominator) = 1 and denominator monic under graded
lexicographic order in registry order.  Equality of canonical forms is the
engine's notion of symbolic equality.

A monomial is one Python int with one 8-bit field per indeterminate.  Read
as big-endian bytes, byte 0 holds the total degree and byte 1 + s the
exponent of registry id s, so id 0 is the most significant exponent field:

    m = deg << (8 * n)  +  sum_s  exp_s << (8 * (n - 1 - s))     (n = len(REG))

Comparing two such ints compares the degrees first and then the exponents
field by field in registry order, which is exactly graded lexicographic
order with earlier ids ranking higher.  A product of monomials is the sum
of their ints, a quotient their difference, and b divides a exactly when
a - b + G keeps the top (guard) bit of every field, G having only those
bits set.  This needs every exponent and every total degree to stay at or
below 127 (the guard bit clear): building a larger monomial raises
`EngineError`.  `mono_items` is the one decoder back to (sym, exp) pairs.

All values are immutable after construction and safe to share between
workers; the registry is frozen at configuration time.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from math import prod
from operator import getitem, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .gaussian import GRat, ONE, ZERO

Monomial = int  # packed exponent fields; see the module docstring


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

_NSYM = len(REG)
_NBYTES = _NSYM + 1
_DEG_SHIFT = 8 * _NSYM
MAX_EXP = 127
_DEG_LIMIT = (MAX_EXP + 1) << _DEG_SHIFT
_SHIFT = tuple(8 * (_NSYM - 1 - s) for s in range(_NSYM))
_UNIT = tuple((1 << sh) | (1 << _DEG_SHIFT) for sh in _SHIFT)
_GUARD = int.from_bytes(b"\x80" * _NBYTES, "big")
_SYMS = range(_NSYM)

MONO_ONE: Monomial = 0
_ONE_TERMS = {MONO_ONE: ONE}


def mono_pack(items) -> Monomial:
    """The monomial prod sym^exp of the (sym, exp) pairs; exponents add up."""
    m = 0
    for s, e in items:
        if not 0 <= s < _NSYM:
            raise EngineError(f"unknown indeterminate id {s}")
        if not 0 <= e <= MAX_EXP:
            raise EngineError(f"exponent {e} outside 0..{MAX_EXP}")
        m += e * _UNIT[s]
    if m >= _DEG_LIMIT:
        raise EngineError(f"monomial degree exceeds {MAX_EXP}")
    return m


def mono_items(m: Monomial) -> Tuple[Tuple[int, int], ...]:
    """The (sym, exp) pairs of m with exp > 0, in ascending sym order."""
    b = m.to_bytes(_NBYTES, "big")
    return tuple((s, b[s + 1]) for s in compress(_SYMS, b[1:]))


def mono_mask(syms) -> int:
    """Every bit of the exponent fields of syms: m & mono_mask(syms) is 0
    exactly when m holds none of them."""
    return sum(0xFF << _SHIFT[s] for s in set(syms))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when b divides a: a - b + guard keeps every field's guard bit."""
    return (a - b + _GUARD) & _GUARD == _GUARD


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse multivariate polynomial with GRat coefficients.

    ``terms`` maps packed monomials (see the module docstring) to
    coefficients.  Invariant: no stored coefficient is zero, so the zero
    polynomial is the empty dict and equal polynomials have equal term dicts
    (``is_zero``, ``__eq__``, ``__hash__`` and ``poly_text`` rely on this).
    The checking constructor also accepts ``((sym, exp), ...)`` tuple keys,
    packs them (summing terms whose keys pack alike) and drops zero
    coefficients.  ``_trusted=True`` skips those steps; pass it only for a
    dict of packed keys that holds no zero coefficient.  No exponent and no
    total degree may exceed 127: ``var``, ``mono_pack`` and ``*`` raise
    `EngineError` instead of letting a field carry into its neighbour.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Optional[Dict[Monomial, GRat]] = None, _trusted: bool = False):
        if terms is None:
            terms = {}
        elif not _trusted:
            packed: Dict[Monomial, GRat] = {}
            for m, c in terms.items():
                if not isinstance(m, int):
                    m = mono_pack(m)
                acc = packed.get(m)
                packed[m] = c if acc is None else acc + c
            terms = {m: c for m, c in packed.items() if not c.is_zero()}
        self.terms: Dict[Monomial, GRat] = terms
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = GRat.of(c)
        return Poly({} if c.is_zero() else {MONO_ONE: c}, _trusted=True)

    @staticmethod
    def var(sym_id: int, exp: int = 1) -> "Poly":
        return Poly({mono_pack(((sym_id, exp),)): ONE}, _trusted=True)

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
        acc = 0
        for m in self.terms:
            acc |= m
        return {s for s, _ in mono_items(acc)}

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
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        if max(self.terms) + max(other.terms) >= _DEG_LIMIT:
            raise EngineError(f"product degree exceeds {MAX_EXP}")
        out: Dict[Monomial, GRat] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                c = c1 * c2
                acc = get(m)
                if acc is None:
                    out[m] = c
                else:
                    s = acc + c
                    if s.is_zero():
                        del out[m]
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
            k >>= 1
            if k:
                base = base * base
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
        m = max(self.terms)
        return m, self.terms[m]

    def degree_in(self, sym_id: int) -> int:
        sh = _SHIFT[sym_id]
        return max(((m >> sh) & 0xFF for m in self.terms), default=-1)

    def coeffs_in(self, sym_id: int) -> Dict[int, "Poly"]:
        """View as univariate in sym_id: degree -> coefficient Poly."""
        sh, unit = _SHIFT[sym_id], _UNIT[sym_id]
        out: Dict[int, Dict[Monomial, GRat]] = {}
        for m, c in self.terms.items():
            d = (m >> sh) & 0xFF
            out.setdefault(d, {})[m - d * unit] = c
        return {d: Poly(t, _trusted=True) for d, t in out.items()}

    def diff(self, sym_id: int) -> "Poly":
        sh, unit = _SHIFT[sym_id], _UNIT[sym_id]
        out: Dict[Monomial, GRat] = {}
        for m, c in self.terms.items():
            e = (m >> sh) & 0xFF
            if e:
                out[m - unit] = c * e
        return Poly(out, _trusted=True)

    def eval_numeric(self, bindings: Mapping[int, GRat]) -> GRat:
        total = ZERO
        pow_cache: Dict[Tuple[int, int], GRat] = {}
        for m, c in self.terms.items():
            val = c
            for key in mono_items(m):
                pv = pow_cache.get(key)
                if pv is None:
                    sym, exp = key
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
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = [f"{REG.name_of(sym)}" + (f"^{exp}" if exp > 1 else "")
                   for sym, exp in mono_items(m)]
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
    plus a max-heap of candidate leading monomials (negated packed ints), so
    each reduction step costs O(|b| log n) instead of a fresh max scan.
    """
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
    heap = [-m for m in rem]
    heapify(heap)
    seen = set(rem)
    quo: Dict[Monomial, GRat] = {}
    while heap:
        rm = -heappop(heap)
        seen.discard(rm)
        rc = rem.pop(rm, None)
        if rc is None:
            continue
        if not mono_divides(rm, bm):
            raise EngineError("inexact polynomial division")
        qm = rm - bm
        qc = rc * bc_inv
        quo[qm] = qc
        for m2, c2 in b_rest:
            tm = qm + m2
            sub = qc * c2
            cur = rem.get(tm)
            val = -sub if cur is None else cur - sub
            if val.is_zero():
                rem.pop(tm, None)
            else:
                rem[tm] = val
                if tm not in seen:
                    seen.add(tm)
                    heappush(heap, -tm)
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
        r = lb * r - lr * Poly.var(x, dr - db) * b
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
# Bound of each memo cache below.  `run --theorem all` stores at most about
# 1,650 entries in any of them, so a report never reaches the bound.  A
# process that runs random suites stores about 800 new entries per round
# for good; a full cache is emptied and refilled, which keeps its memory
# flat and changes no result.
_MEMO_LIMIT = 1 << 12


def _memo_store(cache: dict, key, value) -> None:
    if len(cache) >= _MEMO_LIMIT:
        cache.clear()
    cache[key] = value


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
        return P_ONE
    key = (a, b) if hash(a) <= hash(b) else (b, a)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    out = _structured_gcd(a, b)
    if out is None:
        out = _poly_gcd_uncached(a, b)
    _memo_store(_GCD_CACHE, key, out)
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

_WITNESS_RNG = _random.Random(0x5EED)

GaussInt = Tuple[int, int]

# Witnesses are evaluated modulo the prime P = 2^30 - 35.  P = 1 (mod 4),
# so -1 has a square root I_P modulo P; P = 5 (mod 8) makes 2 a quadratic
# non-residue, and 2^((P-1)/4) is such a root.
_P = 1073741789
_I_P = pow(2, (_P - 1) // 4, _P)
_ONES = (1,) * 256


class _Witness:
    """A Gaussian-integer point (indexed by sym_id) read modulo P.

    Power tables x^0..x^e mod P are built per indeterminate on first use and
    extended up to the largest exponent asked for.
    """

    __slots__ = ("values", "_powers")

    def __init__(self, point: List[GaussInt]):
        self.values = [(re + im * _I_P) % _P for re, im in point]
        self._powers: Dict[int, List[int]] = {}

    def powers(self, sym: int, upto: int) -> List[int]:
        table = self._powers.get(sym)
        if table is None:
            table = self._powers[sym] = [1]
        x = self.values[sym]
        while len(table) <= upto:
            table.append(table[-1] * x % _P)
        return table


def _modp_eval(p: Poly, w: _Witness, syms=None) -> Optional[int]:
    """p at the witness point, modulo P; None when a coefficient's
    denominator is divisible by P, since then the residue decides nothing.

    Each monomial's exponents are read as bytes of its packed int (byte 0 is
    the degree, which reads 1 from a table of ones), looked up in the power
    tables, and multiplied in C.  The sum runs over a running denominator so
    that only one inverse is taken.
    """
    order = sorted(p.variables() if syms is None else syms)
    deg = max(p.terms, default=0) >> _DEG_SHIFT
    tables = [_ONES] + [w.powers(s, deg) for s in order]
    pos = [0] + [s + 1 for s in order]
    # itemgetter of a single index returns a bare value, not a tuple
    fields = itemgetter(*pos) if len(pos) > 1 else (lambda b: (b[0],))
    num, den = 0, 1
    for m, c in p.terms.items():
        v = prod(map(getitem, tables, fields(m.to_bytes(_NBYTES, "big"))))
        t = (c.a + c.b * _I_P) * v
        d = c.d
        if d == 1:
            num = (num + t * den) % _P
        else:
            d %= _P
            if not d:
                return None
            num = (num * d + t * den) % _P
            den = den * d % _P
    return num * pow(den, -1, _P) % _P


def _known_bases() -> List[Tuple[Poly, set, List[_Witness]]]:
    """Irreducible monic polynomials whose powers form every denominator.

    Each entry carries the base's variables and two fixed random
    Gaussian-integer points on its zero set.  A multiple of the base
    vanishes there, so a nonzero residue mod P rules out divisibility; a
    zero residue only leads to the exact division that decides.
    """
    def fill(base_bnd: Dict[int, GaussInt]) -> _Witness:
        out = []
        for v in range(len(REG)):
            out.append(base_bnd.get(v, (_WITNESS_RNG.randint(2, 97), 0)))
        return _Witness(out)

    def sphere_points(with_shx: bool) -> List[_Witness]:
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
    bases = [
        (lin_minus, [fill({XIN: (0, 1)}) for _ in range(2)]),
        (lin_plus, [fill({XIN: (0, -1)}) for _ in range(2)]),
        (sphere, sphere_points(False)),
        (sphere_shx, sphere_points(True)),
    ]
    return [(base, base.variables(), points) for base, points in bases]


_BASES: Optional[List[Tuple[Poly, set, List[_Witness]]]] = None
_FACTOR_CACHE: Dict[Poly, Optional[Tuple[GRat, Tuple[Tuple[int, int], ...]]]] = {}
_MULT_CACHE: Dict[Tuple[Poly, int], int] = {}


def _vanishes_at_witnesses(p: Poly, base_idx: int) -> bool:
    _, base_vars, points = _BASES[base_idx]
    syms = p.variables()
    if not base_vars <= syms:
        return False  # a multiple of the base must involve all its variables
    for w in points:
        if _modp_eval(p, w, syms):
            return False
    return True


def _strip(work: Poly, base_idx: int) -> Tuple[int, Poly]:
    """(multiplicity, quotient): divide the indexed base out of work while
    the witnesses vanish and the exact division succeeds."""
    base = _BASES[base_idx][0]
    mult = 0
    while _vanishes_at_witnesses(work, base_idx):
        try:
            work = poly_divexact(work, base)
        except EngineError:
            break
        mult += 1
    return mult, work


def _factor_known(p: Poly):
    """p = const * prod base_i^mult_i over the known bases, or None."""
    global _BASES
    if _BASES is None:
        _BASES = _known_bases()
    if p in _FACTOR_CACHE:
        return _FACTOR_CACHE[p]
    work = p
    factors: List[Tuple[int, int]] = []
    for idx in range(len(_BASES)):
        mult, work = _strip(work, idx)
        if mult:
            factors.append((idx, mult))
        if work.is_const():
            break
    out = (work.const_value(), tuple(factors)) if work.is_const() else None
    _memo_store(_FACTOR_CACHE, p, out)
    return out


def _multiplicity_in(a: Poly, base_idx: int, cap: int) -> int:
    """Multiplicity of the indexed base in a, witness-filtered and cached."""
    key = (a, base_idx)
    hit = _MULT_CACHE.get(key)
    if hit is not None:
        return min(hit, cap)
    mult, _ = _strip(a, base_idx)
    _memo_store(_MULT_CACHE, key, mult)
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
        """a/b + c/d by Henrici's cross-cancellation.

        With g = gcd(b, d), b = g*b1, d = g*d1 and t = a*d1 + c*b1, no
        factor of b1 or d1 divides t, so gcd(t, b*d1) = gcd(t, g): the sum
        is (t/h) / ((b/h)*d1) with h = gcd(t, g), already canonical.
        Coprime denominators need no second gcd at all.
        """
        other = _as_scalar(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            g, d1 = b, P_ONE
            t = a + c
        else:
            g = poly_gcd(b, d)
            if g.is_const():
                t = a * d + c * b
                return ScalarExpr(t, b * d, _canonical=True) if t.terms else S_ZERO
            b1, d1 = poly_divexact(b, g), poly_divexact(d, g)
            t = a * d1 + c * b1
        if t.is_zero():
            return S_ZERO
        h = poly_gcd(t, g)
        if not h.is_const():
            t, b = poly_divexact(t, h), poly_divexact(b, h)
        return ScalarExpr(t, b * d1, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-_as_scalar(other))

    def __rsub__(self, other):
        return _as_scalar(other) - self

    def __mul__(self, other):
        """a/b * c/d as (a/g1)*(c/g2) / ((b/g2)*(d/g1)) with g1 = gcd(a, d)
        and g2 = gcd(c, b): canonical when both factors are (Henrici)."""
        other = _as_scalar(other)
        if self.is_zero() or other.is_zero():
            return S_ZERO
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(a, d)
        if not g.is_const():
            a, d = poly_divexact(a, g), poly_divexact(d, g)
        g = poly_gcd(c, b)
        if not g.is_const():
            c, b = poly_divexact(c, g), poly_divexact(b, g)
        return ScalarExpr(a * c, b * d, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExpr":
        if self.is_zero():
            raise EngineError("zero denominator: inverse of zero")
        _, lc = self.num.leading()
        if lc.is_one():
            return ScalarExpr(self.den, self.num, _canonical=True)
        inv = lc.inverse()
        return ScalarExpr(self.den.scale(inv), self.num.scale(inv), _canonical=True)

    def __truediv__(self, other):
        return self * _as_scalar(other).inverse()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return S_ONE
        # coprime num and den stay coprime, and a power of a monic is monic
        return ScalarExpr(self.num ** k, self.den ** k, _canonical=True)

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


def _poly_subst(p: Poly, ids: Dict[int, ScalarExpr]) -> ScalarExpr:
    """Substitute into a polynomial; returns ScalarExpr (bindings may be rational)."""
    total = S_ZERO
    for m, c in p.terms.items():
        bound = [(sym, exp) for sym, exp in mono_items(m) if sym in ids]
        free = m - mono_pack(bound)
        term = ScalarExpr(Poly({free: c}, _trusted=True), P_ONE, _canonical=True)
        for sym, exp in bound:
            term = term * (ids[sym] ** exp)
        total = total + term
    return total


def _poly_subst_one(p: Poly, sym: int) -> Poly:
    """Substitute sym -> 1 inside a polynomial (cheap special case)."""
    sh, unit = _SHIFT[sym], _UNIT[sym]
    out: Dict[Monomial, GRat] = {}
    for m, c in p.terms.items():
        nm = m - ((m >> sh) & 0xFF) * unit
        acc = out.get(nm)
        if acc is None:
            out[nm] = c
        else:
            s2 = acc + c
            if s2.is_zero():
                del out[nm]
            else:
                out[nm] = s2
    return Poly(out, _trusted=True)


_XI3 = XI[2]
_SPHERE_COMPLEMENT = Poly.const(1) - Poly.var(XI[0], 2) - Poly.var(XI[1], 2)
_COMPLEMENT_POWERS: List[Poly] = [P_ONE]  # _SPHERE_COMPLEMENT ** k, grown on demand


def _poly_reduce_sphere(p: Poly) -> Poly:
    """Reduce mod (xi1^2+xi2^2+xi3^2-1): xi3^(2k+r) -> (1-xi1^2-xi2^2)^k xi3^r.

    One pass that accumulates every term into a single dict.
    """
    sh, unit = _SHIFT[_XI3], _UNIT[_XI3]
    powers = _COMPLEMENT_POWERS
    out: Dict[Monomial, GRat] = {}
    for m, c in p.terms.items():
        k = ((m >> sh) & 0xFF) >> 1
        if not k:
            pairs = ((m, c),)
        else:
            while len(powers) <= k:
                powers.append(powers[-1] * _SPHERE_COMPLEMENT)
            rest = m - 2 * k * unit
            pairs = [(rest + cm, c * cc) for cm, cc in powers[k].terms.items()]
        for tm, tc in pairs:
            acc = out.get(tm)
            if acc is None:
                out[tm] = tc
            else:
                s2 = acc + tc
                if s2.is_zero():
                    del out[tm]
                else:
                    out[tm] = s2
    return Poly(out, _trusted=True)


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
