"""Exact multivariate rational functions over the Gaussian rationals.

The registry fixes a finite, ordered set of commuting formal indeterminates
(cotangent components, the metric profile data, vector-field components,
torsion/curvature atoms, and the transcendentals pi and Omega_3).  Polynomials
are sparse dicts keyed by monomials; rational functions are kept in canonical
form: gcd(numerator, denominator) = 1 and denominator monic under graded
lexicographic order in registry order.  Equality of canonical forms is the
engine's notion of symbolic equality.

A monomial is one Python int with one 8-bit field per indeterminate.  Read
as little-endian bytes, byte 0 holds the total degree and byte 1 + s the
exponent of registry id s:

    m = deg  +  sum_s  exp_s << (8 * (1 + s))

so the int is only as wide as the highest id it holds: a monomial in the
cotangent variables, the metric data and the torsion atoms takes a few
dozen bytes, not one byte per registry entry.  A product of monomials is
the sum of their ints, a quotient their difference, and b divides a exactly
when a - b + G keeps the top (guard) bit of every field, G having only
those bits set.  This needs every exponent and every total degree to stay
at or below 127 (the guard bit clear): building a larger monomial raises
`EngineError`.  `mono_items` decodes a monomial back to (sym, exp) pairs;
`poly_text` renders its fields in two blocks, the cotangent variables and
the rest, and keeps each block's text in a per-process table.

Two orders are in use.  The monomial order of the engine is graded
lexicographic order with earlier ids ranking higher; `mono_rank(m)` is its
key, the little-endian bytes of m, which compare the degree first and then
the exponents in registry order.  `Poly.leading` (and with
it every monic normalization) and the canonical renderers sort by it.  The
native int order compares the highest id first: it is lexicographic order
with later ids ranking higher, also a monomial order since a product is a
sum, and `poly_divexact` runs its heap in it.  That order does not bound
the degree, so the division rejects any quotient term whose degree passes
deg(a) - deg(b), which keeps every term it builds at or below 127.

The term loops of `Poly` run on the coefficient triples in the dict-level
kernels of `gaussian`, one call per loop: `_terms_product` for a product
of two operands of two or more terms, and `_terms_add` for `+`, `-`, the
n-ary sums and each Horner step of the co-sphere reduction.  A one-term
factor multiplies each coefficient by its own with one GRat product, or
only shifts the keys when its coefficient is 1.

All values are immutable after construction and safe to share between
workers; the registry is frozen at configuration time.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gaussian import GRat, ONE, ZERO, _terms_add, _terms_product

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


class Indeterminate(NamedTuple):
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
MAX_EXP = 127
_SHIFT = tuple(8 * (1 + s) for s in range(_NSYM))
_UNIT = tuple((1 << sh) | 1 for sh in _SHIFT)
_GUARD = int.from_bytes(b"\x80" * _NBYTES, "little")

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
        if m & 0xFF > MAX_EXP:
            raise EngineError(f"monomial degree exceeds {MAX_EXP}")
    return m


def mono_items(m: Monomial) -> Tuple[Tuple[int, int], ...]:
    """The (sym, exp) pairs of m with exp > 0, in ascending sym order."""
    b = m.to_bytes((m.bit_length() + 7) >> 3, "little")
    return tuple((s, b[s + 1]) for s in compress(range(len(b) - 1), b[1:]))


def mono_rank(m: Monomial) -> bytes:
    """The graded-lex key of m: its little-endian bytes, degree first, then
    the exponents in registry order.  The minimal width suffices: a key that
    is a prefix of another ranks lower, as its zero padding would."""
    return m.to_bytes((m.bit_length() + 7) >> 3, "little")


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
    The int order of the keys is not the monomial order: ``leading`` and
    ``poly_text`` order terms by the graded-lex key `mono_rank`, while
    `poly_divexact` runs its heap on the ints themselves.
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
        _terms_add(out, other.terms)
        return Poly(out, _trusted=True)

    def __neg__(self) -> "Poly":
        return P_ZERO - self

    def __sub__(self, other: "Poly") -> "Poly":
        if other.is_zero():
            return self
        out = dict(self.terms)
        _terms_add(out, other.terms, -1)
        return Poly(out, _trusted=True)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        st, ot = self.terms, other.terms
        if max(m & 0xFF for m in st) + max(m & 0xFF for m in ot) > MAX_EXP:
            raise EngineError(f"product degree exceeds {MAX_EXP}")
        # with a one-term operand the keys stay distinct, so nothing
        # accumulates, and a unit coefficient only shifts the other's keys
        if len(st) == 1:
            (m1, c1), = st.items()
        elif len(ot) == 1:
            (m1, c1), = ot.items()
            ot = st
        else:
            return Poly(_terms_product(st, ot), _trusted=True)
        if c1.a == 1 and c1.d == 1 and not c1.b:
            return Poly({m1 + m2: c2 for m2, c2 in ot.items()}, _trusted=True)
        if len(ot) == 1:  # no comprehension frame for a product of two terms
            (m2, c2), = ot.items()
            return Poly({m1 + m2: c1 * c2}, _trusted=True)
        return Poly({m1 + m2: c1 * c2 for m2, c2 in ot.items()}, _trusted=True)

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
        m = max(self.terms, key=mono_rank)
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


# Bound of the memo caches: `_FACTOR_CACHE` and `_BASE_PRODUCTS`, which store
# only denominators that factor over the known bases and their exponent
# tuples (about 40 of each in `run --theorem all`; the random suites'
# generic-gcd operands do not factor and are not stored), and the three text
# tables of `poly_text`.  A full cache is emptied and refilled: flat memory,
# no result changed.
_MEMO_LIMIT = 1 << 12


def _memo_store(cache: dict, key, value) -> None:
    if len(cache) >= _MEMO_LIMIT:
        cache.clear()
    cache[key] = value


# `poly_text` reads a monomial in two blocks: the ids up to the last
# cotangent variable (xi1, xi2, xi3, xin) and the rest.  Each block's text is
# kept per process in a table keyed by the block's packed bits, so a term
# costs two lookups, not one per factor; `run --theorem all` fills about 270
# cotangent and 1,200 rest entries.  A third table keeps the text of each
# coefficient, keyed by its triple (a, b, d): cold T5.4 renders 35,816
# terms with 332 distinct coefficients.
_COT_END = max(XI) + 1
_REST_SHIFT = _SHIFT[_COT_END]
_COT_BITS = (1 << _REST_SHIFT) - 0x100  # the exponent fields of ids below _COT_END
_COT_TEXT: Dict[int, str] = {}
_REST_TEXT: Dict[int, str] = {}
_COEF_TEXT: Dict[Tuple[int, int, int], str] = {}


def _fields_text(fields: int, first: int) -> str:
    """The factors sym^exp of packed exponent fields whose lowest byte is id
    first, in ascending id order and joined by "*"."""
    b = fields.to_bytes((fields.bit_length() + 7) >> 3, "little")
    return "*".join(REG.name_of(first + k) + (f"^{e}" if e > 1 else "")
                    for k, e in enumerate(b) if e)


def poly_text(p: Poly) -> str:
    """Canonical text: monomials in descending graded-lex order.  A
    monomial's body is its cotangent text and its rest text, each read from
    its table (`_COT_TEXT`, `_REST_TEXT`), and its coefficient's text is
    read from `_COEF_TEXT`."""
    if p.is_zero():
        return "0"
    parts = []
    cot_table, rest_table, coef_table = _COT_TEXT, _REST_TEXT, _COEF_TEXT
    # the loop reads both blocks from the int, so no rank outlives the sort:
    # holding the ranks of a large polynomial through the loop raises the peak RSS
    for m in sorted(p.terms, key=mono_rank, reverse=True):
        c = p.terms[m]
        key = m & _COT_BITS
        cot = cot_table.get(key)
        if cot is None:
            cot = _fields_text(key >> 8, 0)
            _memo_store(cot_table, key, cot)
        key = m >> _REST_SHIFT
        rest = rest_table.get(key)
        if rest is None:
            rest = _fields_text(key, _COT_END)
            _memo_store(rest_table, key, rest)
        body = f"{cot}*{rest}" if cot and rest else cot or rest
        key = (c.a, c.b, c.d)
        cs = coef_table.get(key)
        if cs is None:
            cs = f"({c})" if c.a and c.b else str(c)  # a sign inside a + bi
            _memo_store(coef_table, key, cs)
        parts.append(f"{cs}*{body}" if body else cs)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Exact division and gcd (subresultant PRS)
# ---------------------------------------------------------------------------

def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises if b does not divide a.

    Heap-driven long division: the running remainder is a coefficient dict
    plus a max-heap of candidate leading monomials (negated packed ints), so
    each reduction step costs O(|b| log n) instead of a fresh max scan.  The
    heap runs in the native int order, lexicographic with the highest id
    first (see the module docstring), and b's leading term is taken in that
    order too.  It is a monomial order and an exact quotient is unique, so
    the quotient is the one a graded-lex division finds, with no byte key
    built per term.  The native order does not bound the degree, so a
    failing division could climb through ever higher terms; an exact
    quotient has no term above deg(a) - deg(b), and a step past that raises
    at once.
    """
    if b.is_zero():
        raise EngineError("zero denominator in exact division")
    if a.is_zero():
        return Poly()
    if b.is_const():
        inv = b.const_value().inverse()
        return a.scale(inv)
    top = max(m & 0xFF for m in a.terms) - max(m & 0xFF for m in b.terms)
    if top < 0:
        raise EngineError("inexact polynomial division")
    bm = max(b.terms)
    bc = b.terms[bm]
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
        if qm & 0xFF > top:
            raise EngineError("inexact polynomial division")
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
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in x; the exact
    divisions of the subresultant PRS rely on that exponent."""
    db = b.degree_in(x)
    if db < 0:
        raise EngineError("pseudo-division by zero")
    lb, r, e = b.coeffs_in(x)[db], a, a.degree_in(x) - db + 1
    while (dr := r.degree_in(x)) >= db:
        r = lb * r - r.coeffs_in(x)[dr] * Poly.var(x, dr - db) * b
        e -= 1
    return r * lb ** max(e, 0)


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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i); nothing about the operands is stored.

    Denominators in this engine are power products of a handful of known
    irreducible polynomials.  When one operand factors over that base set,
    the gcd is read off by counting how often each of its bases divides the
    other operand exactly (`_structured_gcd`); otherwise it falls back to
    the subresultant PRS (`_poly_gcd_uncached`).
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_const() or b.is_const():
        return P_ONE
    out = _structured_gcd(a, b)
    if out is None:
        out = _poly_gcd_uncached(a, b)
    return out


def _poly_gcd_uncached(a: Poly, b: Poly) -> Poly:
    """Monic gcd of non-constant a and b.  If a variable y is in one operand
    only, the gcd divides the other and every coefficient in y.  Otherwise
    run the subresultant PRS in the highest variable (Cohen, Algorithm 3.3.1)."""
    avars, bvars = a.variables(), b.variables()
    if avars != bvars:
        y = max(avars ^ bvars)
        if y in bvars:
            a, b = b, a
        g = b
        for c in a.coeffs_in(y).values():
            g = poly_gcd(g, c)
            if g.is_const():
                return P_ONE
        return g
    x = max(avars)
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    (ca, f), (cb, g) = _content_and_primitive(a, x), _content_and_primitive(b, x)
    lc = h = P_ONE
    while (r := _prem(f, g, x)).degree_in(x) > 0:
        delta = f.degree_in(x) - g.degree_in(x)
        f, g = g, poly_divexact(r, lc * h ** delta)
        lc = f.coeffs_in(x)[f.degree_in(x)]
        if delta:
            h = poly_divexact(lc ** delta, h ** (delta - 1))
    pg = _content_and_primitive(g, x)[1] if r.is_zero() else P_ONE
    return _monic(poly_gcd(ca, cb) * pg)


# ---------------------------------------------------------------------------
# Structured gcd over the engine's known irreducible denominators
# ---------------------------------------------------------------------------

def _known_bases() -> List[Tuple[Poly, frozenset]]:
    """Irreducible monic polynomials whose powers form every denominator,
    each with its variables: xin - i, xin + i, |xi|^2 and
    shx^2 |xi'|^2 + xin^2."""
    lin_minus = Poly.var(XIN) + Poly.const(GRat(0, -1))
    lin_plus = Poly.var(XIN) + Poly.const(GRat(0, 1))
    s_tang = Poly.var(XI[0], 2) + Poly.var(XI[1], 2) + Poly.var(XI[2], 2)
    sphere = s_tang + Poly.var(XIN, 2)
    sphere_shx = Poly.var(SHX, 2) * s_tang + Poly.var(XIN, 2)
    return [(base, frozenset(base.variables()))
            for base in (lin_minus, lin_plus, sphere, sphere_shx)]


_BASES = _known_bases()
_BASE_VARS = frozenset().union(*(base_vars for _, base_vars in _BASES))
_NO_BASES = (0,) * len(_BASES)
_FACTOR_CACHE: Dict[Poly, Tuple[GRat, Tuple[int, ...]]] = {}
# the root of each linear base as a power of i: xin - i at i, xin + i at i^3
_LINEAR_ROOTS = {0: 1, 1: 3}
# every bit but the degree and the xin field: two monomials agree on these
# exactly when they have the same rest (the degree follows from the fields)
_REST_FIELDS = ~(0xFF | 0xFF << _SHIFT[XIN])


def _vanishes_at_root(p: Poly, quarter: int) -> bool:
    """True when p(xin = i^quarter) = 0, that is when xin - i^quarter
    divides p (remainder theorem).  A term c * xin^e * rest takes the value
    c * i^(quarter*e) * rest.  Distinct rests are independent monomials, so
    p vanishes at the root exactly when the terms of each rest sum to zero
    there.  The terms that share the first term's rest are summed first, in
    one pass that builds nothing for the others: if they do not vanish,
    neither does p, and this exit is exact.  Only otherwise is every rest
    summed (`_root_sums_vanish`)."""
    terms = p.terms.items()
    if terms:
        keep = _REST_FIELDS
        first = next(iter(p.terms)) & keep
        if not _root_sums_vanish(((m, c) for m, c in terms if m & keep == first), quarter):
            return False
    return _root_sums_vanish(terms, quarter)


def _root_sums_vanish(terms, quarter: int) -> bool:
    """True when, at xin = i^quarter, the (monomial, coefficient) pairs sum
    to zero per rest monomial.  Each coefficient triple (a, b, d) is only
    turned by quarter turns, and the terms are summed per rest over a common
    denominator, with no GRat built."""
    sh, unit = _SHIFT[XIN], _UNIT[XIN]
    acc: Dict[Monomial, List[int]] = {}
    get = acc.get
    for m, c in terms:
        e = (m >> sh) & 0xFF
        a, b, d = c.a, c.b, c.d
        turns = (quarter * e) & 3
        if turns == 1:
            a, b = -b, a
        elif turns == 2:
            a, b = -a, -b
        elif turns == 3:
            a, b = b, -a
        rest = m - e * unit
        cur = get(rest)
        if cur is None:
            acc[rest] = [a, b, d]
        elif cur[2] == d:
            cur[0] += a
            cur[1] += b
        else:
            den = cur[2]
            cur[:] = cur[0] * d + a * den, cur[1] * d + b * den, den * d
    return not any(t[0] or t[1] for t in acc.values())


def _strip(work: Poly, base_idx: int, cap: Optional[int] = None) -> Tuple[int, Poly]:
    """(multiplicity, quotient): divide the indexed base out of work until
    the exact division fails or, given a cap, cap times.  A multiple of the
    base holds all of the base's variables, so work without one of them is
    returned at once, and a linear base is divided only once work vanishes
    at its root, so no division by it fails.  This is the one strip loop:
    factoring, the gcd's multiplicities and the cancellation of sums,
    products and derivatives call it, and it stores nothing."""
    base, base_vars = _BASES[base_idx]
    if not base_vars <= work.variables():
        return 0, work
    root = _LINEAR_ROOTS.get(base_idx)
    mult = 0
    while mult != cap:
        if root is not None and not _vanishes_at_root(work, root):
            break
        try:
            work = poly_divexact(work, base)
        except EngineError:
            break
        mult += 1
    return mult, work


def _factor_known(p: Poly):
    """(const, exps) with p = const * prod base_i^exps[i] over the known
    bases, or None.  Only factorizations are stored: a polynomial that does
    not factor is usually a gcd operand, met once."""
    hit = _FACTOR_CACHE.get(p)
    if hit is not None:
        return hit
    if not p.is_const() and not (XIN in (names := p.variables()) <= _BASE_VARS):
        return None  # every base holds xin, and none holds another variable
    work = p
    exps = list(_NO_BASES)
    for idx in range(len(_BASES)):
        if work.is_const():
            break
        exps[idx], work = _strip(work, idx)
    if not work.is_const():
        return None
    out = (work.const_value(), tuple(exps))
    _memo_store(_FACTOR_CACHE, p, out)
    return out


def _structured_gcd(a: Poly, b: Poly) -> Optional[Poly]:
    fb = _factor_known(b)
    if fb is not None:
        other = a
    else:
        fb = _factor_known(a)
        if fb is None:
            return None
        other = b
    _, exps = fb
    out = P_ONE
    for idx, mult in enumerate(exps):
        m = _strip(other, idx, mult)[0] if mult else 0
        if m:
            out = out * _BASES[idx][0] ** m
    return out


# ---------------------------------------------------------------------------
# Cancellation over the known bases: sums and derivatives
# ---------------------------------------------------------------------------
#
# A canonical denominator that factors over the known bases is monic, so it
# is prod base_i^exps[i] exactly.  A result built over such a denominator
# needs a division test only for a base that can divide its numerator
# (Henrici); every other base is ruled out by the argument of the caller,
# and `_strip` divides the tested ones out, capped by their exponent.

_BASE_PRODUCTS: Dict[Tuple[int, ...], Poly] = {}


def _exponents(den: Poly) -> Optional[Tuple[int, ...]]:
    """The exponent of each known base in a monic den that is their power
    product, or None."""
    f = _factor_known(den)
    if f is None or not f[0].is_one():
        return None
    return f[1]


def _base_product(exps: Tuple[int, ...]) -> Poly:
    """prod base_i^exps[i], cached by the exponent tuple."""
    hit = _BASE_PRODUCTS.get(exps)
    if hit is None:
        hit = P_ONE
        for (base, _), e in zip(_BASES, exps):
            if e:
                hit = hit * base ** e
        _memo_store(_BASE_PRODUCTS, exps, hit)
    return hit


def _num_sum(signed: Sequence[Tuple["ScalarExpr", int]]) -> Poly:
    """The sum of sign * t.num over one or more (t, sign) pairs, sign 1 or
    -1, in one dict."""
    acc: Dict[Monomial, GRat] = {}
    for t, sign in signed:
        if acc or sign < 0:
            _terms_add(acc, t.num.terms, sign)
        else:
            acc = dict(t.num.terms)
    return Poly(acc, _trusted=True)


def _sum_factored(groups) -> "ScalarExpr":
    """The canonical sum of sign * num / prod base_i^exps[i] over the
    groups (num, exps, weight, sign), each num coprime to its denominator,
    weight the number of terms summed into it and sign 1 or -1.

    The sum is formed over the lcm, whose exponents are the maxima.  A base
    can divide the summed numerator only if at least two terms carry its
    top power: when one term does, every other term's cofactor holds the
    base while that term's numerator and cofactor do not.  Only those
    bases are stripped.
    """
    top = tuple(map(max, zip(*(exps for _, exps, _, _ in groups))))
    acc: Dict[Monomial, GRat] = {}
    for num, exps, _, sign in groups:
        if exps != top:
            num = num * _base_product(tuple(t - e for t, e in zip(top, exps)))
        _terms_add(acc, num.terms, sign)
    if not acc:
        return S_ZERO
    total = Poly(acc, _trusted=True)
    final = list(top)
    for idx, t in enumerate(top):
        if t and sum(w for _, exps, w, _ in groups if exps[idx] == t) > 1:
            m, total = _strip(total, idx, t)
            final[idx] -= m
    return ScalarExpr(total, _base_product(tuple(final)), _canonical=True)


def scalar_sum(terms: Iterable["ScalarExpr"],
               minus: Iterable["ScalarExpr"] = ()) -> "ScalarExpr":
    """The canonical sum of the canonical ScalarExprs `terms` less those of
    `minus`, with one cancellation; the subtracted terms are not negated
    one by one first.

    Terms are grouped by denominator.  When every denominator factors over
    the known bases, the groups are summed over their lcm by
    `_sum_factored`; otherwise the terms are folded with `+` and `-`.  A
    sum of polynomials is one dict accumulation.
    """
    by_den: Dict[Poly, List[Tuple[ScalarExpr, int]]] = {}
    for t in terms:
        if t.num.terms:
            by_den.setdefault(t.den, []).append((t, 1))
    for t in minus:
        if t.num.terms:
            by_den.setdefault(t.den, []).append((t, -1))
    if len(by_den) == 1:
        (den, signed), = by_den.items()
        if len(signed) == 1:
            (t, sign), = signed
            return t if sign > 0 else -t
        if den.is_const():
            total = _num_sum(signed)
            return ScalarExpr(total, den, _canonical=True) if total.terms else S_ZERO
    groups = []
    for den, signed in by_den.items():
        exps = _exponents(den)
        if exps is None:
            total = S_ZERO
            for ts in by_den.values():
                for t, sign in ts:
                    total = total + t if sign > 0 else total - t
            return total
        if len(signed) == 1:
            (t, sign), = signed
            groups.append((t.num, exps, 1, sign))
            continue
        num = _num_sum(signed)
        if num.terms:
            groups.append((num, exps, len(signed), 1))
    return _sum_factored(groups) if groups else S_ZERO


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

        When b and d factor over the known bases, the sum is formed over
        their lcm and only the bases whose power is the same in b and d
        are tested against the numerator (`_sum_factored`, shared with
        `scalar_sum`); a base of higher power in one denominator cannot
        divide it.  Otherwise, with g = gcd(b, d), b = g*b1, d = g*d1 and
        t = a*d1 + c*b1, no factor of b1 or d1 divides t, so gcd(t, b*d1) =
        gcd(t, g): the sum is (t/h) / ((b/h)*d1) with h = gcd(t, g), already
        canonical.  Coprime denominators need no second gcd at all.
        """
        other = _as_scalar(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        same = b == d
        if same and b.is_const():
            t = a + c
            return ScalarExpr(t, b, _canonical=True) if t.terms else S_ZERO
        eb = _exponents(b)
        ed = eb if same else _exponents(d)
        if eb is not None and ed is not None:
            return _sum_factored(((a, eb, 1, 1), (c, ed, 1, 1)))
        if same:
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
        """a/b - c/d by the fused forms of `__add__` when b and d are one
        constant or both factor over the known bases, so c is not negated
        on its own; otherwise a/b + (-c/d)."""
        other = _as_scalar(other)
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        same = b == d
        if same and b.is_const():
            t = a - c
            return ScalarExpr(t, b, _canonical=True) if t.terms else S_ZERO
        if a.terms:
            eb = _exponents(b)
            ed = eb if same else _exponents(d)
            if eb is not None and ed is not None:
                return _sum_factored(((a, eb, 1, 1), (c, ed, 1, -1)))
        return self + (-other)

    def __rsub__(self, other):
        return _as_scalar(other) - self

    def __mul__(self, other):
        """a/b * c/d as (a/g1)*(c/g2) / ((b/g2)*(d/g1)) with g1 = gcd(a, d)
        and g2 = gcd(c, b): canonical when both factors are (Henrici).  When
        b and d factor over the known bases, g1 and g2 are found by `_strip`
        and the denominator is read from its exponents, with no gcd."""
        other = _as_scalar(other)
        if self.is_zero() or other.is_zero():
            return S_ZERO
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.terms == _ONE_TERMS and d.terms == _ONE_TERMS:  # two polynomials
            return ScalarExpr(a * c, P_ONE, _canonical=True)
        eb = _exponents(b)
        ed = _exponents(d) if eb is not None else None
        if ed is not None:
            # a is coprime to b, so only a base of d that b lacks can divide
            # it, and likewise for c; a base of both divides neither
            final = [x + y for x, y in zip(eb, ed)]
            for idx, (x, y) in enumerate(zip(eb, ed)):
                if y and not x:
                    m, a = _strip(a, idx, y)
                    final[idx] -= m
                elif x and not y:
                    m, c = _strip(c, idx, x)
                    final[idx] -= m
            return ScalarExpr(a * c, _base_product(tuple(final)), _canonical=True)
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
        """The derivative in one indeterminate, canonical.

        When the denominator is d = prod B^e over the known bases, with D
        the product of the bases that hold the variable, the quotient rule
        reads (n/d)' = (n'D - n sum_B e B' D/B) / (d D).  No base of D
        divides that numerator (B is irreducible and divides none of n,
        D/B and B'), so only the bases free of the variable are tested.
        Any other denominator goes through the normalizing constructor.
        """
        sym = name_or_id if isinstance(name_or_id, int) else REG.id_of(name_or_id)
        n, d = self.num, self.den
        dn = n.diff(sym)
        exps = _exponents(d)
        if exps is None:
            dd = d.diff(sym)
            if dd.is_zero():
                return ScalarExpr(dn, d)
            return ScalarExpr(dn * d - n * dd, d * d)
        inner = tuple(int(e > 0 and sym in base_vars) for (_, base_vars), e in zip(_BASES, exps))
        t = dn
        if any(inner):
            # sum_B e B' D/B, with D/B the product of the other bases of D
            s = P_ZERO
            for idx, (base, _) in enumerate(_BASES):
                if inner[idx]:
                    rest = _base_product(tuple(int(k and j != idx) for j, k in enumerate(inner)))
                    s = s + (base.diff(sym) * rest).scale(exps[idx])
            t = dn * _base_product(inner) - n * s
        if not t.terms:
            return S_ZERO
        final = [e + k for e, k in zip(exps, inner)]
        for idx, e in enumerate(exps):
            if e and not inner[idx]:
                m, t = _strip(t, idx, e)
                final[idx] -= m
        return ScalarExpr(t, _base_product(tuple(final)), _canonical=True)

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
        eliminating even powers of xi3.  A denominator over the known bases
        restricts to (xin - i)^p (xin + i)^q: xin -/+ i stay, and |xi|^2
        and shx^2 |xi'|^2 + xin^2 both become (xin - i)(xin + i).  So p and
        q are read off its exponents, and only xin -/+ i, capped at p and
        q, are stripped from the restricted numerator, with no gcd.
        """
        num = _poly_reduce_sphere(_poly_subst_one(self.num, SHX))
        exps = _exponents(self.den)
        if exps is None:
            den = _poly_reduce_sphere(_poly_subst_one(self.den, SHX))
            if den.is_zero():
                raise EngineError("zero denominator after sphere restriction")
            return ScalarExpr(num, den)
        if not num.terms:
            return S_ZERO
        # the bases in `_BASES` order: xin - i, xin + i and the two quadratics
        quadratic = exps[2] + exps[3]
        final = [exps[0] + quadratic, exps[1] + quadratic, 0, 0]
        for idx in (0, 1):
            if final[idx]:
                m, num = _strip(num, idx, final[idx])
                final[idx] -= m
        return ScalarExpr(num, _base_product(tuple(final)), _canonical=True)

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
    terms = []
    for m, c in p.terms.items():
        bound = [(sym, exp) for sym, exp in mono_items(m) if sym in ids]
        free = m - mono_pack(bound)
        term = ScalarExpr(Poly({free: c}, _trusted=True), P_ONE, _canonical=True)
        for sym, exp in bound:
            term = term * (ids[sym] ** exp)
        terms.append(term)
    return scalar_sum(terms)


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
# the packed xi1^2 and xi2^2: adding one to a key multiplies its term by it
_XI1_SQ, _XI2_SQ = 2 * _UNIT[XI[0]], 2 * _UNIT[XI[1]]


def _poly_reduce_sphere(p: Poly) -> Poly:
    """Reduce mod (xi1^2+xi2^2+xi3^2-1): xi3^(2k+r) -> (1-xi1^2-xi2^2)^k xi3^r.

    The terms are grouped by k, with xi3^(2k) taken out, and the groups
    g_k summed by Horner's rule in s = xi3^2: acc = acc * s + g_k from the
    top k down, with s = 1 - xi1^2 - xi2^2.  That factor has unit
    coefficients, so a step is a copy of acc, two subtractions of acc with
    its keys shifted by xi1^2 and by xi2^2, and the addition of g_k.
    """
    sh, unit = _SHIFT[_XI3], _UNIT[_XI3]
    groups: Dict[int, Dict[Monomial, GRat]] = {}
    for m, c in p.terms.items():
        k = ((m >> sh) & 0xFF) >> 1
        groups.setdefault(k, {})[m - 2 * k * unit] = c
    top = max(groups, default=0)
    if not top:
        return p
    acc = groups[top]
    for k in range(top - 1, -1, -1):
        out = dict(acc)
        _terms_add(out, {m + _XI1_SQ: c for m, c in acc.items()}, -1)
        _terms_add(out, {m + _XI2_SQ: c for m, c in acc.items()}, -1)
        low = groups.get(k)
        if low:
            _terms_add(out, low)
        acc = out
    return Poly(acc, _trusted=True)


# ---------------------------------------------------------------------------
# Atom constructors
# ---------------------------------------------------------------------------

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
