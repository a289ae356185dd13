"""Clifford algebra over the pointwise orthonormal frame, n = 4.

Generators c(e_1)..c(e_4) obey c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij.
Elements are finite linear combinations of canonically ordered monomials
(strictly increasing index tuples) with ScalarExpr coefficients.  One rule
multiplies monomials (`_mono_product`, the reordering sign of basis blades):

    c_S c_T = (-1)^#{(i, j) in S x T : i >= j} c_(S xor T),

with S xor T the symmetric difference in increasing order; in particular
c_S c_S = (-1)^(k(k+1)/2) for |S| = k.  The trace
functional returns 2^(n/2) times the identity coefficient; every nonempty
canonical monomial is traceless, including the top monomial c1 c2 c3 c4.

One kernel forms every signed sum of Clifford values, `_collect`: it
groups signed coefficients by monomial and sums each group with one
`scalar_sum`.  `+`, `-`, the product and `clifford_sum`, the Clifford mirror
of `scalar_sum` for a sum of many terms, all call it.

An independent 4x4 matrix representation validates the trace: with the Pauli
matrices s1, s2, s3 set

    G1 = s1 (x) I,  G2 = s2 (x) I,  G3 = s3 (x) s1,  G4 = s3 (x) s2,

which are Hermitian, square to +I and pairwise anticommute; the generators
are represented by gamma_k = i * G_k so that gamma_k^2 = -I.  All entries are
Gaussian rationals, so the oracle is exact.  The matrix of each of the 16
canonical monomials, the product of its gamma factors, is computed once per
process on first use (`_gamma_table`).

Pure values throughout; nothing mutates after construction.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .gaussian import GRat, ZERO, I
from .scalars import (
    EngineError,
    Poly,
    ScalarExpr,
    S_ONE,
    S_ZERO,
    _as_scalar,
    scalar_sum,
    torsion_mask,
)

CliffMono = Tuple[int, ...]  # strictly increasing generator indices, () = identity

N_GEN = 4
TRACE_ID = GRat(2 ** (N_GEN // 2))  # = 4
TOP_MONO: CliffMono = (1, 2, 3, 4)


def _mono_product(m1: CliffMono, m2: CliffMono) -> Tuple[int, CliffMono]:
    """c_m1 c_m2 = sign * c_m for canonical monomials m1 and m2.

    m is the symmetric difference of m1 and m2 in increasing order.  Each
    generator j of m2 anticommutes past the generators i > j of m1 and then,
    if j is in m1, meets its equal (c_j c_j = -1), so the sign is -1 to the
    number of pairs (i, j) in m1 x m2 with i >= j.
    """
    flips = sum(1 for i in m1 for j in m2 if i >= j)
    return (-1 if flips % 2 else 1), tuple(sorted(set(m1).symmetric_difference(m2)))


class CliffordExpr:
    """Map canonical monomial -> ScalarExpr coefficient; no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[CliffMono, ScalarExpr]] = None):
        self.terms: Dict[CliffMono, ScalarExpr] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(c) -> "CliffordExpr":
        c = _as_scalar(c)
        return CliffordExpr({(): c})

    @staticmethod
    def gen(i: int) -> "CliffordExpr":
        if not 1 <= i <= N_GEN:
            raise EngineError(f"generator index {i} out of range 1..{N_GEN}")
        return CliffordExpr({(i,): S_ONE})

    @staticmethod
    def from_cotangent(coeffs: Sequence) -> "CliffordExpr":
        """sum_j coeffs[j] c(e_j); rejects wrong length."""
        if len(coeffs) != N_GEN:
            raise EngineError(f"cotangent coefficient list must have length {N_GEN}")
        terms: Dict[CliffMono, ScalarExpr] = {}
        for j, c in enumerate(coeffs, start=1):
            c = _as_scalar(c)
            if not c.is_zero():
                terms[(j,)] = c
        return CliffordExpr(terms)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: CliffMono) -> ScalarExpr:
        return self.terms.get(mono, S_ZERO)

    def scalar_part(self) -> ScalarExpr:
        return self.terms.get((), S_ZERO)

    def variables(self) -> set:
        return set().union(*(c.variables() for c in self.terms.values()))

    def grades(self) -> set:
        return {len(m) for m in self.terms}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "CliffordExpr") -> "CliffordExpr":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return clifford_sum((self, other))

    def __neg__(self) -> "CliffordExpr":
        return CliffordExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CliffordExpr") -> "CliffordExpr":
        if other.is_zero():
            return self
        return clifford_sum((self,), (other,))

    def scale(self, c) -> "CliffordExpr":
        c = _as_scalar(c)
        if c.is_zero():
            return CliffordExpr()
        return CliffordExpr({m: cf * c for m, cf in self.terms.items()})

    def __mul__(self, other):
        """The Clifford product; `scale` is the scalar product."""
        if not isinstance(other, CliffordExpr):
            return NotImplemented
        signed = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mono = _mono_product(m1, m2)
                signed.append((mono, sign, c1 * c2))
        return _collect(signed)

    def __eq__(self, other):
        return isinstance(other, CliffordExpr) and self.terms == other.terms

    # -- coefficient-wise maps ----------------------------------------------

    def map_coeffs(self, fn) -> "CliffordExpr":
        return CliffordExpr({m: fn(c) for m, c in self.terms.items()})

    def differentiate(self, name_or_id) -> "CliffordExpr":
        return self.map_coeffs(lambda c: c.differentiate(name_or_id))

    def substitute(self, bindings: Mapping) -> "CliffordExpr":
        return self.map_coeffs(lambda c: c.substitute(bindings))

    def restrict_sphere(self) -> "CliffordExpr":
        return self.map_coeffs(lambda c: c.restrict_sphere())

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (len(mm), mm)):
            c = self.terms[m]
            body = "".join(f"c(e_{i})" for i in m) or "Id"
            parts.append(f"[{c.text()}] {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CliffordExpr({self.text()})"


def _collect(signed: Iterable[Tuple[CliffMono, int, ScalarExpr]]) -> CliffordExpr:
    """The Clifford element sum sign * c * mono over (mono, sign, c), sign 1
    or -1: the coefficients of each monomial are added and subtracted by
    one `scalar_sum`, so no term is negated on its own.  This is the one
    signed sum of Clifford values: `+`, `-`, products and `clifford_sum`
    call it."""
    by_mono: Dict[CliffMono, Tuple[list, list]] = {}
    for mono, sign, c in signed:
        plus_minus = by_mono.get(mono)
        if plus_minus is None:
            plus_minus = by_mono[mono] = ([], [])
        plus_minus[sign < 0].append(c)
    return CliffordExpr({mono: scalar_sum(plus, minus)
                         for mono, (plus, minus) in by_mono.items()})


def clifford_sum(terms: Iterable[CliffordExpr],
                 minus: Iterable[CliffordExpr] = ()) -> CliffordExpr:
    """The sum of the Clifford elements `terms` less those of `minus`, with
    one cancellation per monomial (`_collect`); the Clifford mirror of
    `scalar_sum`."""
    signed = [(m, 1, c) for t in terms for m, c in t.terms.items()]
    signed += [(m, -1, c) for t in minus for m, c in t.terms.items()]
    return _collect(signed)


CL_ZERO = CliffordExpr()
CL_ONE = CliffordExpr.scalar(1)


def as_clifford(expr: "CliffordExpr | ScalarExpr") -> CliffordExpr:
    """A scalar as a multiple of the identity; a Clifford element as it is."""
    return CliffordExpr.scalar(expr) if isinstance(expr, ScalarExpr) else expr


def cl_trace(a: CliffordExpr) -> ScalarExpr:
    """Trace on the rank-4 module: identity coefficient times 4."""
    return a.scalar_part() * ScalarExpr.const(TRACE_ID)


def cl_trace_product(a: CliffordExpr, b: CliffordExpr) -> ScalarExpr:
    """Tr(a*b) without forming the product.

    Only equal monomials pair into the identity: Tr(a b) =
    4 * sum_S a_S b_S c_S^2.  Agrees with cl_trace(a*b) (property-tested).
    """
    plus_minus = ([], [])
    for mono, ca in a.terms.items():
        cb = b.terms.get(mono)
        if cb is not None:
            plus_minus[_mono_product(mono, mono)[0] < 0].append(ca * cb)
    return scalar_sum(*plus_minus) * ScalarExpr.const(TRACE_ID)


def clifford_inverse(a: CliffordExpr) -> CliffordExpr:
    """Inverse of alpha*Id + c(w) (scalar plus vector); rejects other shapes.

    (alpha + c(w))(alpha - c(w)) = alpha^2 + <w,w> with the bilinear extension
    of the metric, so the inverse is (alpha - c(w)) / (alpha^2 + <w,w>).
    """
    if not a.grades() <= {0, 1}:
        raise EngineError("non-invertible leading symbol: not scalar + vector")
    alpha = a.scalar_part()
    w = [a.coefficient((j,)) for j in range(1, N_GEN + 1)]
    quad = scalar_sum([alpha * alpha] + [c * c for c in w])
    if quad.is_zero():
        raise EngineError("non-invertible leading symbol: vanishing norm form")
    reflect = CliffordExpr.scalar(alpha) - CliffordExpr.from_cotangent(w)
    return reflect.scale(quad.inverse())


def apply_torsion_switches(value, off: Tuple[str, ...]):
    """Set the torsion families in `off` (of "A", "T", "V") to zero in a
    ScalarExpr or a CliffordExpr by dropping every monomial that holds one;
    a value free of them is returned as it is."""
    mask = torsion_mask(off)
    coeffs = value.terms.values() if isinstance(value, CliffordExpr) else (value,)
    if not mask or not any(m & mask for c in coeffs for p in (c.num, c.den) for m in p.terms):
        return value

    def keep(p: Poly) -> Poly:
        return Poly({m: k for m, k in p.terms.items() if not m & mask}, _trusted=True)

    def drop(c: ScalarExpr) -> ScalarExpr:
        return ScalarExpr(keep(c.num), keep(c.den))

    return value.map_coeffs(drop) if isinstance(value, CliffordExpr) else drop(value)


# ---------------------------------------------------------------------------
# Matrix oracle
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[GRat, ...], ...]


def _mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(GRat.of(v) for v in row) for row in rows)


def _kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    out = [[ZERO for _ in range(na * nb)] for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return tuple(tuple(row) for row in out)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def _mat_scale(a: Matrix, c: GRat) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


_S1 = _mat([[0, 1], [1, 0]])
_S2 = _mat([[0, GRat(0, -1)], [GRat(0, 1), 0]])
_S3 = _mat([[1, 0], [0, -1]])
_I2 = _mat([[1, 0], [0, 1]])

MAT_ID = _kron(_I2, _I2)
GAMMA: Tuple[Matrix, ...] = tuple(
    _mat_scale(g, I)
    for g in (_kron(_S1, _I2), _kron(_S2, _I2), _kron(_S3, _S1), _kron(_S3, _S2))
)

MAT_ZERO = tuple(tuple(ZERO for _ in range(4)) for _ in range(4))


@functools.cache
def _gamma_table() -> Dict[CliffMono, Matrix]:
    """The matrix of each of the 16 canonical monomials, the product of its
    `GAMMA` factors in index order; built on first use, once per process."""
    table: Dict[CliffMono, Matrix] = {}
    for r in range(N_GEN + 1):
        for mono in combinations(range(1, N_GEN + 1), r):
            m = MAT_ID
            for i in mono:
                m = _mat_mul(m, GAMMA[i - 1])
            table[mono] = m
    return table


def matrix_representation(a: CliffordExpr, bindings: Mapping) -> Matrix:
    """Evaluate a in the fixed gamma representation at numeric bindings.

    Each monomial's matrix has one nonzero entry per row; only those are
    scaled and added.
    """
    out = [list(row) for row in MAT_ZERO]
    table = _gamma_table()
    for mono, coeff in a.terms.items():
        val = coeff.evaluate(bindings)
        if val.is_zero():
            continue
        for row, mat_row in zip(out, table[mono]):
            for j, x in enumerate(mat_row):
                if not x.is_zero():
                    row[j] = row[j] + x * val
    return tuple(tuple(row) for row in out)


def matrix_oracle_trace(a: CliffordExpr, bindings: Mapping) -> GRat:
    """Matrix trace of the representation; must equal cl_trace at bindings."""
    m = matrix_representation(a, bindings)
    return sum((m[i][i] for i in range(4)), ZERO)
