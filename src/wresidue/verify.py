"""Randomized property and oracle suites.

These are the engine's self-checks: exact algebraic identities exercised on
seeded random inputs, plus the floating-point oracles backing the exact
integration routines.  The CLI `verify` subcommand and the test suite both
run them; any failure is an internal inconsistency (nonzero exit), unlike a
reference mismatch which is an ordinary reportable verdict.

Each suite takes `seed` and `count` (the defaults are `_DEFAULT_COUNTS`)
and returns its failures and `passed`, the number of samples that added no
failure; a fixed check outside the samples only adds failures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List

from .gaussian import GRat, I
from .scalars import (
    EngineError,
    Poly,
    REG,
    ScalarExpr,
    S_ONE,
    S_ZERO,
    XIN,
    sym,
)
from .clifford import (
    CliffordExpr,
    cl_trace,
    cl_trace_product,
    matrix_oracle_trace,
)
from .halfplane import pi_minus, pi_plus, pi_prime
from .integration import (
    integrate_via_residue_oracle,
    integrate_xi_n,
    monomial_moment,
    numeric_contour_oracle,
    sphere_moment,
    sphere_mc_oracle,
)

_SCALAR_VARS = ("xi1", "xi2", "xin", "h1", "X1", "Y2")


def _rand_grat(rng: random.Random, small: bool = False) -> GRat:
    den = rng.randint(1, 4 if small else 6)
    return GRat(
        Fraction(rng.randint(-6, 6), den), Fraction(rng.randint(-6, 6), den)
    )


def _rand_poly(rng: random.Random, nterms: int = 3, maxdeg: int = 2) -> Poly:
    out = Poly()
    for _ in range(nterms):
        mono = {}
        for _ in range(rng.randint(0, 2)):
            v = REG.id_of(rng.choice(_SCALAR_VARS))
            mono[v] = mono.get(v, 0) + rng.randint(1, maxdeg)
        out = out + Poly({tuple(sorted(mono.items())): _rand_grat(rng)})
    return out


def _rand_scalar(rng: random.Random) -> ScalarExpr:
    num = _rand_poly(rng)
    den = Poly()
    while den.is_zero():
        den = _rand_poly(rng, nterms=2, maxdeg=1)
    return ScalarExpr(num, den)


def _rand_halfline(rng: random.Random, decay: int = 2) -> ScalarExpr:
    """Random rational in xin with poles only at +/-i and decay >= `decay`."""
    p = rng.randint(1, 3)
    q = rng.randint(1, 3)
    xin = ScalarExpr.var(XIN)
    den = (xin - ScalarExpr.const(I)) ** p * (xin + ScalarExpr.const(I)) ** q
    max_deg = max(p + q - decay, 0)
    num = S_ZERO
    for d in range(max_deg + 1):
        num = num + ScalarExpr.const(_rand_grat(rng)) * xin ** d
    if num.is_zero():
        num = S_ONE
    return num / den


def _rand_clifford(rng: random.Random, numeric: bool = True) -> CliffordExpr:
    out = CliffordExpr()
    for _ in range(rng.randint(1, 4)):
        mono = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4))))
        coeff = ScalarExpr.const(_rand_grat(rng)) if numeric else _rand_scalar(rng)
        out = out + CliffordExpr({mono: coeff})
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def scalar_suite(seed: int, count: int) -> Dict:
    """Ring axioms, Leibniz rule, substitution order independence, eval oracle.

    A sample whose substitution or numeric check cannot be made (a drawn
    value zeroes a denominator) is counted as skipped, not passed; every
    draw is still made, so later samples do not depend on it.
    """
    rng = random.Random(seed)
    failures: List[str] = []
    passed = skipped = 0
    for k in range(count):
        failed_before = len(failures)
        skip = False
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        if (a + b) + c != a + (b + c):
            failures.append(f"additive associativity #{k}")
        if a * (b + c) != a * b + a * c:
            failures.append(f"distributivity #{k}")
        v = REG.id_of(rng.choice(_SCALAR_VARS))
        lhs = (a * b).differentiate(v)
        rhs = a.differentiate(v) * b + a * b.differentiate(v)
        if lhs != rhs:
            failures.append(f"Leibniz #{k}")
        # disjoint substitutions commute
        s1 = {REG.id_of("X1"): ScalarExpr.const(_rand_grat(rng))}
        s2 = {REG.id_of("Y2"): ScalarExpr.const(_rand_grat(rng))}
        try:
            if a.substitute(s1).substitute(s2) != a.substitute(s2).substitute(s1):
                failures.append(f"substitution order #{k}")
        except EngineError:
            skip = True
        # numeric oracle: canonical form vs raw ratio at a random point
        num, den = _rand_poly(rng), Poly()
        while den.is_zero():
            den = _rand_poly(rng, nterms=2, maxdeg=1)
        bindings = {REG.id_of(name): _rand_grat(rng, small=True) for name in _SCALAR_VARS}
        try:
            dval = den.eval_numeric(bindings)
            if dval.is_zero():
                skip = True
            elif num.eval_numeric(bindings) / dval != ScalarExpr(num, den).evaluate(bindings):
                failures.append(f"numeric oracle #{k}")
        except EngineError:
            skip = True
        if len(failures) > failed_before:
            continue
        if skip:
            skipped += 1
        else:
            passed += 1
    return {"passed": passed, "skipped": skipped, "failures": failures}


def clifford_suite(seed: int, count: int) -> Dict:
    """Monomial traces vs the matrix oracle; linearity, cyclicity, pairing."""
    import itertools

    rng = random.Random(seed)
    failures: List[str] = []
    for mono in itertools.chain.from_iterable(
        itertools.combinations(range(1, 5), r) for r in range(5)
    ):
        expr = CliffordExpr({tuple(mono): S_ONE})
        if cl_trace(expr).evaluate({}) != matrix_oracle_trace(expr, {}):
            failures.append(f"monomial trace {mono}")
    passed = 0
    for k in range(count):
        before = len(failures)
        a = _rand_clifford(rng)
        b = _rand_clifford(rng)
        ab, ba = a * b, b * a
        if cl_trace(ab) != cl_trace(ba):
            failures.append(f"cyclicity #{k}")
        if cl_trace_product(a, b) != cl_trace(ab):
            failures.append(f"trace pairing #{k}")
        if matrix_oracle_trace(a, {}) != cl_trace(a).evaluate({}):
            failures.append(f"oracle equivalence #{k}")
        passed += len(failures) == before
    return {"passed": passed, "failures": failures}


def halfplane_suite(seed: int, count: int) -> Dict:
    """pi+ properties on random rationals with poles at +/-i (exact)."""
    rng = random.Random(seed)
    failures: List[str] = []
    xin = ScalarExpr.var(XIN)
    passed = 0
    for k in range(count):
        before = len(failures)
        f = _rand_halfline(rng, decay=rng.choice((0, 1, 2)))
        cf = CliffordExpr.scalar(f)
        plus = pi_plus(f)
        minus = pi_minus(f)
        if plus + minus != cf:
            failures.append(f"pi+ + pi- = id #{k}")
        if pi_plus(plus) != plus:
            failures.append(f"pi+ idempotent #{k}")
        lower = S_ONE / (xin + ScalarExpr.const(I)) ** rng.randint(1, 3)
        if not pi_plus(lower).is_zero():
            failures.append(f"pi+ kills lower-half #{k}")
        # pi+(f lower) = pi+(pi+(f) lower): pi+ kills pi-(f) lower, which
        # has no pole at +i
        g = pi_plus(plus.scalar_part() * lower)
        h = pi_plus(f * lower)
        if g != h:
            failures.append(f"pi+ lower-half multiplication #{k}")
        if f.den.degree_in(XIN) - f.num.degree_in(XIN) >= 1:
            if pi_prime(plus.scalar_part()) != pi_prime(f):
                failures.append(f"pi' o pi+ = pi' #{k}")
        passed += len(failures) == before
    return {"passed": passed, "failures": failures}


def contour_suite(seed: int, count: int) -> Dict:
    """Exact residues vs the derivative-formula oracle and numeric quadrature."""
    import math

    rng = random.Random(seed)
    failures: List[str] = []
    passed = 0
    for k in range(count):
        before = len(failures)
        f = _rand_halfline(rng, decay=2)
        exact = integrate_xi_n(f).scalar_part()
        oracle = integrate_via_residue_oracle(f).scalar_part()
        if exact != oracle:
            failures.append(f"residue oracle #{k}")
        exact_num = exact.substitute({"pi": ScalarExpr.const(1)}).evaluate({})
        val = complex(
            float(exact_num.re) * math.pi, float(exact_num.im) * math.pi
        )
        num = numeric_contour_oracle(f)
        scale = max(abs(val), 1.0)
        if abs(num - val) > 1e-9 * scale:
            failures.append(f"quadrature #{k}: {num} vs {val}")
        passed += len(failures) == before
    return {"passed": passed, "failures": failures}


def sphere_suite(seed: int, count: int) -> Dict:
    """Moment linearity, parity, permutation invariance; quadrature backing.

    Every drawn monomial, and xi1^2 and xi2^4, is also integrated by the
    product-rule oracle, which must give 4*pi times `monomial_moment` to
    1e-12 * 4*pi.
    """
    import math

    rng = random.Random(seed)
    failures: List[str] = []
    om = sym("Omega3")
    four_pi = 4.0 * math.pi

    def quadrature_check(mono: ScalarExpr, exps: List[int], label: str) -> None:
        got = sphere_mc_oracle(mono)
        want = four_pi * float(monomial_moment(exps))
        if abs(got - want) > 1e-12 * four_pi:
            failures.append(f"quadrature {label}: {got} vs {want}")

    passed = 0
    for k in range(count):
        before = len(failures)
        exps = [rng.randint(0, 4) for _ in range(3)]
        mono = S_ONE
        names = ("xi1", "xi2", "xi3")
        for name, e in zip(names, exps):
            mono = mono * sym(name) ** e
        quadrature_check(mono, exps, f"#{k}")
        val = sphere_moment(mono)
        if any(e % 2 for e in exps):
            if not val.is_zero():
                failures.append(f"odd moment #{k}")
        else:
            want = ScalarExpr.const(GRat(monomial_moment(exps))) * om
            if val != want:
                failures.append(f"moment formula #{k}")
            perm = rng.sample(range(3), 3)
            permuted = S_ONE
            for idx, e in zip(perm, exps):
                permuted = permuted * sym(names[idx]) ** e
            if sphere_moment(permuted) != val:
                failures.append(f"permutation invariance #{k}")
            flipped = mono.substitute({"xi1": -sym("xi1")})
            if sphere_moment(flipped) != val:
                failures.append(f"sign-flip invariance #{k}")
        passed += len(failures) == before
    quadrature_check(sym("xi1") ** 2, [2, 0, 0], "xi1^2")
    quadrature_check(sym("xi2") ** 4, [0, 4, 0], "xi2^4")
    return {"passed": passed, "failures": failures}


def symbol_suite(seed: int, count: int) -> Dict:
    """Compose associativity and parametrix identities on random symbols."""
    from .symbols import (
        GradedSymbol,
        SymbolComponent,
        builtin_symbol,
        compose,
        invert,
        check_homogeneity,
    )

    rng = random.Random(seed)
    failures: List[str] = []

    def rand_symbol(top: int, label: str) -> GradedSymbol:
        # xi-homogeneous two-component symbols with metric-profile dependence
        norm2 = sym("shx") ** 2 * (
            sym("xi1") ** 2 + sym("xi2") ** 2 + sym("xi3") ** 2
        ) + sym("xin") ** 2
        assert top % 2 == 0
        lead = CliffordExpr.scalar(
            ScalarExpr.const(GRat(rng.randint(1, 3))) * norm2 ** (top // 2)
        )
        sub = CliffordExpr.scalar(
            ScalarExpr.const(_rand_grat(rng)) * sym("xin") * norm2 ** ((top - 2) // 2)
        )
        comps = {
            top: SymbolComponent(lead, at_point=False),
            top - 1: SymbolComponent(sub, at_point=False),
        }
        return GradedSymbol(label, comps, top, top - 1)

    passed = 0
    for k in range(count):
        before = len(failures)
        p = rand_symbol(2, "P")
        q = rand_symbol(0, "Q")
        r = rand_symbol(2, "R")
        left = compose(compose(p, q, 1), r, 3)
        right = compose(p, compose(q, r, 1), 3)
        for order in (4, 3):
            if not (left.component(order).value - right.component(order).value).is_zero():
                failures.append(f"compose associativity order {order} #{k}")
        passed += len(failures) == before
    # parametrix identities for the operator library
    for op_id in ("D_T", "D_T*"):
        p = builtin_symbol(op_id)
        q = invert(p, -2)
        for left_first in (True, False):
            prod = compose(p, q, -1) if left_first else compose(q, p, -1)
            if prod.component(0).value != CliffordExpr.scalar(S_ONE):
                failures.append(f"parametrix identity {op_id} order 0")
            if not prod.component(-1).value.is_zero():
                failures.append(f"parametrix identity {op_id} order -1")
    for op_id, orders in (("D_T", (1,)), ("nablaXY", (2,)), ("(D_T*D_T)^-1", (-2, -3)),
                          ("D_T^-1", (-1,)), ("(D_T*D_TD_T*)^-1", (-3,))):
        s = builtin_symbol(op_id)
        for order in orders:
            if not check_homogeneity(s.component(order), order):
                failures.append(f"homogeneity {op_id}@{order}")
    return {"passed": passed, "failures": failures}


SUITES: Dict[str, Callable] = {
    "scalars": scalar_suite,
    "clifford": clifford_suite,
    "halfplane": halfplane_suite,
    "contour": contour_suite,
    "sphere": sphere_suite,
    "symbols": symbol_suite,
}

_DEFAULT_COUNTS = {
    "scalars": 200,
    "clifford": 1000,
    "halfplane": 500,
    "contour": 500,
    "sphere": 200,
    "symbols": 10,
}


def run_all_suites(seed: int = 0, scale: int = 0) -> Dict[str, Dict]:
    """Run every suite; `scale` > 0 overrides the per-suite sample counts."""
    out = {}
    for name, fn in SUITES.items():
        count = scale if scale else _DEFAULT_COUNTS[name]
        out[name] = fn(seed=seed, count=count)
    return out
