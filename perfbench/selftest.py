"""Tests of the benchmark's own output checker.

    python3 -m pytest -q perfbench/selftest.py     (from the repository root)

The text parser must agree with the engine's JSON expression trees, which
carry exact numerators and denominators; the report checks must pass on a
real report and catch a value, verdict or collected form changed by hand.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import textform as tf  # noqa: E402
from wresidue import GRat, Poly, ScalarExpr, emit  # noqa: E402
from wresidue.scalars import REG  # noqa: E402

_NAMES = ("xi1", "xin", "h1", "X4", "Y4", "dYn", "pi", "Omega3", "A[1,1,4]", "T[2,1,3]",
          "V[4]", "dT4[1,2,3,4]", "s_scal")


def _tree_to_sympy(tree) -> sympy.Expr:
    """An independent reading of `emit(e, 'json')`: exact (re, im) pairs."""
    def poly(terms):
        out = []
        for item in terms:
            c = item["coeff"]
            coeff = (sympy.Rational(*c["re"]) + sympy.I * sympy.Rational(*c["im"]))
            mono = sympy.Mul(*(tf.symbol(n) ** e for n, e in item["monomial"]))
            out.append(coeff * mono)
        return sympy.Add(*out)

    return poly(tree["num"]) / poly(tree["den"])


def _rand_grat(rng: random.Random) -> GRat:
    den = rng.randint(1, 7)
    return GRat(Fraction(rng.randint(-9, 9), den), Fraction(rng.choice((0, 0, rng.randint(-9, 9))), den))


def _rand_poly(rng: random.Random, nterms: int) -> Poly:
    out = Poly()
    for _ in range(nterms):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            v = REG.id_of(rng.choice(_NAMES))
            mono[v] = mono.get(v, 0) + rng.randint(1, 3)
        out = out + Poly({tuple(sorted(mono.items())): _rand_grat(rng)})
    return out


def _rand_scalar(rng: random.Random) -> ScalarExpr:
    den = Poly()
    while den.is_zero():
        den = _rand_poly(rng, rng.randint(1, 2))
    return ScalarExpr(_rand_poly(rng, rng.randint(0, 5)), den)


def _assert_parses(e: ScalarExpr):
    parsed = tf.parse(e.text())
    tree = json.loads(emit(e, "json"))
    assert tf.equal(parsed, _tree_to_sympy(tree)), e.text()


def test_parser_matches_json_trees_on_random_scalars():
    rng = random.Random(20230801)
    for _ in range(300):
        _assert_parses(_rand_scalar(rng))


def test_parser_matches_json_trees_on_engine_values():
    from wresidue.interior import clifford_part_top_coefficient, interior_density, trace_e
    from wresidue.references import REFERENCES, reference_value

    values = [interior_density(), trace_e(), clifford_part_top_coefficient()]
    for ref_id in sorted(REFERENCES):
        val = reference_value(ref_id)
        if isinstance(val, ScalarExpr):
            values.append(val)
    assert len(values) > 10
    for val in values:
        _assert_parses(val)


def test_coefficient_forms():
    assert tf.parse("5/16i") == sympy.Rational(5, 16) * sympy.I
    assert tf.parse("(1/12-5/12i)*x") == (sympy.Rational(1, 12) - sympy.Rational(5, 12) * sympy.I) * tf.symbol("x")
    assert tf.parse("-i*x^2 + -1*A[1,1,4]") == -sympy.I * tf.symbol("x") ** 2 - tf.symbol("A[1,1,4]")
    assert tf.equal(tf.parse("(1*xin^2 + 1) / (1*xin + i)"), tf.symbol("xin") - sympy.I)


def test_collected_forms_reassemble():
    from wresidue.pipeline import collect_form

    rng = random.Random(7)
    x = [REG.id_of(f"X{j}") for j in range(1, 5)]
    y = [REG.id_of(f"Y{j}") for j in range(1, 5)]
    for _ in range(50):
        c = [ScalarExpr.from_poly(_rand_poly(rng, 2)) for _ in range(4)]
        value = (c[0] * sum((ScalarExpr.var(x[j]) * ScalarExpr.var(y[j]) for j in range(3)),
                            ScalarExpr.const(0))
                 + c[1] * ScalarExpr.var(x[3]) * ScalarExpr.var(y[3])
                 + c[2] * ScalarExpr.var(x[3]) * ScalarExpr.var(REG.id_of("dYn"))
                 + c[3] * ScalarExpr.var(x[0]) * ScalarExpr.var(y[3]))
        text = collect_form(value).text()
        assert tf.equal(tf.reassemble(tf.parse_collected(text)), tf.parse(value.text())), text


def _t46_report():
    from wresidue.report import RunConfig, run_computation

    doc = run_computation(RunConfig(theorem="T4.6", output_format="json"))
    return json.loads(json.dumps(doc))


def test_report_checks_pass_and_catch_changes():
    doc = _t46_report()
    assert checks.check_report(doc, ["T4.6"]) == []

    changed = copy.deepcopy(doc)
    row = changed["sections"][0]["rows"][3]
    row["engine_value"] = row["engine_value"].replace("5/16", "5/17", 1)
    codes = {code for code, _ in checks.check_report(changed, ["T4.6"])}
    assert {"sum", "collected", "verdict"} <= codes

    flipped = copy.deepcopy(doc)
    flipped["sections"][0]["rows"][0]["verdict"] = "mismatch"
    assert [c for c, _ in checks.check_report(flipped, ["T4.6"])] == ["verdict"]

    switched = copy.deepcopy(doc)
    for r in checks.boundary_rows(switched["sections"][0]):
        r["engine_value"] = r["engine_value"].replace("Omega3", "4*pi")
    codes = {code for code, _ in checks.check_switched(switched, doc, "T4.6", "subst-omega3")}
    assert codes == {"stale"}


def test_metric_lists_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, u, _ in run.PER_LAYER}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
