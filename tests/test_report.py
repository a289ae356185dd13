"""Report assembly, serialization round-trips, CLI contract, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import wresidue
from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, REG, ScalarExpr, S_ZERO, sym
from wresidue.clifford import CliffordExpr
from wresidue.pipeline import (
    apply_torsion_switches,
    collect_form,
    collected_to_scalar,
    compute_case_term,
    enumerate_cases,
    make_context,
)
from wresidue.report import (
    RunConfig,
    compare_with_reference,
    emit,
    expr_from_tree,
    expr_to_tree,
    parse_emitted,
    render_report,
    run_computation,
)
from wresidue.references import REFERENCES, reference_value, slots_for


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_latex_boundary_density():
    e = frac(13, 24) * sym("pi") ** 2 * sym("gXTYT") * sym("h1")
    out = emit(e, "latex")
    assert r"\frac{13}{24}" in out
    assert r"\pi^{2}" in out
    assert r"g(X^{T},Y^{T})" in out
    assert r"h'(0)" in out


def test_emit_zero():
    assert emit(S_ZERO, "text") == "0"
    assert emit(S_ZERO, "latex") == "0"


def test_emit_clifford_rational():
    xin = sym("xin")
    e = CliffordExpr({(1,): 1 / (xin - ScalarExpr.const(I))})
    out = emit(e, "latex")
    assert r"\xi_{n}" in out and "c(e_{1})" in out


def test_json_round_trip_scalar():
    e = (sym("xi1") + frac(3, 7) * sym("h1")) ** 2 / (1 + sym("xin") ** 2)
    out = emit(e, "json")
    back = parse_emitted(out)
    assert back == e


def test_json_round_trip_clifford():
    e = CliffordExpr(
        {
            (): frac(1, 3),
            (1, 4): sym("h1") / (1 + sym("xin") ** 2),
        }
    )
    back = expr_from_tree(expr_to_tree(e))
    assert back == e


def test_round_trip_every_reference_value():
    for rid in REFERENCES:
        val = reference_value(rid)
        back = expr_from_tree(expr_to_tree(val))
        mismatch = (
            not (back - val).is_zero()
            if isinstance(val, CliffordExpr)
            else back != val
        )
        assert not mismatch, rid


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_reflexive():
    val = reference_value("eq_4_32")
    verdict, delta = compare_with_reference(val, "eq_4_32")
    assert verdict == "match" and delta is None


def test_compare_constructed_mismatch():
    val = reference_value("eq_4_32") + sym("pi") * sym("Omega3")
    verdict, delta = compare_with_reference(val, "eq_4_32")
    assert verdict == "mismatch"
    assert delta.scalar_part() == sym("pi") * sym("Omega3")


def test_compare_unknown_reference_rejected():
    with pytest.raises(EngineError):
        compare_with_reference(S_ZERO, "eq_0_0")


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def t46_doc():
    return run_computation(RunConfig(theorem="T4.6"))


def test_report_structure(t46_doc):
    section = t46_doc["sections"][0]
    ids = [row["id"] for row in section["rows"]]
    assert ids == [f"T4.6/{c}" for c in ("a1", "a2", "a3", "b", "c")]
    assert section["totals"]["boundary"]["id"] == "T4.6/total"
    assert section["totals"]["interior"]["verdict"] == "match"
    for row in section["rows"]:
        assert row["verdict"] in ("match", "mismatch")
        if row["verdict"] == "mismatch":
            assert row["delta"]
            assert row["trail"], "mismatch rows carry a step trail"


def test_first_case_row_matches(t46_doc):
    row = t46_doc["sections"][0]["rows"][0]
    assert row["verdict"] == "match"
    assert row["engine_value"] == "0"


def test_symbol_diff_rows_present(t46_doc):
    diffs = {d["id"]: d["verdict"] for d in t46_doc["sections"][0]["symbol_diffs"]}
    assert diffs["T4.6/symbol-diff/(D_T*D_T)^-1@-2"] == "match"
    assert diffs["T4.6/symbol-diff/(D_T*D_T)^-1@-3"] == "mismatch"


def test_slot_verdicts_attached(t46_doc):
    rows = {r["id"]: r for r in t46_doc["sections"][0]["rows"]}
    slots = [t for t in rows["T4.6/a2"]["trail"] if t.get("ref")]
    slot_ids = {t["ref"] for t in slots}
    assert {"eq_4_27", "eq_4_29", "eq_4_31", "eq_4_35"} <= slot_ids
    verdicts = {t["ref"]: t["verdict"] for t in slots}
    assert verdicts["eq_4_27"] == "match"
    assert verdicts["eq_4_29"] == "match"


_TORSION_ATOMS = re.compile(r"\b(?:A|T|V|dT2|dT4|dV)\[|\b(?:normT2|normV2|divV)\b")
_OMEGA3_ATOM = re.compile(r"\bOmega3\b")


def _run_keeping_context(monkeypatch, cfg):
    """run_computation, and the context of the configured reading it evaluated."""
    from wresidue import report

    contexts = []

    def keep(theorem, sigma3_variant="printed"):
        contexts.append(make_context(theorem, sigma3_variant))
        return contexts[-1]

    monkeypatch.setattr(report, "make_context", keep)
    doc = run_computation(cfg)
    return doc, contexts[0]


def _strings(node):
    """Every string value in a nested report section."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for val in node.values():
            yield from _strings(val)
    elif isinstance(node, list):
        for val in node:
            yield from _strings(val)


def _as_clifford(e):
    return CliffordExpr.scalar(e) if isinstance(e, ScalarExpr) else e


def _check_switched_section(section, ctx, switch, atoms):
    """Every field of every boundary row describes the switched value."""
    values = {
        f"{ctx.theorem}/{c.case_id}": switch(compute_case_term(ctx, c).value)
        for c in enumerate_cases(ctx.theorem)
    }
    total = S_ZERO
    for v in values.values():
        total = total + v
    values[f"{ctx.theorem}/total"] = values[f"{ctx.theorem}/theorem"] = total
    totals = section["totals"]
    for row in section["rows"] + [totals["boundary"], totals["theorem_statement"]]:
        for key in ("engine_value", "engine_collected", "delta", "reference_value"):
            assert not atoms.search(row[key] or ""), (row["id"], key)
        value = values[row["id"]]
        collected = collect_form(value)
        assert row["engine_value"] == value.text(), row["id"]
        assert row["engine_collected"] == collected.text(), row["id"]
        assert collected_to_scalar(collected) == value, row["id"]
    # rows, trails, totals, symbol diffs and the sigma3 variant check alike
    stale = [text for text in _strings(section) if atoms.search(text)]
    assert not stale, stale[:3]
    # a slot step compares the switched engine value with the switched printed one
    steps = {
        t["ref"]: t for row in section["rows"] for t in row["trail"] if t.get("ref")
    }
    slots = slots_for(ctx.theorem)
    assert {slot.slot_id for slot in slots} == set(steps)
    for slot in slots:
        engine = switch(_as_clifford(slot.build_engine(ctx)))
        printed = switch(_as_clifford(slot.build_ref()))
        step = steps[slot.slot_id]
        assert step["expr"] == engine.text(), slot.slot_id
        want = "match" if (engine - printed).is_zero() else "mismatch"
        assert step["verdict"] == want, slot.slot_id


def test_no_torsion_config_strips_atoms(monkeypatch):
    cfg = RunConfig(theorem="T5.4", torsion_a=False, torsion_t=False, torsion_v=False)
    doc, ctx = _run_keeping_context(monkeypatch, cfg)
    for row in doc["sections"][0]["rows"]:
        assert "A[" not in row["engine_value"]
        assert "T[" not in row["engine_value"]
        assert "V[" not in row["engine_value"]
    _check_switched_section(
        doc["sections"][0], ctx,
        lambda v: apply_torsion_switches(v, False, False, False), _TORSION_ATOMS,
    )


def test_subst_omega3(monkeypatch):
    cfg = RunConfig(theorem="T4.6", subst_omega3=True)
    doc, ctx = _run_keeping_context(monkeypatch, cfg)
    total = doc["sections"][0]["totals"]["boundary"]["engine_value"]
    assert "Omega3" not in total
    _check_switched_section(
        doc["sections"][0], ctx,
        lambda v: v.substitute({"Omega3": ScalarExpr.const(4) * sym("pi")}), _OMEGA3_ATOM,
    )


def test_json_report_bytes_pinned():
    """The JSON reports of both boundary theorems are pinned byte for byte."""
    pinned = {
        "T4.6": "f3336b239836bd33a0bdf228070681950e55d73a755a7636cfcc689613ab4b79",
        "T5.4": "adccaa77011f8a48053bf01a2850d7c58252811fcd1ef53ef05f6e23673c85aa",
    }
    for theorem, digest in pinned.items():
        cfg = RunConfig(theorem=theorem, output_format="json")
        text = render_report(run_computation(cfg), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == digest, theorem


def test_determinism_byte_identical():
    cfg1 = RunConfig(theorem="T4.6", output_format="json", seed=42)
    cfg2 = RunConfig(theorem="T4.6", output_format="json", seed=42)
    doc1 = render_report(run_computation(cfg1), "json")
    doc2 = render_report(run_computation(cfg2), "json")
    assert doc1.encode() == doc2.encode()


def test_interior_report_rows():
    doc = run_computation(RunConfig(theorem="T2.3"))
    rows = {r["id"]: r for r in doc["sections"][0]["rows"]}
    assert rows["T2.3/trace-E"]["verdict"] == "match"
    assert rows["T2.3/density"]["verdict"] == "match"
    for name in (
        "T2.3/connection-derivative-trace",
        "T2.3/connection-commutator-trace",
        "T2.3/connection-bracket-trace",
    ):
        assert rows[name]["verdict"] == "match"


def test_interior_text_render_lists_every_row():
    doc = run_computation(RunConfig(theorem="T2.3"))
    text = render_report(doc, "text")
    for row in doc["sections"][0]["rows"]:
        assert f"  {row['id']}: " in text
    out = _run_cli("run", "--theorem", "T2.3")
    assert out.returncode == 0, out.stderr
    assert "T2.3/four-form-top-coefficient: reported separately" in out.stdout


def test_config_validation():
    with pytest.raises(EngineError):
        RunConfig(theorem="T0.0").validate()
    with pytest.raises(EngineError):
        RunConfig.from_mapping({"no_such_key": 1})


def test_config_rejects_a_method_name_as_key():
    with pytest.raises(EngineError, match="unknown configuration key 'validate'"):
        RunConfig.from_mapping({"theorem": "T2.3", "validate": 1})


def test_config_rejects_unknown_case():
    with pytest.raises(EngineError, match="unknown case 'zz'"):
        RunConfig.from_mapping({"theorem": "T4.6", "case": "zz"})


@pytest.mark.parametrize("key", ["torsion_a", "torsion_t", "torsion_v", "subst_omega3"])
def test_config_rejects_non_boolean_switch(key):
    with pytest.raises(EngineError, match=f"{key} must be true or false"):
        RunConfig.from_mapping({"theorem": "T2.3", key: 0})


def test_config_rejects_negative_oracle_samples():
    with pytest.raises(EngineError, match="oracle_samples must not be negative"):
        RunConfig.from_mapping({"theorem": "T2.3", "oracle_samples": -1})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args):
    """The CLI in a child process that imports this `wresidue`."""
    src = os.path.dirname(os.path.dirname(wresidue.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "wresidue.cli", *args],
        capture_output=True,
        text=True,
        timeout=500,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_cli_list():
    out = _run_cli("list")
    assert out.returncode == 0
    assert "eq_4_32" in out.stdout
    assert "T4.6" in out.stdout


def test_cli_run_single_case(tmp_path):
    out_path = tmp_path / "row.txt"
    out = _run_cli("run", "--theorem", "T4.6", "--case", "a1", "--out", str(out_path))
    assert out.returncode == 0
    text = out_path.read_text()
    assert "T4.6/a1: verdict=match" in text


def test_cli_config_file_and_json_format(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"theorem": "T2.3", "output_format": "json", "seed": 3})
    )
    out = _run_cli("run", "--config", str(cfg_path))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["meta"]["config"]["theorem"] == "T2.3"


def test_cli_usage_error_exit_code():
    out = _run_cli("run", "--theorem", "bogus")
    assert out.returncode == 2  # argparse exits with 2 on usage errors


def test_cli_verify_suite():
    out = _run_cli("verify", "--suite", "sphere", "--samples", "40")
    assert out.returncode == 0
    assert "sphere" in out.stdout and "[ok]" in out.stdout


def _assert_usage_error(out):
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def test_cli_config_file_errors(tmp_path):
    _assert_usage_error(_run_cli("run", "--config", str(tmp_path / "missing.json")))
    bad = tmp_path / "internal-oracle.json"  # words that mark internal errors
    bad.write_text("{not json")
    _assert_usage_error(_run_cli("run", "--config", str(bad)))
    not_object = tmp_path / "list.json"
    not_object.write_text('["T2.3"]')
    _assert_usage_error(_run_cli("run", "--config", str(not_object)))


def test_cli_out_into_missing_directory(tmp_path):
    out = _run_cli("run", "--theorem", "T2.3", "--out", str(tmp_path / "no" / "report.txt"))
    _assert_usage_error(out)


def test_cli_rejects_negative_sample_counts():
    out = _run_cli("verify", "--suite", "sphere", "--samples", "-3")
    _assert_usage_error(out)
    assert out.stdout == ""
    _assert_usage_error(_run_cli("run", "--theorem", "T2.3", "--oracle-samples", "-1"))
