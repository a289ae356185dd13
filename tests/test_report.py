"""Report assembly, serialization round-trips, CLI contract, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import wresidue
from wresidue import cli
from wresidue.gaussian import GRat, I
from wresidue.scalars import EngineError, REG, ScalarExpr, S_ZERO, sym
from wresidue.clifford import CliffordExpr
from wresidue.pipeline import (
    apply_torsion_switches,
    case_stages,
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
from wresidue.printed import REFERENCE_OF_ROW, REFERENCES, RefEntry, reference_value
from wresidue.references import slots_for
from wresidue.symbols import builtin_symbol, recomputed_symbol


def frac(a, b=1):
    return ScalarExpr.const(GRat(Fraction(a, b)))


def _rendered(doc, output_format):
    """The report `render_report` writes, as one string."""
    out = io.StringIO()
    render_report(doc, output_format, out)
    return out.getvalue()


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


def test_emit_latex_rejects_a_clifford_expression():
    xin = sym("xin")
    e = CliffordExpr({(1,): 1 / (xin - ScalarExpr.const(I))})
    with pytest.raises(EngineError, match="LaTeX rendering takes a scalar"):
        emit(e, "latex")


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


# The sha256 of the text of every printed result as the hand-built reference
# builders gave it, before the tables over the reporting basis replaced them.
_REFERENCE_TEXT_SHA256 = {
    "eq_2_21": "f1503c5fa1b9e45572512eade40634297eec08fff95e43a02942bec59bdb9f23",
    "eq_4_26": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "eq_4_32": "bb3a434364d9ba48079079aa03bf6f993e608ad457c66f0c014457bc7f4531a4",
    "eq_4_39": "76a0134549129792b9ac34053c5b8611810690faeaba6efbe9caa182aeebd186",
    "eq_4_44": "e8a22649c5f166631d512487ad70268d22116a4e0427fa8f28b5160ac8cbaa3c",
    "eq_4_55": "df217b430c34c0bfc0098ba31cdb0296d5a54d546749a874933370a704f67f29",
    "eq_4_56": "2c775aee4a4be489c72269f006ed41f1af873a1ad7bf1759c4b64a70ebd7a291",
    "eq_5_13": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "eq_5_19": "105cdc50627f4c8a0d00072fae3cd2b39ec315cd1d8145ab87c3d0104fb1bac6",
    "eq_5_25": "2a93d6e6ab69069a1b6d0cda1def308ac5ce08eb947e836eab7e0e56783b3342",
    "eq_5_43": "a3217d4fb35ac8c43c6dcdf51be6507b5893210b542aaa70391c8ebf0b454049",
    "eq_5_50": "8ff5c7f7d252eded455c3fc71ff03202d7c549aed7771ad79b1d095ce7d55fcb",
    "eq_5_51": "08f90aff72039b2f8b2761735b119e2fabc0aa5f9dbd041c83ca951a8cb3f95d",
    "thm_2_3": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_4_1": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_4_6": "2c775aee4a4be489c72269f006ed41f1af873a1ad7bf1759c4b64a70ebd7a291",
    "thm_5_1": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_5_4": "3488b1ac5aeab51c01da143bce455f30c7aec5899dfcde9ecf3b24c97541c879",
}


@pytest.mark.parametrize("ref_id", sorted(_REFERENCE_TEXT_SHA256))
def test_reference_table_text_is_pinned(ref_id):
    """A transcription slip in a coefficient table changes the text of its value."""
    text = reference_value(ref_id).text()
    assert hashlib.sha256(text.encode()).hexdigest() == _REFERENCE_TEXT_SHA256[ref_id]


def test_every_printed_result_is_pinned():
    assert set(REFERENCES) == set(_REFERENCE_TEXT_SHA256)


def test_a_table_key_naming_no_basis_monomial_fails():
    with pytest.raises(EngineError, match="names no basis monomial"):
        RefEntry("eq_0_0", "a slip", ("T4.6/a1",), {"h1 X_nY_n pi^2": ("1", "0")})


def test_report_rows_and_table_rows_name_each_other(all_doc):
    """Each report row with a reference is named by exactly one table row, and
    every table row is read by some report row: no dead entries."""
    read = {}
    for section in all_doc["sections"]:
        for row in section["rows"] + list(section.get("totals", {}).values()):
            if "reference" in row:
                assert row["reference"] in REFERENCES, row["id"]
                read[row["id"]] = row["reference"]
    assert read == REFERENCE_OF_ROW
    assert sum(len(entry.rows) for entry in REFERENCES.values()) == len(REFERENCE_OF_ROW)
    assert set(read.values()) == set(REFERENCES)


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


@pytest.fixture(scope="module")
def all_doc():
    return run_computation(RunConfig(theorem="all"))


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
    from wresidue import pipeline

    contexts = []

    def keep(*args, **kwargs):
        contexts.append(make_context(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(pipeline, "make_context", keep)
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


# (torsion_a, torsion_t, torsion_v): each family off alone, then all three
_SWITCHES = [(False, True, True), (True, False, True), (True, True, False), (False, False, False)]
_DIFFED_SYMBOLS = {"T4.6": ("(D_T*D_T)^-1",), "T5.4": ("D_T^-1", "(D_T*D_TD_T*)^-1")}


@pytest.fixture(scope="module")
def full_torsion_runs():
    """The full torsion context of T4.6 and T5.4, every case evaluated, and
    the engine value of each of its printed-intermediate slots."""
    out = {}
    for theorem in ("T4.6", "T5.4"):
        ctx = make_context(theorem)
        for case in enumerate_cases(theorem):
            case_stages(ctx, case)
        out[theorem] = ctx, {slot.slot_id: slot.build_engine(ctx) for slot in slots_for(theorem)}
    return out


def _assert_same_components(mine, theirs, switch):
    assert mine.orders() == theirs.orders(), theirs.label
    for order in theirs.orders():
        want = switch(theirs.component(order).value)
        assert mine.component(order).value == want, (theirs.label, order)


@pytest.mark.parametrize("flags", _SWITCHES, ids=["no-A", "no-T", "no-V", "no-torsion"])
@pytest.mark.parametrize("theorem", ["T4.6", "T5.4"])
def test_switching_at_the_source_equals_switching_the_full_run(full_torsion_runs, theorem,
                                                               flags):
    """Building the symbols with torsion families at 0 gives, in every
    symbol component, stage field, trail step and slot, the full torsion
    value after `apply_torsion_switches`: an atom that the source switch
    missed would stay in one side."""
    def switch(value):
        return apply_torsion_switches(value, *flags)

    off = RunConfig(torsion_a=flags[0], torsion_t=flags[1], torsion_v=flags[2]).torsion_off
    full, slot_values = full_torsion_runs[theorem]
    ctx = make_context(theorem, "printed", off)
    assert ctx.torsion_off == off
    _assert_same_components(ctx.factor1, full.factor1, switch)
    _assert_same_components(ctx.factor2, full.factor2, switch)
    for op_id in _DIFFED_SYMBOLS[theorem]:
        _assert_same_components(builtin_symbol(op_id, "printed", off), builtin_symbol(op_id),
                                switch)
        _assert_same_components(recomputed_symbol(op_id, off), recomputed_symbol(op_id), switch)
    for case in enumerate_cases(theorem):
        for mine, theirs in zip(case_stages(ctx, case), case_stages(full, case), strict=True):
            for name in ("f2_base", "f2", "f1_base", "f1", "traced", "moment"):
                want = getattr(theirs, name)
                want = None if want is None else switch(want)
                assert getattr(mine, name) == want, (case.case_id, name)
            assert len(mine.steps) == len(theirs.steps), case.case_id
            for step, full_step in zip(mine.steps, theirs.steps):
                assert (step.step_id, step.op, step.note) == (
                    full_step.step_id, full_step.op, full_step.note)
                want = None if full_step.expr is None else switch(full_step.expr)
                assert step.expr == want, (case.case_id, step.step_id)
    for slot in slots_for(theorem):
        assert slot.build_engine(ctx) == switch(slot_values[slot.slot_id]), slot.slot_id


def test_a_switched_run_leaves_the_default_run_unchanged(monkeypatch):
    """Switched symbols are cached under their own key: after a run with
    one family off builds every symbol first, the default run in the same
    process still gives its pinned bytes."""
    from wresidue import symbols

    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    run_computation(RunConfig(theorem="T4.6", output_format="json", torsion_t=False))
    text = _rendered(run_computation(RunConfig(theorem="T4.6", output_format="json")), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f3336b239836bd33a0bdf228070681950e55d73a755a7636cfcc689613ab4b79")


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
    """The JSON reports of every theorem are pinned byte for byte, and so are
    the case filter and the two switches, which read monomials through the
    filter of `apply_torsion_switches`, the xik variant as LaTeX, an
    interior theorem as text, and `all` as text and as LaTeX."""
    pinned = [
        ({"theorem": "T4.6"}, "json",
         "f3336b239836bd33a0bdf228070681950e55d73a755a7636cfcc689613ab4b79"),
        ({"theorem": "T5.4"}, "json",
         "adccaa77011f8a48053bf01a2850d7c58252811fcd1ef53ef05f6e23673c85aa"),
        ({"theorem": "T5.4", "case": "b"}, "json",
         "c1ee85ea0ab87cda0d7ea6b174ad456d84ebcc6efdc671144b62ad03d90290ea"),
        ({"theorem": "T5.4", "torsion_a": False, "torsion_t": False, "torsion_v": False}, "json",
         "aac5117a82c9804a47eac254727c90f268a61764a7e0d745c89452ebb5bd4e54"),
        ({"theorem": "T4.6", "subst_omega3": True}, "json",
         "ba613044c26493ea834331802266b7541d45fe3ccfe8d4e330fc6cbcf35163a8"),
        ({"theorem": "all"}, "json",
         "6f76676cfeab3109c344a100cdf2f33e02f6962b8fc1ea7bea66c71f49386872"),
        ({"theorem": "T2.3"}, "json",
         "fe252d94edb347f2b46f34e313855ea5d5781788e8b3cce117178c3a3c78b938"),
        ({"theorem": "T4.1"}, "json",
         "e3752eee18b0bca4b9009464f6516bfa876b94d639c3ec1b60990f6b950995c3"),
        ({"theorem": "T5.1"}, "json",
         "4718d5d65fec208756aad07b2aee884d6f7b0ff300f58822e6a3120a5ed20e47"),
        ({"theorem": "T4.6", "sigma3_variant": "xik"}, "latex",
         "e5a8cc7e2eb77fd6b09a37cd6ea124dd471f4cce518c0f6c2977b57cabc5f250"),
        ({"theorem": "T2.3"}, "text",
         "f98e45930f137ddddef53b8839566901187aa3c6e8c9bb0afdb267fc5fad225a"),
        ({"theorem": "all"}, "text",
         "854b259fd97f9bd2527e76953aa0faab9fc639367c51f579d7c66eb51d56ce28"),
        ({"theorem": "all"}, "latex",
         "eab9e43d4eab95d158419c89c5c2426ef7178f9e692c2fe915e945745b8d153c"),
    ]
    for fields_, fmt, digest in pinned:
        cfg = RunConfig(output_format=fmt, **fields_)
        text = _rendered(run_computation(cfg), fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (fields_, fmt)


def test_cli_streams_the_pinned_report_bytes(tmp_path, capsys):
    """`run` streams the report into stdout or `--out` with the bytes that
    `render_report` gives: the T4.6 JSON digest is the pinned one both ways,
    and text and LaTeX equal a render into a string buffer."""
    t46 = "f3336b239836bd33a0bdf228070681950e55d73a755a7636cfcc689613ab4b79"
    argv = ["run", "--theorem", "T4.6", "--format", "json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == t46
    path = tmp_path / "t46.json"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == t46
    for flags, cfg in (
        (["--theorem", "T2.3", "--format", "text"],
         RunConfig(theorem="T2.3", output_format="text")),
        (["--theorem", "T4.6", "--sigma3-variant", "xik", "--format", "latex"],
         RunConfig(theorem="T4.6", sigma3_variant="xik", output_format="latex")),
    ):
        assert cli.main(["run"] + flags) == 0
        assert capsys.readouterr().out == _rendered(run_computation(cfg), cfg.output_format)


def test_slots_read_the_restricted_bases_of_their_cases():
    """The printed restricted factors (4.34), (4.41), (5.21) and (5.45) and the
    projected leading first factor are the stage fields that the pipeline
    keeps before the xin derivatives, equal to deriving them afresh."""
    from wresidue.halfplane import pi_plus
    from wresidue.pipeline import case_stages, find_case
    from wresidue.references import SLOTS, _projected_leading_f1
    from wresidue.symbols import d_xn

    engine = {s.slot_id: s.build_engine for s in SLOTS}
    for theorem, reads in (
        ("T4.6", (("eq_4_34", "a3", -2, True), ("eq_4_41", "b", -3, False))),
        ("T5.4", (("eq_5_21", "a3", -3, True), ("eq_5_45", "c", -4, False))),
    ):
        ctx = make_context(theorem)
        for slot_id, case_id, order, normal in reads:
            comp = ctx.factor2.component(order)
            want = (d_xn(comp) if normal else comp).value.restrict_sphere()
            (stage,) = case_stages(ctx, find_case(theorem, case_id))
            assert stage.f2_base == want, slot_id
            assert engine[slot_id](ctx) == want, slot_id
        top = ctx.factor1.component(ctx.factor1.top).value.restrict_sphere()
        (stage,) = case_stages(ctx, find_case(theorem, "a3"))
        assert stage.f1_base == top, theorem
        assert _projected_leading_f1(ctx) == pi_plus(top), theorem


def test_determinism_byte_identical():
    cfg1 = RunConfig(theorem="T4.6", output_format="json", seed=42)
    cfg2 = RunConfig(theorem="T4.6", output_format="json", seed=42)
    doc1 = _rendered(run_computation(cfg1), "json")
    doc2 = _rendered(run_computation(cfg2), "json")
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
    text = _rendered(doc, "text")
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


@pytest.mark.parametrize("theorem", ["T2.3", "T4.1", "T5.1"])
def test_config_rejects_case_on_interior_theorem(theorem):
    with pytest.raises(EngineError, match=f"theorem {theorem} has no boundary cases"):
        RunConfig.from_mapping({"theorem": theorem, "case": "b"})
    RunConfig.from_mapping({"theorem": "all", "case": "b"})  # filters the boundary theorems


def test_config_rejects_negative_oracle_samples():
    with pytest.raises(EngineError, match="oracle_samples must not be negative"):
        RunConfig.from_mapping({"theorem": "T2.3", "oracle_samples": -1})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_python(*args):
    """A child interpreter that imports this `wresidue`."""
    src = os.path.dirname(os.path.dirname(wresidue.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=500,
        env=dict(os.environ, PYTHONPATH=path),
    )


def _run_cli(*args):
    """The CLI in a child process that imports this `wresidue`."""
    return _run_python("-m", "wresidue.cli", *args)


def test_cli_import_does_not_load_numpy():
    """numpy serves only the numeric oracles, so importing the CLI (and so a
    report run) does not pay for loading it."""
    out = _run_python("-c", "import sys, wresidue.cli; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_dataclasses():
    """No record of the engine is a dataclass, so importing the CLI does not
    pay for loading `dataclasses` (and `inspect` under it)."""
    out = _run_python("-c", "import sys, wresidue.cli; print('dataclasses' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_BOUNDARY_STACK = ("wresidue.pipeline", "wresidue.references", "wresidue.symbols",
                   "wresidue.halfplane", "wresidue.integration")


def test_interior_run_loads_no_boundary_module():
    """An interior theorem reads its references from `printed`, so a cold
    `run --theorem T2.3 --format json` loads none of the boundary stack, and
    no `dataclasses`; its report is the pinned one."""
    names = _BOUNDARY_STACK + ("dataclasses",)
    out = _run_python(
        "-c",
        "import os, sys; from wresidue.cli import main; "
        "rc = main(['run', '--theorem', 'T2.3', '--format', 'json', '--out', os.devnull]); "
        f"print(rc, [n for n in {names!r} if n in sys.modules])",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 []", out.stdout


def test_boundary_modules_do_not_load_the_report():
    """The package re-exports lazily: importing `pipeline` loads the boundary
    stack it needs, and neither `report`, the slots, `verify` nor `cli`."""
    out = _run_python(
        "-c",
        "import json, sys, wresidue.pipeline; "
        "print(json.dumps([n for n in sys.modules if n.startswith('wresidue.')]))",
    )
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert set(_BOUNDARY_STACK) - {"wresidue.references"} <= loaded
    assert loaded.isdisjoint({"wresidue.report", "wresidue.references", "wresidue.verify",
                              "wresidue.cli"}), loaded


_PACKAGE_EXPORTS = (
    "GRat", "EngineError", "Indeterminate", "Poly", "Registry", "ScalarExpr", "sym",
    "CliffordExpr", "cl_trace", "matrix_oracle_trace",
    "pi_minus", "pi_plus", "pi_prime", "principal_part",
    "integrate_xi_n", "numeric_contour_oracle", "sphere_moment",
    "GradedSymbol", "SymbolComponent", "builtin_symbol", "compose", "invert",
    "EndomorphismE", "curvature_trace_identities", "einstein_functional_rhs", "trace_e",
    "CaseSpec", "PhiReport", "compute_case_term", "enumerate_cases", "total_boundary_term",
    "RunConfig", "compare_with_reference", "emit", "run_computation",
)


def test_every_package_export_resolves():
    """Each name the package exports resolves, on first access, to the object
    its defining module holds; other names are still missing."""
    import importlib

    assert sorted(wresidue.__all__) == sorted(_PACKAGE_EXPORTS)
    for name in _PACKAGE_EXPORTS:
        value = getattr(wresidue, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert "GRat" in dir(wresidue)
    with pytest.raises(AttributeError):
        wresidue.no_such_name


@pytest.mark.parametrize("suite", ["contour", "sphere"])
def test_cli_numeric_oracles_load_neither_numpy_nor_scipy(suite):
    """Both numeric oracles are standard-library code, so a verify run of
    their suites loads neither numpy nor scipy."""
    out = _run_python(
        "-c",
        "import sys; from wresidue.cli import main; "
        f"rc = main(['verify', '--suite', '{suite}', '--samples', '20']); "
        "print(rc, 'numpy' in sys.modules, 'scipy' in sys.modules)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False False", out.stdout


def test_cli_list():
    """The listing, quotes from the reference table included, is pinned byte
    for byte."""
    out = _run_cli("list")
    assert out.returncode == 0
    assert "eq_4_32" in out.stdout
    assert "T4.6" in out.stdout
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "da667687808a3fb2c9d6724ffde462adfafdf323fdca903dd40bbc6ba0ff5052"
    )


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


@pytest.mark.parametrize("flags, key, want", [
    (["--seed", "0"], "seed", 0),
    (["--format", "text"], "output_format", "text"),
    (["--theorem", "all"], "theorem", "all"),
    (["--oracle-samples", "0"], "oracle_samples", 0),
    (["--sigma3-variant", "printed"], "sigma3_variant", "printed"),
    ([], "seed", 7),
])
def test_cli_flag_at_its_default_overrides_the_config_file(tmp_path, flags, key, want):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "theorem": "T2.3", "seed": 7, "output_format": "json", "oracle_samples": 3,
        "sigma3_variant": "xik",
    }))
    args = cli._build_parser().parse_args(["run", "--config", str(cfg_path), *flags])
    assert getattr(cli._config_from_args(args), key) == want


def test_cli_flags_without_config_give_the_default_config():
    args = cli._build_parser().parse_args(["run"])
    assert cli._config_from_args(args) == RunConfig()


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


def test_cli_out_into_missing_directory(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "no" / "report.txt")
    _assert_usage_error(_run_cli("run", "--theorem", "T2.3", "--out", missing))

    def no_computation(cfg):
        raise AssertionError("the report was computed before --out was opened")

    monkeypatch.setattr(cli, "run_computation", no_computation)
    assert cli.main(["run", "--theorem", "T5.4", "--out", missing]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2]")


def test_cli_engine_error_exits_2(monkeypatch, capsys):
    """An engine failure is not a usage error, whatever its message says."""

    def failing(cfg):
        raise EngineError("inexact polynomial division")

    monkeypatch.setattr(cli, "run_computation", failing)
    assert cli.main(["run", "--theorem", "T4.6"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: inexact polynomial division"]


def test_cli_rejects_case_on_interior_theorem():
    out = _run_cli("run", "--theorem", "T2.3", "--case", "b")
    _assert_usage_error(out)
    assert out.stdout == ""


def _scalar_suite_draws(monkeypatch, fail_substitute: bool, run):
    """The values `verify.scalar_suite` draws while `run` runs, with the first
    substitution made to raise when `fail_substitute` is set."""
    from wresidue import verify

    drawn = []
    real_grat, real_subst = verify._rand_grat, ScalarExpr.substitute

    def recording(rng, small=False):
        drawn.append(real_grat(rng, small))
        return drawn[-1]

    def flaky(self, bindings):
        if fail_substitute and not flaky.raised:
            flaky.raised = True
            raise EngineError("zero denominator after substitution")
        return real_subst(self, bindings)

    flaky.raised = False
    monkeypatch.setattr(verify, "_rand_grat", recording)
    monkeypatch.setattr(ScalarExpr, "substitute", flaky)
    out = run()
    monkeypatch.undo()
    return out, drawn


def test_scalar_suite_counts_an_uncheckable_sample_as_skipped(monkeypatch, capsys):
    from wresidue import verify

    plain, plain_draws = _scalar_suite_draws(
        monkeypatch, False, lambda: verify.scalar_suite(seed=1, count=1))
    assert plain == {"passed": 1, "skipped": 0, "failures": []}
    skipped, skipped_draws = _scalar_suite_draws(
        monkeypatch, True, lambda: verify.scalar_suite(seed=1, count=1))
    assert skipped == {"passed": 0, "skipped": 1, "failures": []}
    assert skipped_draws == plain_draws  # the skip changes no draw
    code, _ = _scalar_suite_draws(
        monkeypatch, True,
        lambda: cli.main(["verify", "--suite", "scalars", "--samples", "1", "--seed", "1"]))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "scalars: 0 passed, 1 skipped, 0 failed [ok]"


def test_cli_rejects_negative_sample_counts():
    out = _run_cli("verify", "--suite", "sphere", "--samples", "-3")
    _assert_usage_error(out)
    assert out.stdout == ""
    _assert_usage_error(_run_cli("run", "--theorem", "T2.3", "--oracle-samples", "-1"))
