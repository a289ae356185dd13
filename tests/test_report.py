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

def test_emit_zero():
    assert emit(S_ZERO, "text") == "0"


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
# eq_5_43, eq_5_51 and thm_5_4 name Sum A_iin, which the registry now holds as
# the vector trace A[4] of the torsion (`scalars.atom_A`), and are pinned on it.
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
    "eq_5_43": "9206a4c8e04192afcddb01d9f3c2ce4c74550b2f4b934de700eb7d55ab011b37",
    "eq_5_50": "8ff5c7f7d252eded455c3fc71ff03202d7c549aed7771ad79b1d095ce7d55fcb",
    "eq_5_51": "610d4ca2624faa909b6dc7e4c14b9194820be7551283010c0f00e7eb7b2db590",
    "thm_2_3": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_4_1": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_4_6": "2c775aee4a4be489c72269f006ed41f1af873a1ad7bf1759c4b64a70ebd7a291",
    "thm_5_1": "a8b622877977b0abcf07dc8559d3f9343c0cd20287d0cc010ef46377bfbf0764",
    "thm_5_4": "06c78c4596ff914358f2153a6a52154cae80532a86bca8a95de8cf13657e2887",
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


def test_slot_sides_that_differ_on_the_sphere_relation_only_match():
    """A printed intermediate is stated at |xi'| = 1, so two sides that differ
    by a multiple of xi1^2 + xi2^2 + xi3^2 - 1 compare as a match on the
    co-sphere, and only there."""
    from wresidue.report import _compare_under

    xin = sym("xin")
    printed = sym("h1") * sym("X1") * sym("Y2") / (xin - ScalarExpr.const(I)) ** 3
    relation = sym("xi1") ** 2 + sym("xi2") ** 2 + sym("xi3") ** 2 - 1
    engine = printed + relation * sym("xi1") * sym("X4") / (xin + ScalarExpr.const(I)) ** 2
    _, _, verdict, delta = _compare_under(engine, printed, RunConfig(), on_sphere=True)
    assert (verdict, delta) == ("match", None)
    assert _compare_under(engine, printed, RunConfig())[2] == "mismatch"
    off = printed + sym("xi1") * sym("X4")
    assert _compare_under(off, printed, RunConfig(), on_sphere=True)[2] == "mismatch"


# Which torsion parts a value names: the vector trace A[t] and the axial part
# A[p,q,r] of A, the three-form T and its derivative dT2, and V.
_TORSION_PARTS = {
    "A[t]": re.compile(r"\bA\[\d\]"),
    "A[p,q,r]": re.compile(r"\bA\[\d,\d,\d\]"),
    "T": re.compile(r"\bT\["),
    "dT2": re.compile(r"\bdT2\["),
    "V": re.compile(r"\bV\["),
}


def test_ledger_of_the_torsion_parts_of_every_boundary_row(all_doc):
    """Only the vector trace of A and V reach a boundary value: no row or
    total names T, dT2 or the axial part of A, the T4.6 total is free of
    torsion, T5.4/b depends on A[t] and V[k], and T5.4/c on A[t] alone."""
    ledger = {}
    for section in all_doc["sections"]:
        if "boundary" not in section.get("totals", {}):
            continue
        totals = section["totals"]
        for row in section["rows"] + [totals["boundary"], totals["theorem_statement"]]:
            ledger[row["id"]] = {part for part, atom in _TORSION_PARTS.items()
                                 if atom.search(row["engine_value"])}
    torsion = {rid: parts for rid, parts in ledger.items() if parts}
    assert len(ledger) == 14
    assert torsion == {
        "T5.4/b": {"A[t]", "V"},
        "T5.4/c": {"A[t]"},
        "T5.4/total": {"A[t]", "V"},
        "T5.4/theorem": {"A[t]", "V"},
    }


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
        for c in enumerate_cases(ctx)
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
        want = "match" if (engine - printed).restrict_sphere().is_zero() else "mismatch"
        assert step["verdict"] == want, slot.slot_id


# (torsion_a, torsion_t, torsion_v): each family off alone, then all three
_SWITCHES = [(False, True, True), (True, False, True), (True, True, False), (False, False, False)]
# the text of each family's indeterminates, as the registry names them
_FAMILY_ATOMS = {"A": r"\bA\[", "T": r"\b(?:T|dT2|dT4)\[|\bnormT2\b",
                 "V": r"\b(?:V|dV)\[|\b(?:normV2|divV)\b"}


@pytest.mark.parametrize("flags", _SWITCHES, ids=["no-A", "no-T", "no-V", "no-torsion"])
@pytest.mark.parametrize("theorem", ["T4.6", "T5.4"])
def test_no_torsion_config_strips_atoms(monkeypatch, theorem, flags):
    """A torsion switch strips its families' atoms from every field of the
    report, and every row, total and slot describes the full torsion value
    with those families set to 0."""
    cfg = RunConfig(theorem=theorem, torsion_a=flags[0], torsion_t=flags[1],
                    torsion_v=flags[2])
    off = cfg.torsion_off
    doc, ctx = _run_keeping_context(monkeypatch, cfg)
    atoms = re.compile("|".join(_FAMILY_ATOMS[family] for family in off))
    _check_switched_section(
        doc["sections"][0], ctx, lambda v: apply_torsion_switches(v, off), atoms,
    )


def test_a_switched_run_leaves_the_default_run_unchanged(monkeypatch):
    """A switch maps the report's fields, not the shared symbols: after a
    run with one family off builds every symbol first, the default run in
    the same process still gives its pinned bytes."""
    from wresidue import symbols

    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    run_computation(RunConfig(theorem="T4.6", output_format="json", torsion_t=False))
    text = _rendered(run_computation(RunConfig(theorem="T4.6", output_format="json")), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "47a63ea9e81fa203820134820074dd10d57d8932969b7fb6ed41cf716e70ab88")


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
    the case filter, the torsion switches (all three families, and T, A or V
    alone), which read monomials through the filter of
    `apply_torsion_switches`, Omega3 = 4 pi, the xik variant as LaTeX, an
    interior theorem as text, and `all` as text and as LaTeX."""
    pinned = [
        ({"theorem": "T4.6"}, "json",
         "47a63ea9e81fa203820134820074dd10d57d8932969b7fb6ed41cf716e70ab88"),
        ({"theorem": "T5.4"}, "json",
         "105de8573b4de78ddfeaadaafda62dd6fbfe2e201c2aff48cbb9af31423d0ad9"),
        ({"theorem": "T5.4", "case": "b"}, "json",
         "15128df77d0b4522621e08d8e1fa580edc99fc5828d990b2fba5a80aee0ec361"),
        ({"theorem": "T5.4", "torsion_a": False, "torsion_t": False, "torsion_v": False}, "json",
         "0012d2d1a4266fe9e31a5fd86624b38db63101d696786e60a0166780d194f519"),
        ({"theorem": "T4.6", "torsion_t": False}, "json",
         "f0b543aa8441c1cdb92953f1b3222903563a3e65589598aad78915b44ea724c5"),
        ({"theorem": "T5.4", "torsion_a": False}, "json",
         "34c863d90a20131ae1bc853d53a5ef47f3908fbd18c0284d10c9c6b1724af0d6"),
        ({"theorem": "T5.4", "torsion_v": False}, "json",
         "9abc63f95320ca29b700fdb2f28efcf4e2d02bd6a1ad79403eb74f2558b9fd8d"),
        ({"theorem": "T4.6", "subst_omega3": True}, "json",
         "ad0d2c60aeb94efc80255cf9ef7080296936ffc090913af6604450abbadfabca"),
        ({"theorem": "all"}, "json",
         "6cea93a87a98a6796b6a189d7d448b3bb038acddcf6235356203cf1eab85ed33"),
        ({"theorem": "T2.3"}, "json",
         "3431a8a2a4400fa632f3d103d8a32bc3c8ea59b5f4184056182350fd026df53d"),
        ({"theorem": "T4.1"}, "json",
         "75a7dac3dc648dae3c3a233403cc66a23441a0d8905a2e158d2f506e5d8a09d6"),
        ({"theorem": "T5.1"}, "json",
         "20db6de4629874177b941efbc2b996624320dddb9b23bd59ac1692910bdd8b46"),
        ({"theorem": "T4.6", "sigma3_variant": "xik"}, "latex",
         "80575b0f7aa555616c33fd7a17eb46bcc62ad93359ba0ee70b0cf8f89d23787c"),
        ({"theorem": "T2.3"}, "text",
         "783ae8d4f84374a96fa5e4f808b0642475ff1e2606cdd34c6076e83557ff895a"),
        ({"theorem": "all"}, "text",
         "ad27ebb1a2384591310944bb6ea4b5669157361c7b1082ae9753e11d1cdd5a6c"),
        ({"theorem": "all"}, "latex",
         "b055b774ab88d6b1120cc9bb44acec64be87b79683a55a2929246d9cfa7d3baf"),
    ]
    for fields_, fmt, digest in pinned:
        cfg = RunConfig(output_format=fmt, **fields_)
        text = _rendered(run_computation(cfg), fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (fields_, fmt)


def test_cli_streams_the_pinned_report_bytes(tmp_path, capsys):
    """`run` streams the report into stdout or `--out` with the bytes that
    `render_report` gives: the T4.6 JSON digest is the pinned one both ways,
    and text and LaTeX equal a render into a string buffer."""
    t46 = "47a63ea9e81fa203820134820074dd10d57d8932969b7fb6ed41cf716e70ab88"
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
    from wresidue.references import SLOTS
    from wresidue.symbols import d_xn

    engine = {s.slot_id: s.build_engine for s in SLOTS}
    for theorem, projected_f1, reads in (
        ("T4.6", "eq_4_36", (("eq_4_34", "a3", -2, True), ("eq_4_41", "b", -3, False))),
        ("T5.4", "eq_5_22", (("eq_5_21", "a3", -3, True), ("eq_5_45", "c", -4, False))),
    ):
        ctx = make_context(theorem)
        for slot_id, case_id, order, normal in reads:
            comp = ctx.factor2.component(order)
            want = (d_xn(comp) if normal else comp).value.restrict_sphere()
            (stage,) = case_stages(ctx, find_case(ctx, case_id))
            assert stage.f2_base == want, slot_id
            assert engine[slot_id](ctx) == want, slot_id
        top = ctx.factor1.component(ctx.factor1.top).value.restrict_sphere()
        (stage,) = case_stages(ctx, find_case(ctx, "a3"))
        assert stage.f1_base == top, theorem
        assert engine[projected_f1](ctx) == pi_plus(top), theorem


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
    """Every row is listed, and each row compared with a print shows that
    print on its `reference[...] =` line."""
    doc = run_computation(RunConfig(theorem="T2.3"))
    text = _rendered(doc, "text")
    for row in doc["sections"][0]["rows"]:
        assert f"  {row['id']}: " in text
    compared = [row for row in doc["sections"][0]["rows"] if row.get("reference")]
    assert [row["reference"] for row in compared] == ["eq_2_21", "thm_2_3"]
    for row in compared:
        printed = reference_value(row["reference"]).text()
        assert row["reference_value"] == printed
        assert f"    reference[{row['reference']}] = {printed}" in text.splitlines()
    out = _run_cli("run", "--theorem", "T2.3")
    assert out.returncode == 0, out.stderr
    assert "T2.3/four-form-top-coefficient: reported separately" in out.stdout


def test_boundary_text_render_shows_each_total_like_a_row():
    """The theorem totals are rendered as the case rows are: verdict, engine
    line, and the printed value on the `reference[...] =` line."""
    doc = run_computation(RunConfig(theorem="T4.6"))
    lines = _rendered(doc, "text").splitlines()
    totals = doc["sections"][0]["totals"]
    for key, ref in (("boundary", "eq_4_56"), ("theorem_statement", "thm_4_6"),
                     ("interior", "thm_4_1")):
        row = totals[key]
        at = lines.index(f"  {row['id']}: verdict={row['verdict']}")
        engine = row.get("engine_collected", row["engine_value"])
        assert lines[at + 1:at + 3] == [f"    engine = {engine}",
                                        f"    reference[{ref}] = {row['reference_value']}"]


@pytest.mark.parametrize("fields", [{"theorem": "T4.6", "sigma3_variant": "xik"},
                                    {"theorem": "T2.3"}], ids=["T4.6-xik", "T2.3"])
def test_the_report_document_does_not_depend_on_the_format(fields):
    """`run_computation` builds one document per config: the format only
    picks the renderer, and shows only in the echoed config."""
    docs = []
    for fmt in ("text", "json", "latex"):
        doc = run_computation(RunConfig(output_format=fmt, **fields))
        assert doc["meta"]["config"].pop("output_format") == fmt
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


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


def test_cli_list_builds_no_symbol():
    """`list` names each boundary theorem's cases from its row, so it builds
    no context and no graded symbol."""
    out = _run_python(
        "-c",
        "from wresidue import cli, symbols; rc = cli.main(['list']); "
        "print(); print(rc, len(symbols._BUILTIN_CACHE))",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 0"


def test_report_choices_equal_the_theorem_rows():
    """`report` keeps its own copies of the theorem and case names and of the
    sigma3 readings, so that an interior run never loads `pipeline` or
    `symbols`; they must equal the rows and the readings."""
    from wresidue.pipeline import BOUNDARY_THEOREMS
    from wresidue.report import CASE_CHOICES, INTERIOR_THEOREMS, SIGMA3_CHOICES, THEOREM_CHOICES
    from wresidue.symbols import SIGMA3_VARIANTS

    for theorem, row in BOUNDARY_THEOREMS.items():
        assert row.case_ids() == CASE_CHOICES, theorem
    assert sorted(th for th in THEOREM_CHOICES if th != "all") == sorted(
        INTERIOR_THEOREMS + tuple(BOUNDARY_THEOREMS))
    assert SIGMA3_CHOICES == SIGMA3_VARIANTS


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


def test_cli_oracle_samples_adds_every_suite_to_the_report(tmp_path):
    """`run --oracle-samples N` with N > 0 runs every oracle suite at N
    samples: all six are in the JSON `oracle_suites`, none failing, and the
    text render prints their section."""
    from wresidue import verify

    out = tmp_path / "report.json"
    run = ["run", "--theorem", "T2.3", "--oracle-samples", "2"]
    assert cli.main([*run, "--format", "json", "--out", str(out)]) == 0
    suites = json.loads(out.read_text())["oracle_suites"]
    assert len(suites) == 6 and sorted(suites) == sorted(verify.SUITES)
    for name, result in suites.items():
        assert result["failures"] == [], name
        assert result["passed"] + result.get("skipped", 0) == 2, name
    assert cli.main([*run, "--format", "text", "--out", str(out)]) == 0
    assert "== oracle suites ==" in out.read_text().splitlines()


def test_cli_a_failing_oracle_suite_ends_the_run_with_an_engine_error(monkeypatch, capsys,
                                                                      tmp_path):
    from wresidue import verify

    monkeypatch.setitem(verify.SUITES, "sphere",
                        lambda seed, count: {"passed": 0, "failures": ["planted"]})
    run = ["run", "--theorem", "T2.3", "--oracle-samples", "2", "--out", str(tmp_path / "r")]
    assert cli.main(run) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: oracle suite sphere failed"), lines


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


def test_a_failing_slot_check_exits_2(monkeypatch, capsys):
    """The eq 5.47 slot checks that the first of its two traces vanishes.
    If it does not, the run is an engine error: exit 2 and one diagnostic
    line, whichever process ran the slot."""
    from wresidue import references

    monkeypatch.setattr(references, "cl_trace_product", lambda *_: ScalarExpr.const(1))
    assert cli.main(["run", "--theorem", "T5.4", "--case", "c"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: first trace of the frame-derivative pair is nonzero"]


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
