"""Checks of `wresidue run` reports against sympy and properties of the method.

Every function returns a list of problems; an empty list means the output
passed.  A problem is a pair (code, message); the code lets the benchmark
tell a known fault from a new one.  Values are re-read from the report's
text forms (see textform.py), so no check relies on the engine's own
arithmetic or on a stored copy of a report.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

import sympy

import textform as tf

Problem = Tuple[str, str]

ALL_THEOREMS = ("T2.3", "T4.1", "T4.6", "T5.1", "T5.4")
BOUNDARY_THEOREMS = ("T4.6", "T5.4")
CASES = ("a1", "a2", "a3", "b", "c")

# Atoms that --no-torsion switches off: the A, T and V families with their
# derivatives and contractions.  --subst-omega3 removes Omega3.
_TORSION_ATOM = re.compile(r"\b(?:A|T|V|dT2|dT4|dV)\[|\b(?:normT2|normV2|divV)\b")
_OMEGA3_ATOM = re.compile(r"\bOmega3\b")


def _is_torsion_symbol(s: sympy.Symbol) -> bool:
    return bool(_TORSION_ATOM.match(s.name))


def boundary_rows(section: Dict) -> List[Dict]:
    """Case rows, then the total and the theorem-statement rows."""
    totals = section["totals"]
    return section["rows"] + [totals["boundary"], totals["theorem_statement"]]


def _check_verdict(row: Dict, value: sympy.Expr) -> List[Problem]:
    """verdict is 'match' iff value - reference is 0; delta is that difference."""
    rid = row["id"]
    if row.get("reference_value") is None:
        return [("verdict", f"{rid}: no reference value")]
    diff = value - tf.parse(row["reference_value"])
    matches = tf.is_zero(diff)
    if matches != (row["verdict"] == "match"):
        return [("verdict", f"{rid}: verdict {row['verdict']} but the difference "
                            f"{'is' if matches else 'is not'} 0")]
    if matches:
        return [] if row.get("delta") is None else [("verdict", f"{rid}: match with a delta")]
    if row.get("delta") is None or not tf.equal(tf.parse(row["delta"]), diff):
        return [("verdict", f"{rid}: delta is not engine_value - reference_value")]
    return []


def _check_collected(row: Dict, value: sympy.Expr, code: str = "collected") -> List[Problem]:
    try:
        collected = tf.parse_collected(row["engine_collected"])
    except ValueError as exc:
        return [("collected", f"{row['id']}: engine_collected does not parse: {exc}")]
    if not tf.equal(tf.reassemble(collected), value):
        return [(code, f"{row['id']}: engine_collected does not reassemble to engine_value")]
    return []


def _check_delta_verdicts(items: List[Dict], delta_key: str, what: str) -> List[Problem]:
    """Rows whose verdict is stated next to a delta text: match iff no delta."""
    out = []
    for item in items:
        delta = item.get(delta_key)
        has_delta = delta not in (None, "", "0")
        if (item.get("verdict") == "match") == has_delta:
            out.append(("verdict", f"{item.get('id', item.get('step'))}: {what} verdict "
                                   f"{item.get('verdict')} with delta {delta!r:.40}"))
    return out


def check_boundary_section(section: Dict) -> List[Problem]:
    theorem = section["theorem"]
    problems: List[Problem] = []
    values = {}
    for row in boundary_rows(section):
        value = tf.parse(row["engine_value"])
        values[row["id"]] = value
        problems += _check_collected(row, value)
        problems += _check_verdict(row, value)
        steps = [t for t in row.get("trail", []) if t.get("op") == "printed-intermediate"]
        problems += _check_delta_verdicts(steps, "delta", "printed-intermediate")
    case_ids = [r["id"] for r in section["rows"]]
    if case_ids == [f"{theorem}/{c}" for c in CASES]:
        case_sum = sympy.Add(*(values[rid] for rid in case_ids))
        if not tf.equal(case_sum, values[f"{theorem}/total"]):
            problems.append(("sum", f"{theorem}: the five case values do not sum to the total"))
    if not tf.equal(values[f"{theorem}/total"], values[f"{theorem}/theorem"]):
        problems.append(("sum", f"{theorem}: the theorem row differs from the total"))
    problems += _check_delta_verdicts([section["totals"]["interior"]], "delta", "interior")
    problems += _check_delta_verdicts(section["symbol_diffs"], "delta", "symbol-diff")
    for row in section.get("sigma3_variant_check", []):
        if row["identical"] != (row["printed_vs_xik"] == "0"):
            problems.append(("verdict", f"{row['id']}: identical={row['identical']} "
                                        f"with delta {row['printed_vs_xik']!r:.40}"))
    return problems


_SPECIAL_INTERIOR = ("trace-E", "density", "four-form-top-coefficient")


def check_interior_section(section: Dict) -> List[Problem]:
    theorem = section["theorem"]
    problems: List[Problem] = []
    ids = [row["id"] for row in section["rows"]]
    for name in _SPECIAL_INTERIOR:
        if f"{theorem}/{name}" not in ids:
            problems.append(("shape", f"{theorem}: no row {name}"))
    for row in section["rows"]:
        value = tf.parse(row["engine_value"])
        name = row["id"].split("/", 1)[1]
        if name not in _SPECIAL_INTERIOR:
            # a curvature trace identity: its value must vanish
            if not tf.is_zero(value) or row.get("verdict") != "match":
                problems.append(("identity", f"{row['id']}: trace identity is not 0"))
        elif name != "four-form-top-coefficient":
            problems += _check_delta_verdicts([row], "delta", "interior")
    return problems


def check_report(doc: Dict, theorems) -> List[Problem]:
    """A JSON report holds exactly the sections asked for, each consistent."""
    got = [s["theorem"] for s in doc["sections"]]
    if got != list(theorems):
        return [("shape", f"sections {got}, expected {list(theorems)}")]
    problems: List[Problem] = []
    for section in doc["sections"]:
        if section["theorem"] in BOUNDARY_THEOREMS:
            problems += check_boundary_section(section)
        else:
            problems += check_interior_section(section)
    return problems


def section_of(doc: Dict, theorem: str) -> Dict:
    return next(s for s in doc["sections"] if s["theorem"] == theorem)


def check_same_values(rows: List[Dict], full: Dict[str, Dict]) -> List[Problem]:
    """Each row's engine_value equals the row of the same id in a full report."""
    problems = []
    for row in rows:
        ref = full.get(row["id"])
        if ref is None:
            problems.append(("shape", f"{row['id']}: not in the full report"))
        elif not tf.equal(tf.parse(row["engine_value"]), tf.parse(ref["engine_value"])):
            problems.append(("value", f"{row['id']}: value differs from the full report"))
    return problems


def check_case_filter(doc: Dict, full_doc: Dict, theorem: str, case: str) -> List[Problem]:
    """--case keeps only that case row; its value and the totals are unchanged."""
    section = doc["sections"][0]
    ids = [r["id"] for r in section["rows"]]
    if ids != [f"{theorem}/{case}"]:
        return [("shape", f"--case {case} gave rows {ids}")]
    full = {r["id"]: r for r in boundary_rows(section_of(full_doc, theorem))}
    problems = check_same_values(boundary_rows(section), full)
    for row in boundary_rows(section):
        value = tf.parse(row["engine_value"])
        problems += _check_collected(row, value)
        problems += _check_verdict(row, value)
    return problems


def _switched(expr: sympy.Expr, switch: str) -> sympy.Expr:
    if switch == "no-torsion":
        return expr.xreplace({s: 0 for s in expr.free_symbols if _is_torsion_symbol(s)})
    return expr.xreplace({tf.symbol("Omega3"): 4 * tf.symbol("pi")})


def check_switched(doc: Dict, full_doc: Dict, theorem: str, switch: str) -> List[Problem]:
    """A switch maps every engine field of every row the same way.

    `switch` is "no-torsion" (A, T and V atoms set to 0) or "subst-omega3"
    (Omega3 = 4 pi).  Problems coded "stale" are fields that still describe
    the unswitched value.  The paper's reference value may be kept as
    printed or switched too, so a delta may be taken against either.
    """
    section = doc["sections"][0]
    full = {r["id"]: r for r in boundary_rows(section_of(full_doc, theorem))}
    atom = _TORSION_ATOM if switch == "no-torsion" else _OMEGA3_ATOM
    problems: List[Problem] = []
    for row in boundary_rows(section):
        rid = row["id"]
        if rid not in full:
            problems.append(("shape", f"{rid}: not in the full report"))
            continue
        value = tf.parse(row["engine_value"])
        if not tf.equal(value, _switched(tf.parse(full[rid]["engine_value"]), switch)):
            problems.append(("value", f"{rid}: engine_value is not the switched full value"))
        for key in ("engine_value", "engine_collected"):
            if atom.search(row[key]):
                problems.append(("stale", f"{rid}: {key} still carries switched atoms"))
        problems += _check_collected(row, value, code="stale")
        if (row["verdict"] == "match") != (row.get("delta") is None):
            problems.append(("verdict", f"{rid}: verdict {row['verdict']} with delta "
                                        f"{row.get('delta')!r:.40}"))
        if row.get("delta") is not None and row.get("reference_value") is not None:
            ref = tf.parse(row["reference_value"])
            delta = tf.parse(row["delta"])
            if not (tf.equal(delta, value - ref) or tf.equal(delta, value - _switched(ref, switch))):
                problems.append(("stale", f"{rid}: delta is not engine_value - reference_value"))
    return problems


_ROW_LINE = re.compile(r"^  (\S+): verdict=(\S+)$")
_VARIANT_LINE = re.compile(r"^  (T4\.6/(\w+)/sigma3-variant-delta): (.*)$")


def parse_text_render(text: str) -> Tuple[Dict[str, str], Dict[str, bool]]:
    """Rows of a text/latex render: id -> printed engine line; variant flags."""
    rows: Dict[str, str] = {}
    variants: Dict[str, bool] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        m = _ROW_LINE.match(line)
        if m:
            current = m.group(1)
            continue
        if current and line.startswith("    engine = "):
            rows[current] = line[len("    engine = "):]
            current = None
            continue
        m = _VARIANT_LINE.match(line)
        if m:
            variants[m.group(2)] = m.group(3) == "identical"
    return rows, variants


def check_variant_render(text: str, full_doc: Dict, theorem: str) -> List[Problem]:
    """A --sigma3-variant xik render agrees with the printed variant where it says so.

    Cases a1-a3 never read the order -3 symbol; b and c must agree when the
    report's sigma3-variant check says the two readings are identical.
    """
    rows, variants = parse_text_render(text)
    full = {r["id"]: r for r in section_of(full_doc, theorem)["rows"]}
    problems: List[Problem] = []
    for case in CASES:
        rid = f"{theorem}/{case}"
        if case in variants and not variants[case]:
            continue
        if rid not in rows:
            problems.append(("shape", f"{rid}: not in the render"))
            continue
        mine = tf.reassemble(tf.parse_collected(rows[rid]))
        theirs = tf.reassemble(tf.parse_collected(full[rid]["engine_collected"]))
        if not tf.equal(mine, theirs):
            problems.append(("value", f"{rid}: xik value differs from the printed reading"))
    if set(variants) != {"b", "c"}:
        problems.append(("shape", f"sigma3 variant lines for {sorted(variants)}"))
    return problems


def check_text_render(text: str, exit_code: int, stderr: str, full_doc: Dict,
                      theorem: str) -> List[Problem]:
    """A text render exits 0 and lists every row id of the section."""
    if exit_code != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        code = "render-keyerror" if "KeyError: 'verdict'" in stderr else "exit"
        return [(code, f"exit {exit_code}: {last}")]
    listed = {line.split(":", 1)[0].strip() for line in text.splitlines() if line.startswith("  ")}
    missing = [r["id"] for r in section_of(full_doc, theorem)["rows"] if r["id"] not in listed]
    return [("shape", f"rows missing from the render: {missing}")] if missing else []


# ---------------------------------------------------------------------------
# One round of a CLI workload
# ---------------------------------------------------------------------------

def _load(op: Dict) -> Dict:
    if op["code"] != 0:
        raise RuntimeError(f"exit {op['code']}: {op['stderr'].strip()[-200:]}")
    with open(op["stdout"], "rb") as fh:
        return json.load(fh)


def _text(op: Dict) -> str:
    with open(op["stdout"], encoding="utf-8") as fh:
        return fh.read()


def check_op(workload: str, op: Dict, docs: Dict[str, Dict]) -> List[Problem]:
    name = op["name"]
    if workload == "paper-report":
        return check_report(_load(op), [name])
    if name == "all":
        docs["all"] = _load(op)
        return check_report(docs["all"], ALL_THEOREMS)
    full = docs.get("all")
    if full is None:
        return [("dependency", "the `all` report failed, nothing to compare with")]
    if name == "T5.4-case-b":
        return check_case_filter(_load(op), full, "T5.4", "b")
    if name == "T5.4-no-torsion":
        return check_switched(_load(op), full, "T5.4", "no-torsion")
    if name == "T4.6-subst-omega3":
        return check_switched(_load(op), full, "T4.6", "subst-omega3")
    if name == "T4.6-xik-latex":
        if op["code"] != 0:
            return [("exit", f"exit {op['code']}")]
        return check_variant_render(_text(op), full, "T4.6")
    if name == "T2.3-text":
        return check_text_render(_text(op), op["code"], op["stderr"], full, "T2.3")
    raise KeyError(f"no check for operation {name!r}")


def check_round(manifest: Dict) -> Dict[str, List[Problem]]:
    """Problems of each operation of a round, in the manifest's order."""
    docs: Dict[str, Dict] = {}
    out = {}
    for op in manifest["ops"]:
        try:
            out[op["name"]] = check_op(manifest["workload"], op, docs)
        except Exception as exc:  # noqa: BLE001 - a malformed output is a problem, not a crash
            out[op["name"]] = [("check-error", f"{type(exc).__name__}: {exc}")]
    return out


if __name__ == "__main__":
    import sys

    with open(sys.argv[1], encoding="utf-8") as fh:
        result = check_round(json.load(fh))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
