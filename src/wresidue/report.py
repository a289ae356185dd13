"""Report assembly: comparisons, rendering, serialization.

Builds the full computation report for a run configuration: boundary case
rows with verdicts and step trails, totals, interior densities, symbol-level
diff rows (stated vs recomputed inverse symbols), and self-check results.
The exit-code contract lives here: a paper-mismatch is a reportable verdict
("mismatch"), an internal oracle failure is an engine error.

Rendering is deterministic: identical config and seed give byte-identical
output.

The interior theorems need only the modules imported at the top.  The
boundary stack (`pipeline`, the slots of `references`, `symbols`, and
`halfplane` and `integration` under them) is imported inside `run_theorem`
and its helpers, so a process loads it on its first boundary theorem.

The work of a boundary theorem after its symbols are built is a list of
independent tasks: its cases, the slots that read no case, the other sigma3
reading, the symbol diffs and the interior row.  `run_theorem` builds the
list from the theorem's row and `_run_tasks` shares it between this process
and one forked worker, which claim task indices from one pipe; the worker
pickles its results back and leaves by `os._exit`.  The list runs inline,
in order, where `os.fork` is missing, fewer than two CPUs are usable or a
second thread runs, and the report bytes are the same either way.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from .gaussian import GRat
from .scalars import (
    EngineError,
    OMEGA3,
    REG,
    Poly,
    ScalarExpr,
    S_ZERO,
    mono_items,
    mono_rank,
    scalar_sum,
    sym,
)
from .clifford import CliffordExpr, apply_torsion_switches, as_clifford
from .interior import (
    clifford_part_top_coefficient,
    curvature_trace_identities,
    interior_density,
    trace_e,
)
from .printed import REFERENCE_OF_ROW, reference_value

if TYPE_CHECKING:
    from .pipeline import CaseSpec, PhiReport, TrailStep

ENGINE_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

THEOREM_CHOICES = ("T2.3", "T4.1", "T4.6", "T5.1", "T5.4", "all")
# The boundary theorems (the choices less these and "all") and CASE_CHOICES
# copy `pipeline.BOUNDARY_THEOREMS`, so that an interior run does not load it.
INTERIOR_THEOREMS = ("T2.3", "T4.1", "T5.1")
CASE_CHOICES = ("a1", "a2", "a3", "b", "c")
FORMAT_CHOICES = ("text", "json", "latex")
SIGMA3_CHOICES = ("printed", "xik")
_CHOICES = {
    "theorem": THEOREM_CHOICES,
    "case": (None,) + CASE_CHOICES,
    "output_format": FORMAT_CHOICES,
    "sigma3_variant": SIGMA3_CHOICES,
}


class ConfigError(EngineError):
    """A usage or configuration error; the CLI exits 1 on it."""


class RunConfig:
    """Deterministic batch configuration; identical config => identical report.

    `FIELDS` maps each field to its default; a bool or int default fixes the
    type the field takes.
    """

    FIELDS = {
        "theorem": "all",
        "case": None,
        "torsion_a": True,
        "torsion_t": True,
        "torsion_v": True,
        "output_format": "text",  # one of FORMAT_CHOICES
        "subst_omega3": False,
        "seed": 0,
        "oracle_samples": 0,
        "sigma3_variant": "printed",
    }
    __slots__ = tuple(FIELDS)

    def __init__(self, **values):
        for name, default in self.FIELDS.items():
            setattr(self, name, values.pop(name, default))
        if values:
            raise ConfigError(f"unknown configuration key {next(iter(values))!r}")

    @staticmethod
    def from_mapping(data: Dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("a configuration must be a JSON object")
        cfg = RunConfig(**data)
        cfg.validate()
        return cfg

    def validate(self):
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}")
        for name, default in self.FIELDS.items():  # bool and int fields take exactly that type
            if type(default) in (bool, int) and type(getattr(self, name)) is not type(default):
                kind = "true or false" if type(default) is bool else "an integer"
                raise ConfigError(f"{name} must be {kind}")
        if self.oracle_samples < 0:
            raise ConfigError("oracle_samples must not be negative")
        if self.case is not None and self.theorem in INTERIOR_THEOREMS:
            raise ConfigError(f"theorem {self.theorem} has no boundary cases; drop the case")

    def to_mapping(self) -> Dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.to_mapping() == other.to_mapping()

    def __repr__(self):
        return "RunConfig(" + ", ".join(f"{k}={v!r}" for k, v in self.to_mapping().items()) + ")"

    @property
    def torsion_off(self) -> Tuple[str, ...]:
        """The torsion families switched off, in the order A, T, V."""
        flags = (self.torsion_a, self.torsion_t, self.torsion_v)
        return tuple(family for family, on in zip("ATV", flags) if not on)


# ---------------------------------------------------------------------------
# Expression serialization: canonical text, JSON tree
# ---------------------------------------------------------------------------

def _grat_tree(c: GRat) -> Dict:
    return {
        "re": [c.re.numerator, c.re.denominator],
        "im": [c.im.numerator, c.im.denominator],
    }


def _grat_from_tree(t: Dict) -> GRat:
    return GRat(Fraction(t["re"][0], t["re"][1]), Fraction(t["im"][0], t["im"][1]))


def _poly_tree(p: Poly) -> List:
    out = []
    for m in sorted(p.terms, key=mono_rank, reverse=True):
        out.append(
            {
                "monomial": [[REG.name_of(s), e] for s, e in mono_items(m)],
                "coeff": _grat_tree(p.terms[m]),
            }
        )
    return out


def _poly_from_tree(t: List) -> Poly:
    terms = {}
    for item in t:
        mono = tuple((REG.id_of(name), e) for name, e in item["monomial"])
        terms[mono] = _grat_from_tree(item["coeff"])
    return Poly(terms)


def scalar_to_tree(e: ScalarExpr) -> Dict:
    return {"kind": "scalar", "num": _poly_tree(e.num), "den": _poly_tree(e.den)}


def scalar_from_tree(t: Dict) -> ScalarExpr:
    if t.get("kind") != "scalar":
        raise EngineError("not a scalar expression tree")
    return ScalarExpr(_poly_from_tree(t["num"]), _poly_from_tree(t["den"]))


def clifford_to_tree(e: CliffordExpr) -> Dict:
    terms = []
    for mono in sorted(e.terms, key=lambda m: (len(m), m)):
        terms.append({"monomial": list(mono), "coeff": scalar_to_tree(e.terms[mono])})
    return {"kind": "clifford", "terms": terms}


def clifford_from_tree(t: Dict) -> CliffordExpr:
    if t.get("kind") != "clifford":
        raise EngineError("not a Clifford expression tree")
    return CliffordExpr(
        {tuple(item["monomial"]): scalar_from_tree(item["coeff"]) for item in t["terms"]}
    )


def expr_to_tree(e) -> Dict:
    if isinstance(e, ScalarExpr):
        return scalar_to_tree(e)
    if isinstance(e, CliffordExpr):
        return clifford_to_tree(e)
    raise EngineError(f"cannot serialize {type(e).__name__}")


def expr_from_tree(t: Dict):
    if t.get("kind") == "scalar":
        return scalar_from_tree(t)
    if t.get("kind") == "clifford":
        return clifford_from_tree(t)
    raise EngineError("unknown expression tree kind")


def emit(expr, output_format: str) -> str:
    """Render an expression as canonical text or as a JSON tree.  These are
    the expression formats, not the report formats: every report field holds
    text, whatever `--format` the report is written in."""
    if output_format == "text":
        return expr.text()
    if output_format == "json":
        return json.dumps(expr_to_tree(expr), sort_keys=True, separators=(",", ":"))
    raise EngineError(f"unknown output format {output_format!r}")


def parse_emitted(text: str):
    """Inverse of emit(..., 'json')."""
    return expr_from_tree(json.loads(text))


# ---------------------------------------------------------------------------
# Config switches and comparison
# ---------------------------------------------------------------------------

_FOUR_PI = ScalarExpr.const(4) * sym("pi")


def _switch(expr, cfg: RunConfig):
    """A scalar or Clifford value under the config switches: the switched-off
    torsion families set to zero, then Omega3 = 4 pi if asked for.  Every
    switched field of the report is mapped by this one function, the only
    place a torsion switch acts: symbols and slots carry every family."""
    out = apply_torsion_switches(expr, cfg.torsion_off)
    if cfg.subst_omega3 and OMEGA3 in out.variables():
        out = out.substitute({OMEGA3: _FOUR_PI})
    return out


def _compare_under(value, ref, cfg: RunConfig, on_sphere: bool = False):
    """The switched value, the switched reference, and the verdict and delta
    between the two: 'match' iff the exact difference is zero, in which case
    the delta is None.  With `on_sphere` both sides are restricted to the
    unit co-sphere |xi'| = 1 first, where every printed intermediate is
    stated.  Every verdict of the report comes from here."""
    value, ref = _switch(value, cfg), _switch(ref, cfg)
    mine, theirs = as_clifford(value), as_clifford(ref)
    if on_sphere:
        mine, theirs = mine.restrict_sphere(), theirs.restrict_sphere()
    delta = mine - theirs
    if delta.is_zero():
        return value, ref, "match", None
    return value, ref, "mismatch", delta


def compare_with_reference(expr, reference_id: str) -> Tuple[str, Optional[object]]:
    """Exact symbolic difference; verdict 'match' iff it normalizes to zero."""
    _, _, verdict, delta = _compare_under(expr, reference_value(reference_id), RunConfig())
    return verdict, delta


# ---------------------------------------------------------------------------
# Row assembly
# ---------------------------------------------------------------------------

def _trail_dict(step: TrailStep, cfg: RunConfig) -> Dict:
    """A trail step as emitted: its expression switched."""
    text = step.note if step.expr is None else step.note + _switch(step.expr, cfg).text()
    return {"step": step.step_id, "op": step.op, "expr": text}


def _row_dict(report: PhiReport, cfg: RunConfig) -> Dict:
    from .pipeline import collect_form

    ref_id = REFERENCE_OF_ROW[report.row_id]
    value, ref, verdict, delta = _compare_under(report.value, reference_value(ref_id), cfg)
    row = {
        "id": report.row_id,
        "engine_value": emit(value, "text"),
        "engine_collected": collect_form(value).text(),
        "reference": ref_id,
        "reference_value": emit(ref, "text"),
        "verdict": verdict,
        "delta": emit(delta.scalar_part(), "text") if delta is not None else None,
        "trail": [_trail_dict(t, cfg) for t in report.trail],
    }
    case = report.case
    if case is not None:
        row["case"] = {"r": case.r, "l": case.ell, "k": case.k, "j": case.j, "alpha": case.alpha}
    return row


def _interior_row(row_id: str, value: ScalarExpr, cfg: RunConfig) -> Dict:
    ref_id = REFERENCE_OF_ROW[row_id]
    value, ref, verdict, delta = _compare_under(value, reference_value(ref_id), cfg)
    return {
        "id": row_id,
        "engine_value": emit(value, "text"),
        "reference": ref_id,
        "reference_value": emit(ref, "text"),
        "verdict": verdict,
        "delta": emit(delta, "text") if delta is not None else None,
    }


def _symbol_diff_rows(theorem: str, cfg: RunConfig) -> List[Dict]:
    """Stated-vs-recomputed inverse symbol diffs (never silently reconciled),
    at every order of the stated symbol."""
    from .pipeline import BOUNDARY_THEOREMS
    from .symbols import builtin_symbol, recomputed_symbol

    rows: List[Dict] = []
    for op_id in BOUNDARY_THEOREMS[theorem].diffed:
        stated = builtin_symbol(op_id, cfg.sigma3_variant)
        recomputed = recomputed_symbol(op_id)
        for order in stated.orders():
            sv, rv = (s.component(order).value.restrict_sphere() for s in (stated, recomputed))
            _, _, verdict, delta = _compare_under(sv, rv, cfg)
            rows.append(
                {
                    "id": f"{theorem}/symbol-diff/{op_id}@{order}",
                    "verdict": verdict,
                    "delta": "0" if delta is None else emit(delta, "text"),
                }
            )
    return rows


def _fork_helps() -> bool:
    """Whether a forked worker can run beside this process: `os.fork`
    exists, this process runs one thread (the worker would hold only the
    forking thread, and any lock another thread held stays locked in it),
    and at least two CPUs are usable."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2


def _claim(tasks: Sequence[Callable[[], object]], claims: int, index: Optional[int],
           catch: type) -> Dict[int, Tuple[bool, object]]:
    """Run `tasks[index]` unless `index` is None, then every index read
    from the pipe `claims` one byte at a time until it is empty, as
    (ok, result or exception) by index.  The first exception of the class
    `catch` stops the claims and empties the pipe, so the other process
    claims no more either."""
    outcomes = {}
    while True:
        if index is None:
            claimed = os.read(claims, 1)
            if not claimed:
                return outcomes
            index = claimed[0]
        try:
            outcomes[index] = (True, tasks[index]())
        except catch as exc:
            outcomes[index] = (False, exc)
            while os.read(claims, 256):
                pass
            return outcomes
        index = None


def _run_tasks(tasks: Sequence[Callable[[], object]]) -> List[object]:
    """The results of `tasks`, in list order; the exception of the first
    failing task in list order is raised, whichever process ran it.

    With two tasks or more and `_fork_helps()`, one forked worker runs
    task 0 while this process claims the next index from one pipe, filled
    with the indices 1 to 255 at most before the fork, and so does the
    worker after task 0, until the pipe is empty.  A read of one byte from
    a pipe is atomic, so each task runs once, and the claimed indices
    rise, so every task before a failing one has run.  The worker pickles its outcomes
    through a second pipe and leaves by `os._exit`, so it never returns
    into the caller's frames.  This process reads that pipe to its end
    before it reaps the worker, since a result larger than the pipe buffer
    would otherwise block both; on any other way out (an exception outside
    the tasks, or one that is not an `Exception`, raised here) it kills the
    worker and reaps it.  Otherwise the tasks run inline, in list order.
    """
    if len(tasks) < 2 or not _fork_helps():
        return [task() for task in tasks]
    import pickle
    import signal

    claims, fill = os.pipe()
    os.write(fill, bytes(range(1, len(tasks))))
    os.close(fill)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker
        try:
            os.close(read_fd)
            outcomes = _claim(tasks, claims, 0, BaseException)
            try:
                data = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # sent as task 0's outcome, which is read first
                data = pickle.dumps({0: (False, EngineError(f"internal: worker result not sent: {exc}"))})
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    reaped = False
    try:
        outcomes = _claim(tasks, claims, None, Exception)
        with os.fdopen(read_fd, "rb") as pipe:
            read_fd = None
            try:  # read as it is decoded, so no copy of the whole pickle is held
                sent = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                sent = None
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        os.close(claims)
        if read_fd is not None:
            os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if sent is None:
        raise EngineError(f"internal: the task worker ended without a result "
                          f"(exit status {os.waitstatus_to_exitcode(status)})")
    outcomes.update(sent)
    results = []
    for i in range(len(tasks)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def run_theorem(theorem: str, cfg: RunConfig) -> Dict:
    """All rows for one boundary theorem: cases, total, interior, diffs.

    Every case is computed, since the totals are reported; under `cfg.case`
    only that case's row and printed-intermediate slots are built.  The
    symbols carry every torsion family; a torsion switch acts only in
    `_switch`, which maps every field of the report.

    The work after `make_context` is a list of independent tasks, each
    returning named parts of the report, that `_run_tasks` shares between
    this process and a forked worker: one per case (its stage chain, its
    row and every slot that reads its stages, by `SlotEntry.reads`), one
    per slot that reads no stages, the other sigma3 reading of the lowered
    cases for a factor that reads it, the symbol diffs and the interior
    row.  The list runs longest first, as far as the theorem's row tells:
    the case that lowers F1 (the heaviest, which the worker runs), the
    stage-free slots, the other cases, then the rest.  Rows are assembled
    here, in slot order, so the report bytes do not depend on who ran what.
    """
    from .pipeline import (BOUNDARY_THEOREMS, compute_case_term, enumerate_cases, make_context,
                           total_boundary_term)
    from .references import slots_for
    from .symbols import _READS_SIGMA3

    row = BOUNDARY_THEOREMS[theorem]
    ctx = make_context(theorem, cfg.sigma3_variant)
    cases = enumerate_cases(ctx)
    slots = [slot for slot in slots_for(theorem) if cfg.case in (None, slot.case_id)]
    lowered = [case for case in cases if case.case_id in row.lowered]
    other_reading = None  # the sigma3 reading the run does not use, if a factor reads it
    if _READS_SIGMA3.intersection(row.factors):
        other_reading = "xik" if cfg.sigma3_variant == "printed" else "printed"

    def slot_part(slot) -> Dict:
        """The slot's trail step as emitted, compared with its printed value
        on the co-sphere."""
        value, _, verdict, delta = _compare_under(as_clifford(slot.build_engine(ctx)),
                                                  slot.build_ref(), cfg, on_sphere=True)
        step = {"step": slot.slot_id, "op": "printed-intermediate", "expr": value.text(),
                "ref": slot.slot_id, "verdict": verdict}
        if delta is not None:
            step["delta"] = delta.text()
        return {slot.slot_id: step}

    def case_part(case) -> Dict:
        """The case's report without its trail, its row (unless `cfg.case`
        selects another case) without its slots, and the slots that read
        its stages."""
        rep = compute_case_term(ctx, case)
        out = {case: (rep._replace(trail=[]),
                      _row_dict(rep, cfg) if cfg.case in (None, case.case_id) else None)}
        for slot in slots:
            if slot.reads == case.case_id:
                out.update(slot_part(slot))
        del ctx.stages[case]  # no later task reads them, nor the stage reads on them
        ctx.reads.pop(case.case_id, None)
        return out

    def other_reading_part() -> Dict:
        other = make_context(theorem, other_reading)
        return {"other_reading": [compute_case_term(other, case).value for case in lowered]}

    def symbol_diffs_part() -> Dict:
        return {"symbol_diffs": _symbol_diff_rows(theorem, cfg)}

    def interior_part() -> Dict:
        return {"interior": _interior_row(f"{theorem}/interior", interior_density(), cfg)}

    first = next(case for case in cases if case.case_id == row.lowered[0])
    tasks = [partial(case_part, first)]
    tasks += [partial(slot_part, slot) for slot in slots if slot.reads is None]
    tasks += [partial(case_part, case) for case in cases if case != first]
    if other_reading is not None:
        tasks.append(other_reading_part)
    tasks += [symbol_diffs_part, interior_part]
    parts: Dict = {}
    for part in _run_tasks(tasks):
        parts.update(part)

    reports = [parts[case][0] for case in cases]
    total = total_boundary_term(reports, theorem)
    # sum consistency: total must equal the exact sum of the cases
    if not scalar_sum((total.value,), [rep.value for rep in reports]).is_zero():
        raise EngineError("internal: case sum does not reproduce the total")
    rows = []
    for case in cases:
        case_row = parts[case][1]
        if case_row is not None:
            case_row["trail"] += [parts[slot.slot_id] for slot in slots
                                  if slot.case_id == case.case_id]
            rows.append(case_row)
    theorem_row = total._replace(row_id=f"{theorem}/theorem", trail=[])
    out = {
        "theorem": theorem,
        "rows": rows,
        "totals": {
            "boundary": _row_dict(total, cfg),
            "theorem_statement": _row_dict(theorem_row, cfg),
            "interior": parts["interior"],
        },
        "symbol_diffs": parts["symbol_diffs"],
    }
    if other_reading is not None:
        own = [parts[case][0].value for case in lowered]
        out["sigma3_variant_check"] = _sigma3_variant_rows(
            theorem, lowered, own, parts["other_reading"], cfg)
    return out


def _sigma3_variant_rows(theorem: str, lowered: List[CaseSpec], own: List[ScalarExpr],
                         other: List[ScalarExpr], cfg: RunConfig) -> List[Dict]:
    """Both index readings of the inverse-Laplacian order -3 data downstream,
    in the two cases that lower a factor below its top order: `own` holds
    their values under the run's reading, `other` under the other one."""
    printed, xik = (own, other) if cfg.sigma3_variant == "printed" else (other, own)
    rows = []
    for case, p_value, x_value in zip(lowered, printed, xik):
        _, _, verdict, delta = _compare_under(p_value, x_value, cfg)
        rows.append(
            {
                "id": f"{theorem}/{case.case_id}/sigma3-variant-delta",
                "printed_vs_xik": "0" if delta is None else emit(delta.scalar_part(), "text"),
                "identical": verdict == "match",
            }
        )
    return rows


def run_interior(cfg: RunConfig, theorem: str = "T2.3") -> Dict:
    """Interior rows: trace identities, Tr E, and the functional density."""
    rows = []
    for name, val in sorted(curvature_trace_identities().items()):
        val, _, verdict, _ = _compare_under(val, S_ZERO, cfg)
        rows.append({"id": f"{theorem}/{name}", "engine_value": emit(val, "text"),
                     "verdict": verdict})
    rows.append(_interior_row(f"{theorem}/trace-E", trace_e(), cfg))
    rows.append(_interior_row(f"{theorem}/density", interior_density(), cfg))
    rows.append(
        {
            "id": f"{theorem}/four-form-top-coefficient",
            "engine_value": emit(_switch(clifford_part_top_coefficient(), cfg), "text"),
            "note": "reported separately; the trace functional assigns zero to the top monomial",
        }
    )
    return {"theorem": theorem, "rows": rows}


def run_computation(cfg: RunConfig) -> Dict:
    """Execute the configured pipelines and assemble the report document."""
    cfg.validate()
    sections = []
    theorems = ([th for th in THEOREM_CHOICES if th != "all"] if cfg.theorem == "all"
                else [cfg.theorem])
    boundary = [th for th in theorems if th not in INTERIOR_THEOREMS]
    if len(boundary) > 1:
        # the symbols the diffs invert, built before the first fork: a worker
        # would lose them on exit, and a later theorem would build them again
        from .pipeline import BOUNDARY_THEOREMS
        from .symbols import RECOMPUTED_FROM, builtin_symbol

        for th in boundary:
            for op_id in BOUNDARY_THEOREMS[th].diffed:
                builtin_symbol(RECOMPUTED_FROM[op_id][0], "printed")
    for th in theorems:
        if th in INTERIOR_THEOREMS:
            sections.append(run_interior(cfg, th))
        else:
            sections.append(run_theorem(th, cfg))
    verify_summary = None
    if cfg.oracle_samples:
        from .verify import run_all_suites

        verify_summary = run_all_suites(seed=cfg.seed, scale=cfg.oracle_samples)
        for name, result in verify_summary.items():
            if result["failures"]:
                raise EngineError(f"oracle suite {name} failed: {result['failures'][:3]}")
    return {
        "meta": {
            "engine": "wresidue",
            "version": ENGINE_VERSION,
            "config": cfg.to_mapping(),
        },
        "sections": sections,
        "oracle_suites": verify_summary,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_report(doc: Dict, output_format: str, out: TextIO) -> None:
    """Write the report to the open text stream `out` as it is encoded, so
    no copy of the whole rendering is held in memory.  The document is the
    same for every format: "json" dumps it, and "text" and "latex" both
    write the text layout below."""
    if output_format == "json":
        json.dump(doc, out, sort_keys=True, indent=1)
        return

    def push(line: str) -> None:
        out.write(line + "\n")

    push("wresidue report")
    push(f"config: {json.dumps(doc['meta']['config'], sort_keys=True)}")
    for section in doc["sections"]:
        push("")
        push(f"== {section['theorem']} ==")
        rows, totals = section["rows"], section.get("totals")
        if totals:
            rows = rows + [totals[key] for key in ("boundary", "theorem_statement", "interior")]
        for row in rows:
            if "verdict" in row:
                push(f"  {row['id']}: verdict={row['verdict']}")
            else:
                push(f"  {row['id']}: {row['note']}")
            if "engine_collected" in row:
                push(f"    engine = {row.get('engine_collected')}")
            else:
                push(f"    engine = {row.get('engine_value')}")
            if row.get("reference"):
                push(f"    reference[{row['reference']}] = {row.get('reference_value', '')}")
            if row.get("delta"):
                push(f"    delta = {row['delta']}")
        for diff in section.get("symbol_diffs", []):
            push(f"  {diff['id']}: {diff['verdict']}")
        for row in section.get("sigma3_variant_check", []):
            same = "identical" if row["identical"] else f"delta = {row['printed_vs_xik']}"
            push(f"  {row['id']}: {same}")
    if doc.get("oracle_suites"):
        push("")
        push("== oracle suites ==")
        for name, result in sorted(doc["oracle_suites"].items()):
            push(f"  {name}: {result['passed']} passed, {len(result['failures'])} failed")
