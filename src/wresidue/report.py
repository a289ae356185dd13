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

The cases of a boundary theorem are independent.  Once its symbols are
built, `run_theorem` forks one worker for the case named in `_WORKER_CASE`
(T5.4's case b): the worker evaluates that case, its printed-intermediate
slots and its row, pickles them through a pipe and leaves by `os._exit`,
while this process evaluates the other cases and the symbol diffs.  The
same task runs inline where `os.fork` is missing, fewer than two CPUs are
usable or a second thread runs, and the report bytes are the same either
way.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

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
    from .pipeline import PhiReport, TheoremContext, TrailStep

ENGINE_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

THEOREM_CHOICES = ("T2.3", "T4.1", "T4.6", "T5.1", "T5.4", "all")
INTERIOR_THEOREMS = ("T2.3", "T4.1", "T5.1")  # the others are `pipeline.THEOREM_IDS`
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
        "output_format": "text",  # text | json | latex
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
# Expression serialization: canonical text, LaTeX, JSON tree
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


_LATEX_NAMES = {
    "xi1": r"\xi_{1}",
    "xi2": r"\xi_{2}",
    "xi3": r"\xi_{3}",
    "xin": r"\xi_{n}",
    "shx": r"\sqrt{h(x_{n})}",
    "h1": r"h'(0)",
    "dYn": r"\partial_{x_{n}}Y_{n}",
    "pi": r"\pi",
    "Omega3": r"\Omega_{3}",
    "Rg": r"R^{g}",
    "s_scal": r"s",
    "RicVW": r"\mathrm{Ric}(X,Y)",
    "divV": r"\mathrm{div}^{g}(X)",
    "normT2": r"\|T\|^{2}",
    "normV2": r"\|X\|^{2}",
    "gVW": r"g(X,Y)",
    "gXTYT": r"g(X^{T},Y^{T})",
}


def _latex_name(name: str) -> str:
    if name in _LATEX_NAMES:
        return _LATEX_NAMES[name]
    if name.startswith("X") and name[1:].isdigit():
        return f"X_{{{'n' if name[1:] == '4' else name[1:]}}}"
    if name.startswith("Y") and name[1:].isdigit():
        return f"Y_{{{'n' if name[1:] == '4' else name[1:]}}}"
    if "[" in name:
        head, idx = name.split("[", 1)
        return f"{head}_{{{idx.rstrip(']').replace(',', '')}}}"
    return name


def _latex_grat(c: GRat) -> str:
    def frac(f: Fraction) -> str:
        if f.denominator == 1:
            return str(f.numerator)
        return rf"\frac{{{f.numerator}}}{{{f.denominator}}}"

    if c.im == 0:
        return frac(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return frac(c.im) + "i"
    sign = "+" if c.im > 0 else "-"
    mag = abs(c.im)
    istr = "i" if mag == 1 else frac(mag) + "i"
    return rf"\left({frac(c.re)}{sign}{istr}\right)"


def latex_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=mono_rank, reverse=True):
        c = p.terms[m]
        body = " ".join(
            _latex_name(REG.name_of(s)) + (f"^{{{e}}}" if e > 1 else "")
            for s, e in mono_items(m)
        )
        cs = _latex_grat(c)
        if body and cs == "1":
            parts.append(body)
        elif body and cs == "-1":
            parts.append("-" + body)
        else:
            parts.append(f"{cs} {body}".strip())
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def latex_scalar(e: ScalarExpr) -> str:
    if e.is_poly():
        return latex_poly(e.num)
    return rf"\frac{{{latex_poly(e.num)}}}{{{latex_poly(e.den)}}}"


def emit(expr, output_format: str) -> str:
    """Render an expression as canonical text, LaTeX (a scalar only), or a JSON tree."""
    if output_format == "text":
        return expr.text()
    if output_format == "latex":
        if not isinstance(expr, ScalarExpr):
            raise EngineError("LaTeX rendering takes a scalar expression")
        return latex_scalar(expr)
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
    switched field of the report is mapped by this one function."""
    out = apply_torsion_switches(expr, cfg.torsion_a, cfg.torsion_t, cfg.torsion_v)
    if cfg.subst_omega3 and OMEGA3 in out.variables():
        out = out.substitute({OMEGA3: _FOUR_PI})
    return out


def _compare_under(value, ref, cfg: RunConfig):
    """The switched value, the switched reference, and the verdict and delta
    between the two: 'match' iff the exact difference is zero, in which case
    the delta is None.  Every verdict of the report comes from here."""
    value, ref = _switch(value, cfg), _switch(ref, cfg)
    delta = as_clifford(value) - as_clifford(ref)
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
    """A trail step as emitted: its expression switched, a slot step compared."""
    if step.ref_id is not None:
        value, _, verdict, delta = _compare_under(step.expr, step.ref, cfg)
        out = {"step": step.step_id, "op": step.op, "expr": value.text(),
               "ref": step.ref_id, "verdict": verdict}
        if delta is not None:
            out["delta"] = delta.text()
        return out
    text = step.note if step.expr is None else step.note + _switch(step.expr, cfg).text()
    return {"step": step.step_id, "op": step.op, "expr": text}


def _row_dict(report: PhiReport, cfg: RunConfig) -> Dict:
    from .pipeline import collect_form

    ref_id = REFERENCE_OF_ROW[report.row_id]
    value, ref, verdict, delta = _compare_under(report.value, reference_value(ref_id), cfg)
    row = {
        "id": report.row_id,
        "engine_value": emit(value, "latex" if cfg.output_format == "latex" else "text"),
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
    value, _, verdict, delta = _compare_under(value, reference_value(ref_id), cfg)
    return {
        "id": row_id,
        "engine_value": emit(value, "text"),
        "reference": ref_id,
        "verdict": verdict,
        "delta": emit(delta, "text") if delta is not None else None,
    }


def _symbol_diff_rows(theorem: str, cfg: RunConfig) -> List[Dict]:
    """Stated-vs-recomputed inverse symbol diffs (never silently reconciled)."""
    from .symbols import builtin_symbol, recomputed_symbol

    rows: List[Dict] = []
    if theorem == "T4.6":
        pairs = [("(D_T*D_T)^-1", (-2, -3))]
    else:
        pairs = [("D_T^-1", (-1, -2)), ("(D_T*D_TD_T*)^-1", (-3, -4))]
    for op_id, orders in pairs:
        stated = builtin_symbol(op_id, cfg.sigma3_variant, cfg.torsion_off)
        recomputed = recomputed_symbol(op_id, cfg.torsion_off)
        for order in orders:
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


# The case of each boundary theorem that `run_theorem` evaluates in a forked
# worker, chosen by measurement: T5.4's case b is about 60 % of that
# theorem's work after its symbols are built, while a worker for T4.6's
# largest case gained nothing over its fork and pipe costs.
_WORKER_CASE = {"T5.4": "b"}


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


@contextmanager
def _beside(task: Callable[[], object], fork: bool) -> Iterator[Callable[[], object]]:
    """Run `task()` beside the body of the `with`, which calls the yielded
    function once for the task's result; an exception of the task is
    raised there.

    With `fork` true and `_fork_helps()`, the task runs in a forked worker
    that pickles its outcome through a pipe and leaves by `os._exit`, so it
    never returns into the caller's frames.  The parent reads the pipe to
    its end before it reaps the worker, since a result larger than the pipe
    buffer would otherwise block both; on any way out of the block without
    the result, it closes the pipe, kills the worker and reaps it.
    Otherwise the yielded function is `task` itself, run inline.
    """
    if not (fork and _fork_helps()):
        yield task
        return
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker
        try:
            os.close(read_fd)
            try:
                outcome = (True, task())
            except BaseException as exc:  # sent to the parent, which raises it
                outcome = (False, exc)
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps((False, EngineError(f"internal: worker result not sent: {exc}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        try:
            data = pipe.read()
        finally:
            pipe.close()
            _, status = os.waitpid(pid, 0)
            reaped = True
        if not data:
            raise EngineError(f"internal: the case worker ended without a result "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        if not reaped:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_theorem(theorem: str, cfg: RunConfig) -> Dict:
    """All rows for one boundary theorem: cases, total, interior, diffs.

    Every case is computed, since the totals are reported; under `cfg.case`
    only that case's row and printed-intermediate slots are built.  The
    symbols are built with the switched-off torsion families at 0, and
    `_switch` maps every field as well, so the two agree.  The case named
    in `_WORKER_CASE` is evaluated by `_beside` while this process
    evaluates the other cases and the symbol diffs.
    """
    from .pipeline import (TrailStep, compute_case_term, enumerate_cases, make_context,
                           total_boundary_term)
    from .references import slots_for

    ctx = make_context(theorem, cfg.sigma3_variant, cfg.torsion_off)
    cases = enumerate_cases(theorem)

    def case_task(case) -> Tuple[PhiReport, Optional[Dict]]:
        """The case's report without its trail, and its row unless
        `cfg.case` selects another case."""
        rep = compute_case_term(ctx, case)
        row = None
        if cfg.case in (None, case.case_id):
            # the case's printed-intermediate slots, compared when the row is emitted
            slot_steps = [
                TrailStep(slot.slot_id, "printed-intermediate",
                          as_clifford(slot.build_engine(ctx)),
                          ref_id=slot.slot_id, ref=as_clifford(slot.build_ref()))
                for slot in slots_for(theorem) if slot.case_id == case.case_id
            ]
            row = _row_dict(rep._replace(trail=rep.trail + slot_steps), cfg)
        return rep._replace(trail=[]), row

    split = [case for case in cases if case.case_id == _WORKER_CASE.get(theorem)]
    with _beside(lambda: [case_task(case) for case in split], fork=bool(split)) as split_done:
        done = {case: case_task(case) for case in cases if case not in split}
        symbol_diffs = _symbol_diff_rows(theorem, cfg)
        done.update(zip(split, split_done()))
    reports = [done[case][0] for case in cases]
    total = total_boundary_term(reports, theorem)
    # sum consistency: total must equal the exact sum of the cases
    check = total.value
    for rep in reports:
        check = check - rep.value
    if not check.is_zero():
        raise EngineError("internal: case sum does not reproduce the total")
    theorem_row = total._replace(row_id=f"{theorem}/theorem", trail=[])
    out = {
        "theorem": theorem,
        "rows": [done[case][1] for case in cases if done[case][1] is not None],
        "totals": {
            "boundary": _row_dict(total, cfg),
            "theorem_statement": _row_dict(theorem_row, cfg),
            "interior": _interior_row(f"{theorem}/interior", interior_density(), cfg),
        },
        "symbol_diffs": symbol_diffs,
    }
    if theorem == "T4.6":
        out["sigma3_variant_check"] = _sigma3_variant_rows(ctx, cfg)
    return out


def _sigma3_variant_rows(ctx: TheoremContext, cfg: RunConfig) -> List[Dict]:
    """Both index readings of the inverse-Laplacian order -3 data downstream.

    The run's context supplies its own reading; only the other is evaluated.
    """
    from .pipeline import compute_case_term, enumerate_cases, make_context

    other = make_context(ctx.theorem, "xik" if ctx.sigma3_variant == "printed" else "printed",
                         ctx.torsion_off)
    printed, xik = (ctx, other) if ctx.sigma3_variant == "printed" else (other, ctx)
    rows = []
    for case in enumerate_cases(ctx.theorem):
        if case.case_id not in ("b", "c"):
            continue
        _, _, verdict, delta = _compare_under(
            compute_case_term(printed, case).value, compute_case_term(xik, case).value, cfg
        )
        rows.append(
            {
                "id": f"{ctx.theorem}/{case.case_id}/sigma3-variant-delta",
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
    theorems = (
        ["T2.3", "T4.1", "T4.6", "T5.1", "T5.4"] if cfg.theorem == "all" else [cfg.theorem]
    )
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
    no copy of the whole rendering is held in memory."""
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
        for row in section["rows"]:
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
        totals = section.get("totals")
        if totals:
            for key in ("boundary", "theorem_statement"):
                row = totals[key]
                push(f"  {row['id']}: verdict={row['verdict']}")
                push(f"    engine = {row['engine_collected']}")
                if row.get("delta"):
                    push(f"    delta = {row['delta']}")
            push(
                f"  {totals['interior']['id']}: verdict={totals['interior']['verdict']}"
            )
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
