"""Benchmark of `wresidue`: cold paper reports, switched reports, oracle suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is taken from `src/` of that
checkout.  Load is one client, closed loop: one operation at a time, each
CLI operation in its own cold process.  A run repeats whole rounds of its
workload's operations until S seconds have passed (at least one round),
checks every output with sympy or with a property of the method, and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 1` it runs one untraced and one
traced round and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "out"
PY = sys.executable or "python3"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no round starts if it would likely end past this

ALL_THEOREMS = ("T2.3", "T4.1", "T4.6", "T5.1", "T5.4")


@dataclass
class CliOp:
    name: str
    args: List[str]
    # the code of the known fault this operation shows today, if any
    fault: Optional[str] = None


def _json_run(theorem: str, *extra: str) -> List[str]:
    return ["run", "--theorem", theorem, "--format", "json", *extra]


CLI_WORKLOADS: Dict[str, List[CliOp]] = {
    "paper-report": [CliOp(th, _json_run(th)) for th in ALL_THEOREMS],
    "report-variants": [
        CliOp("all", _json_run("all")),
        CliOp("T5.4-case-b", _json_run("T5.4", "--case", "b")),
        CliOp("T5.4-no-torsion", _json_run("T5.4", "--no-torsion"), fault="stale"),
        CliOp("T4.6-subst-omega3", _json_run("T4.6", "--subst-omega3"), fault="stale"),
        CliOp("T4.6-xik-latex",
              ["run", "--theorem", "T4.6", "--sigma3-variant", "xik", "--format", "latex"]),
        CliOp("T2.3-text", ["run", "--theorem", "T2.3", "--format", "text"],
              fault="render-keyerror"),
    ],
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("oracle-suites",)

# Known faults on oracle-suites, at fixed seeds (see child.FIXED_CALLS):
# (suite, seed) -> problem code.
SUITE_FAULTS = {("scalars", 0): "deadline", ("sphere", 11): "suite"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

_CASE_TIMES = [f"pipeline.case.{th}.{c}.s" for th in ("T4.6", "T5.4")
               for c in ("a1", "a2", "a3", "b", "c")]
_SUITES = ("scalars", "clifford", "halfplane", "contour", "sphere", "symbols")

# (name, unit, better); names are "<traced callable>.<calls|s>" unless
# resolved specially in per_layer_metrics().
PER_LAYER = [
    ("gaussian.GRat.mul.calls", "count", "lower"),
    ("gaussian.GRat.add.calls", "count", "lower"),
    ("gaussian.GRat.mul.ns", "ns", "lower"),
    ("scalars.Poly.mul.calls", "count", "lower"),
    ("scalars.Poly.mul.s", "s", "lower"),
    ("scalars.poly_divexact.calls", "count", "lower"),
    ("scalars.poly_divexact.s", "s", "lower"),
    ("scalars.poly_gcd.calls", "count", "lower"),
    ("scalars.poly_gcd.s", "s", "lower"),
    ("scalars.poly_gcd.hit_ratio", "ratio", "higher"),
    ("scalars.poly_gcd.generic_calls", "count", "lower"),
    ("scalars.ScalarExpr.substitute.s", "s", "lower"),
    ("clifford.CliffordExpr.mul.calls", "count", "lower"),
    ("clifford.matrix_oracle_trace.s", "s", "lower"),
    ("symbols.builtin_symbol.builds", "count", "lower"),
    ("symbols.compose.s", "s", "lower"),
    ("symbols.invert.s", "s", "lower"),
    ("symbols.recomputed_symbol.s", "s", "lower"),
    ("halfplane.pi_plus_scalar.calls", "count", "lower"),
    ("halfplane.pi_plus_scalar.s", "s", "lower"),
    ("halfplane.pi_plus.s", "s", "lower"),
    ("integration.integrate_xi_n.calls", "count", "lower"),
    ("integration.integrate_xi_n.s", "s", "lower"),
    ("integration.sphere_moment.s", "s", "lower"),
    ("integration.numeric_contour_oracle.s", "s", "lower"),
    ("integration.sphere_mc_oracle.s", "s", "lower"),
    ("pipeline.make_context.s", "s", "lower"),
    ("pipeline.compute_case_term.calls", "count", "lower"),
    ("pipeline.compute_case_term.s", "s", "lower"),
    ("pipeline.case_trace_integrand.calls", "count", "lower"),
    *[(name, "s", "lower") for name in _CASE_TIMES],
    ("pipeline.apply_torsion_switches.s", "s", "lower"),
    ("references.slot.calls", "count", "lower"),
    ("references.slot.s", "s", "lower"),
    ("references.reference_value.s", "s", "lower"),
    ("interior.s", "s", "lower"),
    ("report.run_computation.s", "s", "lower"),
    ("report.compare_with_reference.calls", "count", "lower"),
    ("report.compare_with_reference.s", "s", "lower"),
    ("report.render_report.s", "s", "lower"),
    *[(f"verify.{s}.s", "s", "lower") for s in _SUITES],
    ("verify.scalars.deadline_hits", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: Path
    stderr: str


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: List[str], tag: str) -> Proc:
    """Run one cold process to its end; wall time and its own peak RSS."""
    out_path = OUT / f"{tag}.stdout"
    err_path = OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > OP_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, out_path,
                err_path.read_text(encoding="utf-8", errors="replace"))


def measure_setup() -> List[Proc]:
    return [spawn([PY, str(BENCH / "child.py"), "setup"], f"setup-{i}")
            for i in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# Operation outcomes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    name: str
    round: int
    wall: float
    cpu: float
    rss_mb: float
    problems: List = field(default_factory=list)
    fault: Optional[str] = None
    sha256: Optional[str] = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def known_fault(self) -> bool:
        """Failed only through the fault this operation is known to show."""
        return self.failed and self.fault is not None and all(
            code == self.fault for code, _ in self.problems)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def run_cli_round(workload: str, round_index: int, trace_dir: Optional[Path],
                  seed: int) -> tuple:
    """Run every operation of a CLI workload once; returns (outcomes, procs, traces)."""
    ops = CLI_WORKLOADS[workload]
    procs: Dict[str, Proc] = {}
    traces = []
    for op in ops:
        tag = f"{workload}-{op.name}"
        if trace_dir is None:
            argv = [PY, "-m", "wresidue.cli", *op.args]
        else:
            trace_file = trace_dir / f"{op.name}.json"
            argv = [PY, str(BENCH / "child.py"), "cli", "--seed", str(seed),
                    "--trace", str(trace_file), "--", *op.args]
            traces.append(trace_file)
        procs[op.name] = spawn(argv, tag)
    outcomes = check_cli_round(workload, ops, procs, round_index)
    return outcomes, list(procs.values()), traces


def check_cli_round(workload: str, ops: List[CliOp], procs: Dict[str, Proc],
                    round_index: int) -> List[Outcome]:
    """Check the round's outputs in a separate process (see checks.py).

    The checker imports sympy; keeping it out of this process keeps this
    process small, so that the peak RSS a child inherits at spawn (Linux
    carries the parent's high-water mark across fork and exec) stays below
    that of any operation.
    """
    manifest = {
        "workload": workload,
        "ops": [{"name": op.name, "stdout": str(procs[op.name].stdout),
                 "code": procs[op.name].code, "stderr": procs[op.name].stderr} for op in ops],
    }
    manifest_path = OUT / f"{workload}.manifest.json"
    problems_path = OUT / f"{workload}.problems.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    if problems_path.exists():
        problems_path.unlink()
    checker = spawn([PY, str(BENCH / "checks.py"), str(manifest_path), str(problems_path)],
                    f"{workload}-check")
    if checker.code != 0:
        raise RuntimeError(f"checker exit {checker.code}: {checker.stderr.strip()[-300:]}")
    problems = json.loads(problems_path.read_text(encoding="utf-8"))
    outcomes = []
    for op in ops:
        proc = procs[op.name]
        out = Outcome(op.name, round_index, proc.wall, proc.cpu, proc.rss_mb, fault=op.fault,
                      problems=[tuple(p) for p in problems[op.name]])
        if "json" in op.args and proc.code == 0:
            out.sha256 = hashlib.sha256(proc.stdout.read_bytes()).hexdigest()
        outcomes.append(out)
    return outcomes


# ---------------------------------------------------------------------------
# The oracle-suites workload
# ---------------------------------------------------------------------------

def run_suites(seed: int, seconds: float, rounds: int, trace_file: Optional[Path],
               tag: str) -> tuple:
    records_path = OUT / f"{tag}.records.json"
    argv = [PY, str(BENCH / "child.py"), "suites", "--seed", str(seed),
            "--seconds", str(seconds), "--rounds", str(rounds), "--out", str(records_path)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    if records_path.exists():
        records_path.unlink()
    proc = spawn(argv, tag)
    if proc.code != 0 or not records_path.exists():
        raise RuntimeError(f"suite worker exit {proc.code}: {proc.stderr.strip()[-300:]}")
    records = json.loads(records_path.read_text(encoding="utf-8"))
    outcomes = []
    for rec in records:
        name = f"{rec['suite']}@{rec['seed']}"
        out = Outcome(name, rec["round"], rec["seconds"], rec["cpu_seconds"], proc.rss_mb,
                      fault=SUITE_FAULTS.get((rec["suite"], rec["seed"])))
        if rec["deadline"]:
            out.problems.append(("deadline", f"{name}: no result within the deadline"))
        elif rec["failures"] or rec["passed"] != rec["count"]:
            out.problems.append(("suite", f"{name}: {rec['failures'][:3]}"))
        outcomes.append(out)
    return outcomes, [proc], records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def round_wall_median(outcomes: List[Outcome]) -> float:
    """Median over the run's rounds of the summed wall time of a round's operations."""
    walls: Dict[int, float] = {}
    for out in outcomes:
        walls[out.round] = walls.get(out.round, 0.0) + out.wall
    return statistics.median(walls.values())


def merge_traces(paths: List[Path]) -> Dict:
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    ns_weighted = 0.0
    ns_weight = 0
    spans = {}
    for path in paths:
        if not path.exists():  # a process killed at its timeout writes no trace
            continue
        trace = json.loads(path.read_text(encoding="utf-8"))
        for name, (calls, secs) in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        if trace["grat_mul_ns"] is not None:
            weight = trace["counts"]["gaussian.GRat.mul"]
            ns_weighted += trace["grat_mul_ns"] * weight
            ns_weight += weight
        spans[path.stem] = trace["spans"]
    return {"stats": stats, "counts": counts,
            "grat_mul_ns": ns_weighted / ns_weight if ns_weight else 0.0, "spans": spans}


def per_layer_metrics(trace: Dict, overhead_s: float, deadline_hits: int) -> Dict[str, float]:
    stats, counts = trace["stats"], trace["counts"]
    lookups = counts.get("scalars.poly_gcd.lookups", 0)
    misses = counts.get("scalars.poly_gcd.structured_calls", 0)
    special = {
        "gaussian.GRat.mul.calls": counts.get("gaussian.GRat.mul", 0),
        "gaussian.GRat.add.calls": counts.get("gaussian.GRat.add", 0),
        "gaussian.GRat.mul.ns": trace["grat_mul_ns"],
        "scalars.poly_gcd.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "scalars.poly_gcd.generic_calls": counts.get("scalars.poly_gcd.generic_calls", 0),
        "clifford.CliffordExpr.mul.calls": counts.get("clifford.CliffordExpr.mul", 0),
        "symbols.builtin_symbol.builds": counts.get("symbols.builtin_symbol.builds", 0),
        "verify.scalars.deadline_hits": deadline_hits,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        base, kind = name.rsplit(".", 1)
        calls, secs = stats.get(base, [0, 0.0])
        out[name] = calls if kind == "calls" else secs
    return out


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def _reference_hashes() -> Dict[str, str]:
    path = BENCH / "reference_hashes.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _report(outcomes: List[Outcome], workload: str):
    refs = _reference_hashes()
    args_of = {op.name: " ".join(op.args) for op in CLI_WORKLOADS.get(workload, [])}
    for out in outcomes:
        if not out.failed:
            status = "ok"
        elif out.known_fault:
            status = f"failed (known fault: {out.problems[0][1]})"
        else:
            status = f"FAILED: {out.problems[:3]}"
        line = (f"op round={out.round} {out.name}: {out.wall:.3f} s wall, {out.cpu:.3f} s cpu, "
                f"{out.rss_mb:.1f} MB, {status}")
        print(line)
        if out.sha256:
            ref = refs.get(args_of.get(out.name, ""))
            same = "no reference" if ref is None else (
                "same as reference" if ref == out.sha256 else "DIFFERS from reference")
            print(f"  sha256 {out.sha256} ({same})")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    OUT.mkdir(parents=True, exist_ok=True)
    procs: List[Proc] = []
    outcomes: List[Outcome] = []
    metrics: Dict[str, float] = {}
    start = time.perf_counter()

    if trace:
        trace_dir = OUT / f"trace-{workload}-{seed}"
        trace_dir.mkdir(exist_ok=True)
        for old in trace_dir.glob("*.json"):
            old.unlink()
        if workload == "oracle-suites":
            plain, _, _ = run_suites(seed, 0, 1, None, "suites-plain")
            traced, _, records = run_suites(seed, 0, 1, trace_dir / "suites.json", "suites-traced")
            trace_files = [trace_dir / "suites.json"]
            deadline_hits = sum(1 for r in records if r["suite"] == "scalars" and r["deadline"])
        else:
            plain, _, _ = run_cli_round(workload, 0, None, seed)
            traced, _, trace_files = run_cli_round(workload, 1, trace_dir, seed)
            deadline_hits = 0
        for out in traced:
            out.round = 1
        outcomes = plain + traced
        overhead = sum(o.wall for o in traced) - sum(o.wall for o in plain)
        merged = merge_traces(trace_files)
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(merged), encoding="utf-8")
        metrics = per_layer_metrics(merged, overhead, deadline_hits)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = measure_setup()
        bad = [p for p in setup if p.code != 0]
        if bad:
            raise RuntimeError(f"setup process failed: {bad[0].stderr.strip()[-300:]}")
        procs += setup
        print(f"setup: {', '.join(f'{p.wall:.3f} s' for p in setup)}")
        metrics["setup_s"] = statistics.median(p.wall for p in setup)
        if workload == "oracle-suites":
            outcomes, p, _ = run_suites(seed, seconds, 1_000_000, None, "suites")
            procs += p
        else:
            round_index = 0
            loop_start = time.perf_counter()
            while True:
                r0 = time.perf_counter()
                outs, p, _ = run_cli_round(workload, round_index, None, seed)
                outcomes += outs
                procs += p
                round_index += 1
                now = time.perf_counter()
                if now - loop_start >= seconds or now - start + (now - r0) > RUN_BUDGET_S:
                    break
        metrics["wall_s"] = round_wall_median(outcomes)
        metrics["peak_rss_mb"] = max(p.rss_mb for p in procs)
        units = END_TO_END

    _report(outcomes, workload)
    failed = [o for o in outcomes if o.failed]
    unexpected = [o for o in failed if not o.known_fault]
    print(f"workload {workload}: {len(outcomes)} operations attempted, {len(failed)} failed "
          f"({len(unexpected)} not a known fault); {time.perf_counter() - start:.1f} s")
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = dict(result, workload=workload, seed=seed, trace=trace,
                  operations=[{"name": o.name, "round": o.round, "wall_s": o.wall, "cpu_s": o.cpu,
                               "rss_mb": o.rss_mb, "problems": o.problems,
                               "known_fault": o.known_fault, "sha256": o.sha256}
                              for o in outcomes])
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wresidue" / "cli.py").is_file():
        sys.stderr.write(f"error: no src/wresidue under {ROOT}; run from the repository root\n")
        return 2
    if importlib.util.find_spec("sympy") is None:
        sys.stderr.write("error: sympy is required to check the outputs\n")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
