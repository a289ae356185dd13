"""Alternated before/after runs of the benchmark, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_8.json \
        --workload paper-report:10 --workload report-variants:10 \
        --workload oracle-suites:10 --seconds 20 --seed 900

Run from the root of the repository.  `--base` names the commit to compare
against; its files are extracted with `git archive` into a temporary
directory, and the change is this working tree as it is.  For each
workload, pair i runs `perfbench/run.py --workload W --seed <seed+i>
--seconds S --trace 0` once in the base tree and once in this tree (each
tree with its own `perfbench/`, from its own root), one run at a time, the
base first in even pairs and the change first in odd ones.  The
output holds, per workload and side, the median and quartiles of `setup_s`,
`wall_s` and `peak_rss_mb` over the pairs, and the failed and attempted
operation counts, and `peak_rss_set_by`: in how many runs each operation
set `peak_rss_mb` (read from the per-operation `rss_mb` of perfbench's
result file), and `operation_wall_s`: per operation, named with any
`@seed` suffix cut, the median over the side's runs of its median `wall_s`
over a run's rounds (calls that share a cut name in one round, such as the
`scalars` suite at three seeds, add up), and `operation_cpu_s`, the same
for the CPU time perfbench records per operation (for a CLI operation, the
user and system time of its process and of the children it reaped, so one
that runs work beside itself shows more CPU than wall time), and
`operation_rss_mb`: per operation, the median over the side's runs of its
median `rss_mb` over a run's rounds, so a move of one process's peak names
the process.  Per
workload it also holds `operations_moved`, each operation's two medians and their difference,
largest move first, so the call that carries a gain or a loss is named,
and, for each of the three metrics,
in how many pairs the change was lower (`change_lower_pairs`;
`change_faster_pairs` is its `wall_s` entry), `clears_parent_iqr`, for
each metric whether the two medians differ by more than the parent's
interquartile range (q3 - q1), and `over_bound`, the metrics whose change
median is worse than the parent's by more than the relative bound that
`BENCHMARK.json` gives them (the file is only read).  A claimed gain holds
where the change is lower in nearly every pair and `clears_parent_iqr` is
true.  One summary line per workload is printed with the medians,
quartiles, pair counts and the IQR test, and one with the five
operations that moved most.  The `machine` block records `dont_write_bytecode`, set
by PYTHONDONTWRITEBYTECODE, which the runs inherit: without cached bytecode
each cold process compiles the engine's sources again, so an import-time
gain is comparable only between files with the same flag.  Last come the
sha256 of every JSON report either side wrote, with
`same` true when both sides wrote exactly one digest for the operation and
it is the same one; the operations whose digests differ are printed at the
end.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(root: Path, rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def src_digest(tree: Path) -> str:
    """sha256 over the engine sources of a tree, so a reader can tell which
    code a side measured even before it is committed."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((tree / "perfbench" / "out" /
                         f"result-{workload}-{seed}-trace0.json").read_text(encoding="utf-8"))
    hashes = {op["name"]: op["sha256"] for op in detail["operations"] if op.get("sha256")}
    metrics = {m: result["metrics"][m]["value"] for m in METRICS}
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "hashes": hashes,
            "peak_op": peak_operation(detail["operations"], metrics["peak_rss_mb"]),
            "op_wall": operation_time(detail["operations"], "wall_s"),
            "op_cpu": operation_time(detail["operations"], "cpu_s"),
            "op_rss": operation_rss(detail["operations"])}


def operation_time(operations, field: str) -> dict:
    """Cut operation name -> median over the run's rounds of its `field`
    (`wall_s` or `cpu_s`) in a round; operations that share a cut name in
    a round add up."""
    per_round = {}
    for op in operations:
        key = (op["name"].partition("@")[0], op["round"])
        per_round[key] = per_round.get(key, 0.0) + op[field]
    rounds = {}
    for (name, _), seconds in per_round.items():
        rounds.setdefault(name, []).append(seconds)
    return {name: statistics.median(times) for name, times in sorted(rounds.items())}


def operation_rss(operations) -> dict:
    """Cut operation name -> median of its `rss_mb` over the run's rounds
    (operations that share a process share its peak)."""
    rss = {}
    for op in operations:
        rss.setdefault(op["name"].partition("@")[0], []).append(op["rss_mb"])
    return {name: statistics.median(values) for name, values in sorted(rss.items())}


def per_operation(runs, key: str) -> dict:
    """Operation -> the median over the runs of their per-operation figure."""
    return {name: statistics.median(r[key][name] for r in runs if name in r[key])
            for name in sorted({n for r in runs for n in r[key]})}


def peak_operation(operations, peak: float) -> str:
    """The operation whose process set `peak_rss_mb`, from the `rss_mb` that
    perfbench records per operation: its name with any `@seed` suffix cut,
    the names joined by `+` when operations share the process (the verify
    suites run in one), or `setup` when a setup process set it."""
    names = sorted({op["name"].partition("@")[0] for op in operations
                    if op["rss_mb"] == peak})
    return "+".join(names) or "setup"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def side(runs) -> dict:
    return {
        "metrics": {m: summary([r["metrics"][m] for r in runs]) for m in METRICS},
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "peak_rss_set_by": dict(Counter(r["peak_op"] for r in runs).most_common()),
        "operation_wall_s": per_operation(runs, "op_wall"),
        "operation_cpu_s": per_operation(runs, "op_cpu"),
        "operation_rss_mb": per_operation(runs, "op_rss"),
    }


def operations_moved(parent: dict, change: dict) -> list:
    """Each operation's median wall time on both sides and the change minus
    the parent, largest move first."""
    p, c = parent["operation_wall_s"], change["operation_wall_s"]
    rows = [{"operation": name, "parent": p[name], "change": c[name],
             "delta": c[name] - p[name]} for name in sorted(p.keys() & c.keys())]
    return sorted(rows, key=lambda row: -abs(row["delta"]))


def end_to_end_bounds(root: Path) -> dict:
    """metric -> (better, bound) from the `end_to_end` list of BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def over_bound(parent: dict, change: dict, bounds: dict) -> list:
    """The metrics whose change median is worse than the parent's by more
    than their relative bound."""
    out = []
    for m in METRICS:
        better, bound = bounds[m]
        p, c = parent["metrics"][m]["median"], change["metrics"][m]["median"]
        if (c > p * (1 + bound)) if better == "lower" else (c < p * (1 - bound)):
            out.append(m)
    return out


def clears_parent_iqr(parent: dict, change: dict) -> dict:
    """metric -> whether |change median - parent median| > parent q3 - q1."""
    out = {}
    for m in METRICS:
        p, c = parent["metrics"][m], change["metrics"][m]
        out[m] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    return out


def summary_line(name: str, entry: dict) -> str:
    parts = []
    for m in METRICS:
        p, c = entry["parent"]["metrics"][m], entry["change"]["metrics"][m]
        parts.append(f"{m} {p['median']:.3f} [{p['q1']:.3f}, {p['q3']:.3f}] -> "
                     f"{c['median']:.3f} [{c['q1']:.3f}, {c['q3']:.3f}], change lower in "
                     f"{entry['change_lower_pairs'][m]} of {len(entry['seeds'])}, "
                     f"{'clears' if entry['clears_parent_iqr'][m] else 'within'} parent IQR")
    parts.append("peak set by " + " -> ".join(
        ", ".join(f"{op} x{n}" for op, n in entry[label]["peak_rss_set_by"].items())
        for label in ("parent", "change")))
    flag = ", ".join(entry["over_bound"])
    return f"{name}: " + "; ".join(parts) + (f"; OVER BOUND: {flag}" if flag else "")


def compare_digests(sides: dict) -> dict:
    """Both sides' digests of one operation, and whether each side wrote
    exactly one digest and it is the same one."""
    parent, change = sides.get("parent", set()), sides.get("change", set())
    return {"parent": sorted(parent), "change": sorted(change),
            "same": len(parent) == 1 and parent == change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=900, help="seed of the first pair")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        sys.stderr.write("error: run from the repository root\n")
        return 2
    bounds = end_to_end_bounds(root)
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        plan.append((name, int(pairs or 5)))

    out = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count(), "processor": platform.machine(),
                    "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)},
        "parent": {"sha": git(root, "rev-parse", args.base)},
        "change": {"sha": git(root, "rev-parse", "HEAD"),
                   "uncommitted": bool(git(root, "status", "--porcelain", "--", "src"))},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "order": "pair i: parent first when i is even, change first when i is odd",
        "workloads": {},
        "report_hashes": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        extract(root, args.base, base)
        out["parent"]["src_sha256"] = src_digest(base)
        out["change"]["src_sha256"] = src_digest(root)
        for name, pairs in plan:
            runs = {"parent": [], "change": []}
            seeds = [args.seed + i for i in range(pairs)]
            for i, seed in enumerate(seeds):
                order = (("parent", base), ("change", root))
                for label, tree in order if i % 2 == 0 else order[::-1]:
                    t0 = time.perf_counter()
                    r = run_once(tree, name, seed, args.seconds)
                    runs[label].append(r)
                    print(f"{name} seed {seed} {label}: wall_s {r['metrics']['wall_s']:.3f} "
                          f"setup_s {r['metrics']['setup_s']:.3f} "
                          f"rss {r['metrics']['peak_rss_mb']:.1f} MB ({r['peak_op']}), "
                          f"{r['failed']}/{r['attempted']} failed "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
                    for op, digest in r["hashes"].items():
                        out["report_hashes"].setdefault(op, {}).setdefault(label, set()).add(digest)
            lower = {m: sum(c["metrics"][m] < p["metrics"][m]
                            for p, c in zip(runs["parent"], runs["change"]))
                     for m in METRICS}
            entry = {"seeds": seeds, "parent": side(runs["parent"]),
                     "change": side(runs["change"]), "change_lower_pairs": lower,
                     "change_faster_pairs": lower["wall_s"]}
            entry["clears_parent_iqr"] = clears_parent_iqr(entry["parent"], entry["change"])
            entry["over_bound"] = over_bound(entry["parent"], entry["change"], bounds)
            entry["operations_moved"] = operations_moved(entry["parent"], entry["change"])
            out["workloads"][name] = entry
            print(summary_line(name, entry), flush=True)
            print(f"{name}: operations moved most (median wall_s, parent -> change): " + "; ".join(
                f"{row['operation']} {row['parent']:.3f} -> {row['change']:.3f} "
                f"({row['delta']:+.3f})" for row in entry["operations_moved"][:5]), flush=True)
    out["report_hashes"] = {op: compare_digests(sides)
                            for op, sides in sorted(out["report_hashes"].items())}
    differ = [op for op, h in sorted(out["report_hashes"].items()) if not h["same"]]
    print("report digests differ: " + ", ".join(differ) if differ
          else "report digests: every operation the same on both sides", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
