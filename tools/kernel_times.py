"""Wall time of the scalar kernels in one cold in-process `run`, best of N.

    python3 tools/kernel_times.py [--theorem T5.4] [--repeats 5] [--src DIR] [--lanes]

Run from the root of the repository.  Each repeat is a fresh interpreter
that imports `wresidue` from `--src` (default: this tree's `src`), wraps
the kernels below, and calls `wresidue.cli.main(["run", "--theorem", T,
"--format", "json"])` in-process with its output discarded; the engine
modules are imported before the clock starts, so `main` excludes import
time.  The run is inline: a tree that runs work in a forked worker
(`report._fork_helps`) is told it has one CPU, so the timers see every
task and the figures compare with those of older trees.  A wrapper
times only the outermost call of its kernel, so a nested or recursive call
is not counted twice; kernels may nest in one another (a sum inside a
sphere reduction counts in both).  The table gives, per
kernel, its calls and the least of its times over the repeats, and last
the whole `main` call.  A second table follows with the per-process caches
of the first repeat's run: every function of a `wresidue` module that has
`cache_info` (the `functools` caches), with its hits, misses, size and
bound ("-" when unbounded), as the run left them.  They are read from the
outside after the run; the engine has no switch for it.  A third table
gives, for each known denominator base of `scalars._BASES`, the exact
divisions by it that the first repeat's run tried and the ones that
failed: `scalars.poly_divexact` is wrapped, and a division counts for a
base when its divisor is that base object.  A tree without `_BASES` has no
such table.

The kernels, by the name each tree binds them under:

- `Poly.__mul__`: polynomial products;
- the dict sum: `gaussian._terms_add`, or `scalars._accumulate` in a tree
  from before the triple kernels;
- `scalars._poly_reduce_sphere`, `ScalarExpr.restrict_sphere`,
  `integration.sphere_moment` and `scalars.poly_text`;
- the sum path: `scalars.scalar_sum`, the one canonical sum of scalars,
  and `clifford._collect`, the one signed sum of Clifford values.

A kernel a tree does not have is left out of its table, so `--src` can
point at an older checkout (`git archive <rev> | tar -x -C DIR`) to give
before and after figures from one script.  Nothing is written to disk.

`--lanes` runs the theorem as the CLI does, forked where the tree forks,
and times the tasks of each boundary theorem instead of the kernels.  It
wraps each task that `report._run_tasks` receives, so that the task
returns its result with the process that ran it, its start and end on
the shared monotonic clock and that process's peak RSS so far; the records
come back with the results, through the engine's own pipe.  Per boundary
theorem of the fastest repeat, the table gives each task in list order
with its lane (parent or worker), start and wall time in ms and the peak
RSS after it, then each lane's busy time (the sum of its tasks) and idle
time (the rest of the span from the call of `_run_tasks` to its return).
A tree without `_run_tasks` has no lanes to show.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, module, class or None, attribute)
KERNELS = (
    ("Poly.__mul__", "scalars", "Poly", "__mul__"),
    ("_terms_add", "gaussian", None, "_terms_add"),
    ("_accumulate", "scalars", None, "_accumulate"),
    ("_poly_reduce_sphere", "scalars", None, "_poly_reduce_sphere"),
    ("restrict_sphere", "scalars", "ScalarExpr", "restrict_sphere"),
    ("sphere_moment", "integration", None, "sphere_moment"),
    ("poly_text", "scalars", None, "poly_text"),
    ("scalar_sum", "scalars", None, "scalar_sum"),
    ("_collect", "clifford", None, "_collect"),
)


def _child(theorem: str) -> dict:
    """Install the timers, run one theorem in-process and return the
    per-kernel calls and seconds, and the seconds of `main`."""
    import contextlib
    import importlib
    import io
    import time

    perf = time.perf_counter
    stats = {}

    def timed(label, fn):
        rec = stats[label] = [0, 0.0, 0]  # calls, seconds, depth

        def wrapper(*args, **kwargs):
            rec[0] += 1
            if rec[2]:
                return fn(*args, **kwargs)
            rec[2] = 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[1] += perf() - start
                rec[2] = 0

        return wrapper

    cli = importlib.import_module("wresidue.cli")
    # a boundary run loads these lazily; import them now so that every
    # module that binds a kernel is there to be rebound
    for name in ("gaussian", "scalars", "integration", "halfplane", "clifford",
                 "symbols", "pipeline", "references", "report"):
        importlib.import_module(f"wresidue.{name}")
    for label, mod_name, cls_name, attr in KERNELS:
        mod = sys.modules[f"wresidue.{mod_name}"]
        if cls_name is not None:
            cls = getattr(mod, cls_name)
            setattr(cls, attr, timed(label, vars(cls)[attr]))
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        wrapped = timed(label, fn)
        for name, other in list(sys.modules.items()):
            if name.startswith("wresidue") and other is not None \
                    and getattr(other, attr, None) is fn:
                setattr(other, attr, wrapped)
    divisions = _count_divisions(sys.modules["wresidue.scalars"])
    # every task in this process, so that the timers see the kernels of the
    # tasks a tree with a forked worker runs beside it
    report = sys.modules["wresidue.report"]
    if hasattr(report, "_fork_helps"):
        report._fork_helps = lambda: False
    start = perf()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--theorem", theorem, "--format", "json"])
    main_s = perf() - start
    if code != 0:
        raise SystemExit(f"run --theorem {theorem} exited {code}")
    return {"kernels": {k: v[:2] for k, v in stats.items()}, "main_s": main_s,
            "caches": _cache_infos(), "divisions": divisions}


def _count_divisions(scalars) -> list:
    """Rebind `scalars.poly_divexact` to count, per base of `_BASES`, the
    divisions by it tried and failed; the returned rows [text, tried,
    failed] fill in as the run goes.  None for a tree without `_BASES`."""
    bases = getattr(scalars, "_BASES", None)
    if bases is None:
        return None
    bases = [base for base, _ in bases]
    rows = [[scalars.poly_text(base), 0, 0] for base in bases]
    by_base = {id(base): row for base, row in zip(bases, rows)}
    real = scalars.poly_divexact

    def divexact(a, b):
        row = by_base.get(id(b))
        if row is None:
            return real(a, b)
        row[1] += 1
        try:
            return real(a, b)
        except Exception:
            row[2] += 1
            raise

    scalars.poly_divexact = divexact
    return rows


def _cache_infos() -> dict:
    """The `cache_info()` (hits, misses, maxsize, currsize) of each
    `functools` cache that a `wresidue` module defines, by module and name."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("wresidue.") or mod is None:
            continue
        for name, fn in vars(mod).items():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod_name:
                out[f"{mod_name[len('wresidue.'):]}.{name}"] = list(fn.cache_info())
    return out


def _task_label(task) -> str:
    """The name of a task's function, and the slot or case it is given."""
    import functools

    if isinstance(task, functools.partial):
        arg = task.args[0]
        return f"{task.func.__name__} {getattr(arg, 'slot_id', None) or arg.case_id}"
    return task.__name__


def _lanes_child(theorem: str) -> dict:
    """Run one theorem in-process with every task of `report._run_tasks`
    timed, and return the task records of each call and the seconds of
    `main`."""
    import contextlib
    import importlib
    import io
    import os
    import resource
    import time

    perf = time.perf_counter
    cli = importlib.import_module("wresidue.cli")
    report = importlib.import_module("wresidue.report")
    run_tasks = getattr(report, "_run_tasks", None)
    if run_tasks is None:
        raise SystemExit("this tree has no report._run_tasks")
    calls = []

    def timed(task):
        def run():
            start = perf()
            out = task()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return out, (os.getpid(), start, perf(), rss)
        return run

    def lanes(tasks):
        start = perf()
        pairs = run_tasks([timed(task) for task in tasks])
        calls.append({"parent": os.getpid(), "start": start, "end": perf(),
                      "tasks": [[_task_label(task), *rec] for task, (_, rec) in zip(tasks, pairs)]})
        return [out for out, _ in pairs]

    report._run_tasks = lanes
    start = perf()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--theorem", theorem, "--format", "json"])
    main_s = perf() - start
    if code != 0:
        raise SystemExit(f"run --theorem {theorem} exited {code}")
    return {"calls": calls, "main_s": main_s}


def _print_lanes(run: dict) -> None:
    for call in run["calls"]:
        t0, span = call["start"], call["end"] - call["start"]
        busy = {"parent": 0.0, "worker": 0.0}
        print(f"{'task':<24}{'lane':>8}{'start ms':>10}{'wall ms':>9}{'rss MB':>8}")
        for label, pid, start, end, rss in call["tasks"]:
            lane = "parent" if pid == call["parent"] else "worker"
            busy[lane] += end - start
            print(f"{label:<24}{lane:>8}{(start - t0) * 1e3:>10.1f}"
                  f"{(end - start) * 1e3:>9.1f}{rss:>8.2f}")
        for lane, seconds in busy.items():
            print(f"{lane:<8} busy {seconds * 1e3:7.1f} ms  idle {(span - seconds) * 1e3:7.1f} ms"
                  f"  of {span * 1e3:.1f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theorem", default="T5.4")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--lanes", action="store_true",
                    help="time the tasks of each boundary theorem per process instead")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps((_lanes_child if args.lanes else _child)(args.theorem)))
        return 0
    runs = []
    for _ in range(args.repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--theorem", args.theorem,
             "--src", str(args.src)] + (["--lanes"] if args.lanes else []),
            capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit((proc.stderr.strip().splitlines() or ["child failed"])[-1])
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"run --theorem {args.theorem}, src {args.src}, best of {args.repeats}")
    if args.lanes:
        best = min(runs, key=lambda r: r["main_s"])
        _print_lanes(best)
        print(f"{'main':<24}{best['main_s'] * 1e3:>27.1f}")
        return 0
    print(f"{'kernel':<22}{'calls':>9}{'best s':>10}")
    for label, *_ in KERNELS:
        if label not in runs[0]["kernels"]:
            continue
        calls = runs[0]["kernels"][label][0]
        best = min(r["kernels"][label][1] for r in runs)
        print(f"{label:<22}{calls:>9}{best:>10.4f}")
    print(f"{'main':<22}{'':>9}{min(r['main_s'] for r in runs):>10.4f}")
    print()
    print(f"{'cache':<44}{'hits':>8}{'misses':>8}{'size':>6}{'bound':>7}")
    for name, (hits, misses, bound, size) in runs[0]["caches"].items():
        print(f"{name:<44}{hits:>8}{misses:>8}{size:>6}{'-' if bound is None else bound:>7}")
    if runs[0].get("divisions") is not None:
        width = max(len(text) for text, *_ in runs[0]["divisions"]) + 2
        print()
        print(f"{'division by base':<{width}}{'tried':>7}{'failed':>7}")
        for text, tried, failed in runs[0]["divisions"]:
            print(f"{text:<{width}}{tried:>7}{failed:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
