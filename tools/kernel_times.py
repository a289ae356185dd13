"""Wall time of the scalar kernels in one cold in-process `run`, best of N.

    python3 tools/kernel_times.py [--theorem T5.4] [--repeats 5] [--src DIR]

Run from the root of the repository.  Each repeat is a fresh interpreter
that imports `wresidue` from `--src` (default: this tree's `src`), wraps
the kernels below, and calls `wresidue.cli.main(["run", "--theorem", T,
"--format", "json"])` in-process with its output discarded; the engine
modules are imported before the clock starts, so `main` excludes import
time.  A wrapper times only the outermost call of its kernel, so a nested
or recursive call is not counted twice; kernels may nest in one another (a
sum inside a sphere reduction counts in both).  The table gives, per
kernel, its calls and the least of its times over the repeats, and last
the whole `main` call.

The kernels, by the name each tree binds them under:

- `Poly.__mul__`: polynomial products;
- the dict sum: `gaussian._terms_add`, or `scalars._accumulate` in a tree
  from before the triple kernels;
- `scalars._poly_reduce_sphere`, `ScalarExpr.restrict_sphere`,
  `integration.sphere_moment` and `scalars.poly_text`.

A kernel a tree does not have is left out of its table, so `--src` can
point at an older checkout (`git archive <rev> | tar -x -C DIR`) to give
before and after figures from one script.  Nothing is written to disk.
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
    start = perf()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--theorem", theorem, "--format", "json"])
    main_s = perf() - start
    if code != 0:
        raise SystemExit(f"run --theorem {theorem} exited {code}")
    return {"kernels": {k: v[:2] for k, v in stats.items()}, "main_s": main_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theorem", default="T5.4")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(_child(args.theorem)))
        return 0
    runs = []
    for _ in range(args.repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--theorem", args.theorem,
             "--src", str(args.src)],
            capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"run --theorem {args.theorem}, src {args.src}, best of {args.repeats}")
    print(f"{'kernel':<22}{'calls':>9}{'best s':>10}")
    for label, *_ in KERNELS:
        if label not in runs[0]["kernels"]:
            continue
        calls = runs[0]["kernels"][label][0]
        best = min(r["kernels"][label][1] for r in runs)
        print(f"{label:<22}{calls:>9}{best:>10.4f}")
    print(f"{'main':<22}{'':>9}{min(r['main_s'] for r in runs):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
