"""Recompute the sha256 of every JSON report the benchmark's workloads produce.

    python3 perfbench/hashes.py           # print each hash and compare it with
                                          # perfbench/reference_hashes.json
    python3 perfbench/hashes.py --write   # store the hashes as the reference

Run from the repository root at any commit.  A refactor that must keep the
report byte-identical (same config, same bytes) keeps every hash.  The
benchmark prints the same hashes as information; it does not fail on them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

from run import BENCH, CLI_WORKLOADS, ROOT

REFERENCE = BENCH / "reference_hashes.json"


def json_reports():
    seen = []
    for ops in CLI_WORKLOADS.values():
        for op in ops:
            if "json" in op.args and op.args not in seen:
                seen.append(op.args)
    return seen


def report_hash(args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-m", "wresidue.cli", *args], env=env, cwd=ROOT,
                         check=True, stdout=subprocess.PIPE).stdout
    return hashlib.sha256(out).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the hashes as the reference")
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    hashes = {}
    differ = 0
    for report_args in json_reports():
        key = " ".join(report_args)
        hashes[key] = report_hash(report_args)
        ref = reference.get(key)
        state = "new" if ref is None else ("same" if ref == hashes[key] else "DIFFERS")
        differ += state != "same"
        print(f"{hashes[key]}  {state:7}  wresidue {key}")
    if args.write:
        REFERENCE.write_text(json.dumps(hashes, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0 if args.write or not differ else 1


if __name__ == "__main__":
    sys.exit(main())
