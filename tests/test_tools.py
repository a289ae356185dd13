"""The measuring scripts under tools/ against the engine.

`tools/kernel_times.py` rebinds kernels by name and reaches
`report._fork_helps` and `report._run_tasks`.  Running it here on one short
theorem, in both of its modes, makes a renamed or deleted name fail this
test rather than the next measurement.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_TASK_LINE = re.compile(r"^(case_part \w+|slot_part \w+|\w+_part)\s+(parent|worker)\s")


@pytest.mark.parametrize("lanes", [False, True], ids=["kernels", "lanes"])
def test_kernel_times_runs_one_theorem(lanes):
    argv = [sys.executable, str(ROOT / "tools" / "kernel_times.py"),
            "--theorem", "T4.6", "--repeats", "1"] + (["--lanes"] if lanes else [])
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert any(re.match(r"^main\s+\d+\.\d+$", line) for line in lines), out.stdout
    if lanes:
        # every task of T4.6 is listed once; whether a worker ran any
        # depends on the CPUs of the host, so only the parent lane is required
        tasks = [m.group(1) for m in map(_TASK_LINE.match, lines) if m]
        assert sorted(tasks) == sorted(
            [f"case_part {c}" for c in ("a1", "a2", "a3", "b", "c")]
            + ["other_reading_part", "symbol_diffs_part", "interior_part"])
        assert any(line.startswith("parent   busy") for line in lines), out.stdout
    else:
        assert any(line.startswith("Poly.__mul__") for line in lines), out.stdout
        # the sum path: the scalar and the Clifford signed-sum kernels
        for kernel in ("scalar_sum", "_collect"):
            assert any(re.match(rf"^{kernel}\s+[1-9]\d*\s+\d+\.\d+$", line)
                       for line in lines), out.stdout
        # one row of divisions tried and failed per known denominator base
        head = lines.index(next(line for line in lines if line.startswith("division by base")))
        rows = [re.match(r"^(.+?)\s+(\d+)\s+(\d+)$", line) for line in lines[head + 1:head + 5]]
        assert all(rows), out.stdout
        assert all(int(r.group(3)) <= int(r.group(2)) for r in rows)
        assert sum(int(r.group(2)) for r in rows) > 0
