"""Worker processes of the benchmark; each is one cold process.

    child.py setup
        import wresidue and build the boundary operator symbols
        (make_context for T4.6 and T5.4), then exit.
    child.py cli --trace FILE --seed N -- <wresidue arguments>
        run `wresidue.cli.main` under the tracer; the report goes to stdout
        as it does from the plain CLI, the trace to FILE.
    child.py suites --seed N --seconds S --out FILE [--rounds R] [--trace FILE]
        run rounds of the verify suites in this one process (see SUITE_PLAN)
        until S seconds have passed or R rounds are done, and write one
        record per suite call to FILE.

`src/` of the checkout must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import time

# One round of the oracle-suites workload: (suite, samples per call).  The
# seed of each call is derived from the workload seed (suite_seed below).
SUITE_PLAN = (
    ("clifford", 400),
    ("halfplane", 60),
    ("contour", 160),
    ("symbols", 3),
)
# Calls at fixed seeds: (suite, seed, samples, deadline in seconds).
# - sphere: its Monte-Carlo oracle checks a 2M-sample mean to a relative
#   1e-3, about 1.6 standard errors, so it fails at some seeds (11, 20 and
#   24 of 0-28).  A seed-derived call would fail on some workload seeds and
#   not others; seed 11 fails every time.
# - scalars: one sample per call; at one sample per seed about a quarter of
#   seeds never finish (coefficient growth in the generic gcd).  Seed 0 is
#   one of them; seeds 1 and 2 finish in milliseconds.
FIXED_CALLS = (
    ("sphere", 11, 50, 60.0),
    ("scalars", 0, 1, 1.0),
    ("scalars", 1, 1, 1.0),
    ("scalars", 2, 1, 1.0),
)
# A guard against a hang in any other suite call; no call comes near it.
SUITE_DEADLINE_S = 60.0


def suite_seed(seed: int, round_index: int, suite: str) -> int:
    digest = hashlib.sha256(f"{seed}/{round_index}/{suite}".encode()).hexdigest()
    return int(digest[:8], 16)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a suite call; not an Exception, so no engine
    handler can swallow it."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def _call_with_deadline(fn, seconds: float, **kwargs):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(**kwargs), False
    except DeadlineExceeded:
        return None, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_suite_rounds(seed: int, seconds: float, max_rounds: int) -> list:
    from wresidue import verify

    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    start = time.perf_counter()
    round_index = 0
    while round_index < max_rounds:
        calls = [(name, suite_seed(seed, round_index, name), count, SUITE_DEADLINE_S)
                 for name, count in SUITE_PLAN]
        calls += list(FIXED_CALLS)
        for name, call_seed, count, deadline in calls:
            t0, c0 = time.perf_counter(), time.process_time()
            result, timed_out = _call_with_deadline(verify.SUITES[name], deadline,
                                                    seed=call_seed, count=count)
            records.append({
                "round": round_index,
                "suite": name,
                "seed": call_seed,
                "count": count,
                "seconds": time.perf_counter() - t0,
                "cpu_seconds": time.process_time() - c0,
                "deadline": timed_out,
                "passed": result["passed"] if result else 0,
                "failures": result["failures"][:5] if result else [],
            })
        round_index += 1
        if time.perf_counter() - start >= seconds:
            break
    return records


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "cli", "suites"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1_000_000)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--out", default=None)
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    args = parser.parse_args(argv[:len(argv) - len(cli_args) - (1 if cli_args else 0)])

    if args.mode == "setup":
        from wresidue.pipeline import make_context

        make_context("T4.6")
        make_context("T5.4")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.seed)
        tracer.install()
    try:
        if args.mode == "cli":
            from wresidue.cli import main as cli_main

            code = cli_main(cli_args)
            sys.stdout.flush()
            return code
        records = run_suite_rounds(args.seed, args.seconds, args.rounds)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        return 0
    finally:
        if tracer is not None:
            trace = tracer.finish()
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
