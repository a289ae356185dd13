"""Batch command-line front end.

Subcommands:
  run     execute the configured computations and write the report
  verify  run the randomized property/oracle suites
  list    show available computations and reference ids

Exit codes: 0 when all engine self-checks pass (reference mismatches are
ordinary report content), 1 on usage or configuration errors and unusable
files, 2 on any other engine error, such as an oracle disagreement or an
inexact division.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional

from .scalars import EngineError
from .report import (
    CASE_CHOICES,
    ConfigError,
    FORMAT_CHOICES,
    RunConfig,
    SIGMA3_CHOICES,
    THEOREM_CHOICES,
    render_report,
    run_computation,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wresidue",
        description=(
            "Exact symbolic engine for residue-trace boundary computations of "
            "torsion Dirac operators on 4-manifolds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute computations and emit the report")
    run_p.add_argument("--theorem", choices=THEOREM_CHOICES, default=None,
                       help="default: all")
    run_p.add_argument("--case", choices=CASE_CHOICES, default=None)
    run_p.add_argument("--format", choices=FORMAT_CHOICES, default=None,
                       dest="output_format", help="default: text")
    run_p.add_argument("--no-torsion", action="store_true",
                       help="switch off all torsion atom families (A, T, V)")
    run_p.add_argument("--subst-omega3", action="store_true",
                       help="substitute Omega3 = 4*pi in reported values")
    run_p.add_argument("--seed", type=int, default=None, help="default: 0")
    run_p.add_argument("--oracle-samples", type=int, default=None,
                       help="also run the oracle suites with this sample count "
                            "(default: 0, none)")
    run_p.add_argument("--sigma3-variant", choices=SIGMA3_CHOICES, default=None,
                       help="default: printed")
    run_p.add_argument("--config", type=str, default=None,
                       help="JSON file with a flat RunConfig mapping")
    run_p.add_argument("--out", type=str, default=None)

    ver_p = sub.add_parser("verify", help="run the property/oracle suites")
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--samples", type=int, default=0,
                       help="override per-suite sample counts")
    ver_p.add_argument("--suite", type=str, default=None,
                       help="run a single named suite")
    ver_p.add_argument("--out", type=str, default=None)

    sub.add_parser("list", help="list computations and reference ids")
    return parser


def _config_from_args(args) -> RunConfig:
    """Config file first (flat key-value JSON), then every flag given on the
    command line, even at its default value."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}")
    cfg = RunConfig.from_mapping(data) if args.config else RunConfig()
    for key in ("theorem", "case", "output_format", "seed", "oracle_samples",
                "sigma3_variant"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if args.no_torsion:
        cfg.torsion_a = cfg.torsion_t = cfg.torsion_v = False
    if args.subst_omega3:
        cfg.subst_omega3 = True
    cfg.validate()
    return cfg


def _open_out(out: Optional[str]):
    """The output file, opened before any work so that a bad path fails at once."""
    if out:
        return open(out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    with _open_out(args.out) as fh:
        render_report(run_computation(cfg), cfg.output_format, fh)
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, _DEFAULT_COUNTS, run_all_suites

    if args.samples < 0:
        raise ConfigError("--samples must not be negative")
    if args.suite and args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    with _open_out(args.out) as fh:
        if args.suite:
            count = args.samples or _DEFAULT_COUNTS[args.suite]
            results = {args.suite: SUITES[args.suite](seed=args.seed, count=count)}
        else:
            results = run_all_suites(seed=args.seed, scale=args.samples)
        lines = []
        failed = False
        for name, result in sorted(results.items()):
            status = "ok" if not result["failures"] else "FAIL"
            skipped = f"{result['skipped']} skipped, " if "skipped" in result else ""
            lines.append(f"{name}: {result['passed']} passed, {skipped}"
                         f"{len(result['failures'])} failed [{status}]")
            for f in result["failures"][:5]:
                lines.append(f"  failure: {f}")
            failed = failed or bool(result["failures"])
        lines.append("")
        fh.write("\n".join(lines))
    return 2 if failed else 0


def cmd_list(_args) -> int:
    from .printed import REFERENCES
    from .references import SLOTS
    from .pipeline import BOUNDARY_THEOREMS

    lines = ["computations:"]
    lines.append("  T2.3   interior trace identities and functional density")
    lines.append("  T4.1   interior density attached to the first boundary theorem")
    lines.append("  T5.1   interior density attached to the second boundary theorem")
    for th, row in BOUNDARY_THEOREMS.items():
        cases = ", ".join(row.case_ids())
        lines.append(f"  {th}   five boundary cases ({cases}) plus total")
    lines.append("")
    lines.append("references:")
    for rid in sorted(REFERENCES):
        lines.append(f"  {rid}: {REFERENCES[rid].quote[:96]}")
    lines.append("")
    lines.append("printed-intermediate slots:")
    for slot in SLOTS:
        lines.append(f"  {slot.slot_id} [{slot.theorem}/{slot.case_id}]")
    lines.append("")
    sys.stdout.write("\n".join(lines))
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "list":
            return cmd_list(args)
        raise EngineError(f"unknown command {args.command!r}")
    except (OSError, EngineError) as exc:  # OSError: an unreadable --config or --out path
        sys.stderr.write(f"error: {exc}\n")
        return 1 if isinstance(exc, (ConfigError, OSError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
