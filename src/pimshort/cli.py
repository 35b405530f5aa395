"""Command-line surface: density, interval, enumerate-rfull, table, verify.

Records are emitted as a single JSON object per invocation or as CSV with a
fixed column order, so outputs diff cleanly.  Exit codes: 0 success, 1
verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .density import DEFAULT_BOUND, enumerate_rfull, local_density, rfull_count_bound
from .factor import MAX_N
from .rules import ExponentRule, RuleError, UnknownRuleError, build_rule, load_custom_rule
from .sieve import interval_report
from .verify import SUITE_NAMES, run_suite

TABLE_COLUMNS = (
    "rule", "k", "r", "x", "y", "count", "density", "main_term",
    "abs_error", "term_main", "term_mid", "term_tail", "admissible",
)

# The most r-full terms a --B may make the density series enumerate, as
# bounded from above by rfull_count_bound(r, 2^r * B).  At r = 2 this admits
# B up to about 1.1e11 (1.36e6 terms).
MAX_RFULL_TERMS = 2_000_000

# The longest window y that interval and table count: a few times the
# longest one any test or benchmark uses (3e7), and short enough that the
# chunk list and the run time stay bounded.
MAX_WINDOW = 10**8

# The middle error term is evaluated with X exponent -1/(6(4r-1)(2r-1)),
# which is -1/126 at r = 2; the sharper-looking -1/42 sometimes quoted for
# the r = 2 special case is intentionally not applied.
R2_EXPONENT_WARNING = (
    "warning: r=2 middle error term uses X exponent -1/126 (general formula); "
    "the specialized -1/42 variant is not applied"
)


def exact_int(text: str) -> int:
    """Parse an integer flag, accepting scientific notation when integral.

    Magnitudes at or above 2**63 are refused before int() expands them, so a
    short flag such as 1e1000000 cannot stall the parser.  OverflowError is
    not one of the errors argparse turns into a usage message; main reports
    it and exits 2 like any other out-of-range value.
    """
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value.is_nan():
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value.copy_abs() >= MAX_N:
        raise OverflowError(f"{text!r} is out of range: values must stay below 2**63")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(value)


def exact_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [exact_int(part) for part in text.split(",")]


def resolve_rule(name_or_path: str) -> ExponentRule:
    """A built-in rule name, or a path to a custom-rule JSON document."""
    if name_or_path.endswith(".json") or os.sep in name_or_path:
        return load_custom_rule(Path(name_or_path).read_text())
    return build_rule(name_or_path)


def check_bound(rule: ExponentRule, bound: int) -> None:
    """Refuse a --B whose r-full enumeration would exceed MAX_RFULL_TERMS."""
    terms = rfull_count_bound(rule.r, 2**rule.r * bound)
    if terms > MAX_RFULL_TERMS:
        raise ValueError(
            f"--B {bound} would enumerate up to {terms:.3g} r-full terms at r = {rule.r}; "
            f"the limit is {MAX_RFULL_TERMS}"
        )


def check_window(y: int) -> None:
    """Refuse a --y longer than MAX_WINDOW."""
    if y > MAX_WINDOW:
        raise ValueError(f"--y {y} is longer than the window limit {MAX_WINDOW}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(_csv_cell(v) for v in record.values())


def cmd_density(args) -> int:
    rule = resolve_rule(args.rule)
    check_bound(rule, args.bound)
    result = local_density(rule, args.k, args.bound)
    emit_record(result.to_record(), args.format)
    return 0


def cmd_interval(args) -> int:
    rule = resolve_rule(args.rule)
    check_bound(rule, args.bound)
    check_window(args.y)
    if rule.r == 2:
        print(R2_EXPONENT_WARNING, file=sys.stderr)
    report = interval_report(
        rule, args.k, args.x, args.y,
        eps=args.eps, bound=args.bound, workers=args.workers,
    )
    emit_record(report.to_record(), args.format)
    return 0


def cmd_enumerate_rfull(args) -> int:
    for n in enumerate_rfull(args.r, args.limit):
        print(n)
    return 0


def cmd_table(args) -> int:
    rule = resolve_rule(args.rule)
    check_bound(rule, args.bound)
    for y in args.y:
        check_window(y)
    if rule.r == 2 and args.x and args.y:
        print(R2_EXPONENT_WARNING, file=sys.stderr)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    if args.x and args.y:
        density_result = local_density(rule, args.k, args.bound)
        for x in args.x:
            for y in args.y:
                report = interval_report(
                    rule, args.k, x, y,
                    eps=args.eps, bound=args.bound, workers=args.workers,
                    density_result=density_result,
                )
                record = report.to_record()
                writer.writerow(_csv_cell(record[col]) for col in TABLE_COLUMNS)
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed, workers=args.workers)
    if args.format == "json":
        print(json.dumps([c.to_record() for c in checks]))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}: observed={c.observed} expected={c.expected}"
            if c.note:
                line += f" ({c.note})"
            print(line)
        passed = sum(1 for c in checks if c.passed)
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimshort",
        description=(
            "Local densities and short-interval counts of integer-valued "
            "prime-independent multiplicative functions with f(p) = 1"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rule=True):
        if rule:
            p.add_argument("--rule", required=True,
                           help="built-in rule name or path to a custom-rule JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("density", help="truncated local-density series for one k")
    add_common(p)
    p.add_argument("--k", type=exact_int, required=True)
    p.add_argument("--B", dest="bound", type=exact_int, default=DEFAULT_BOUND,
                   help="series truncation bound (default 1e9)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("interval", help="count f(n) = k over (x, x+y] vs density * y")
    add_common(p)
    p.add_argument("--k", type=exact_int, required=True)
    p.add_argument("--x", type=exact_int, required=True)
    p.add_argument("--y", type=exact_int, required=True)
    p.add_argument("--eps", type=float, default=0.01,
                   help="epsilon in the admissible-window test (default 0.01)")
    p.add_argument("--B", dest="bound", type=exact_int, default=DEFAULT_BOUND)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("enumerate-rfull", help="ascending r-full numbers up to a limit")
    p.add_argument("--r", type=exact_int, required=True)
    p.add_argument("--limit", type=exact_int, required=True)
    p.set_defaults(func=cmd_enumerate_rfull)

    p = sub.add_parser("table", help="CSV of interval reports over an (x, y) grid")
    p.add_argument("--rule", required=True)
    p.add_argument("--k", type=exact_int, required=True)
    p.add_argument("--x", type=exact_int_list, default=[],
                   help="comma-separated x values (scientific notation accepted)")
    p.add_argument("--y", type=exact_int_list, default=[],
                   help="comma-separated y values")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--B", dest="bound", type=exact_int, default=DEFAULT_BOUND)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (RuleError, UnknownRuleError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
