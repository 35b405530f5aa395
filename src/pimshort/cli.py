"""Command-line surface: density, interval, enumerate-rfull, table, verify.

Records are emitted as a single JSON object per invocation or as CSV with a
fixed column order, so outputs diff cleanly.  Exit codes: 0 success, 1
verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .density import (
    DEFAULT_BOUND,
    check_series_args,
    enumerate_rfull,
    local_density,
    rfull_count_bound,
)
from .factor import MAX_N
from .rules import ExponentRule, RuleError, UnknownRuleError, build_rule, load_custom_rule
from .sieve import IntervalReport, check_report_window, interval_report
from .verify import SUITE_NAMES, run_suite

# The most r-full terms a command may enumerate, as bounded from above by
# rfull_count_bound: up to 2^r * --B for the density series, up to --limit
# for enumerate-rfull.  At r = 2 this admits B up to about 1.1e11 (1.36e6
# terms) and --limit up to about 4.5e11.
MAX_RFULL_TERMS = 2_000_000

# The longest window y that interval and table count: a few times the
# longest one any test or benchmark uses (3e7), and short enough that the
# chunk list and the run time stay bounded.
MAX_WINDOW = 10**8

# bound_breakdown applies the general middle exponent at r = 2 as well.
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


def positive_float(text: str) -> float:
    """Parse --eps, which must be finite and above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


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


def check_terms(flag: str, value: int, r: int, limit: int) -> None:
    """Refuse a flag whose r-full enumeration up to limit would exceed MAX_RFULL_TERMS."""
    terms = rfull_count_bound(r, limit)
    if terms > MAX_RFULL_TERMS:
        raise ValueError(
            f"{flag} {value} would enumerate up to {terms:.3g} r-full terms at r = {r}; "
            f"the limit is {MAX_RFULL_TERMS}"
        )


def check_bound(rule: ExponentRule, bound: int) -> None:
    """Refuse a --B whose r-full enumeration would exceed MAX_RFULL_TERMS."""
    check_terms("--B", bound, rule.r, 2**rule.r * bound)


def check_window(y: int) -> None:
    """Refuse a --y longer than MAX_WINDOW."""
    if y > MAX_WINDOW:
        raise ValueError(f"--y {y} is longer than the window limit {MAX_WINDOW}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_records(columns, records: list[dict], fmt: str) -> None:
    """One JSON object a line, or a CSV header of columns and one row a record."""
    if fmt == "json":
        for record in records:
            print(json.dumps(record))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(v) for v in record.values()] for record in records)


def cmd_density(args) -> int:
    rule = resolve_rule(args.rule)
    check_bound(rule, args.bound)
    record = local_density(rule, args.k, args.bound).to_record()
    emit_records(record.keys(), [record], args.format)
    return 0


def report_windows(args, xs: list[int], ys: list[int], fmt: str) -> int:
    """Check k, --B and every (x, y) before any output, sum the series once, report each window."""
    rule = resolve_rule(args.rule)
    check_series_args(args.k, args.bound)
    check_bound(rule, args.bound)
    for y in ys:
        check_window(y)
        for x in xs:
            check_report_window(x, y)
    reports = []
    if xs and ys:
        if rule.r == 2:
            print(R2_EXPONENT_WARNING, file=sys.stderr)
        density = local_density(rule, args.k, args.bound).density
        reports = [
            interval_report(rule, args.k, x, y, density, eps=args.eps)
            for x in xs for y in ys
        ]
    columns = [f.name for f in fields(IntervalReport)]
    emit_records(columns, [report.to_record() for report in reports], fmt)
    return 0


def cmd_interval(args) -> int:
    return report_windows(args, [args.x], [args.y], args.format)


def cmd_enumerate_rfull(args) -> int:
    if args.r < 2:
        raise ValueError(f"--r must be at least 2, got {args.r}")
    if args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    check_terms("--limit", args.limit, args.r, args.limit)
    for n in enumerate_rfull(args.r, args.limit):
        print(n)
    return 0


def cmd_table(args) -> int:
    return report_windows(args, args.x, args.y, "csv")


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed)
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

    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--rule", required=True,
                        help="built-in rule name or path to a custom-rule JSON file")
    series.add_argument("--k", type=exact_int, required=True)
    series.add_argument("--B", dest="bound", type=exact_int, default=DEFAULT_BOUND,
                        help="series truncation bound (default 1e9)")
    windows = argparse.ArgumentParser(add_help=False, parents=[series])
    windows.add_argument("--eps", type=positive_float, default=0.01,
                         help="epsilon in the admissible-window test (default 0.01)")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("density", parents=[series, formats],
                       help="truncated local-density series for one k")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("interval", parents=[windows, formats],
                       help="count f(n) = k over (x, x+y] vs density * y")
    p.add_argument("--x", type=exact_int, required=True)
    p.add_argument("--y", type=exact_int, required=True)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("enumerate-rfull", help="ascending r-full numbers up to a limit")
    p.add_argument("--r", type=exact_int, required=True)
    p.add_argument("--limit", type=exact_int, required=True)
    p.set_defaults(func=cmd_enumerate_rfull)

    p = sub.add_parser("table", parents=[windows],
                       help="CSV of interval reports over an (x, y) grid")
    p.add_argument("--x", type=exact_int_list, default=[],
                   help="comma-separated x values (scientific notation accepted)")
    p.add_argument("--y", type=exact_int_list, default=[],
                   help="comma-separated y values")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
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
