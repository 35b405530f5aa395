"""Byte-for-byte replay of a fixed set of CLI calls against golden stdout.

For each call below, tests/golden/<name>.txt holds the expected stdout and
tests/golden/exits.json the expected exit code.  The calls run in process;
the whole replay takes about 15 s, most of it `verify --suite all`.
Refactors of the series or the counting layers must leave every file
unchanged.

To capture the files afresh (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py

To capture only some calls, leaving every other file as it is, name them:

    PYTHONPATH=src python tests/test_golden.py density-powerdiv-r40-k1-B1e9
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pimshort.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = ("abelian", "plane", "semisimple", "expdiv", "unitary-expdiv", "powerdiv-r:3")


def _calls() -> list[tuple[str, list[str]]]:
    calls = []
    for rule in FAMILIES:
        for k in (1, 2, 3, 4):
            calls.append((f"density-{rule.replace(':', '')}-k{k}",
                          ["density", "--rule", rule, "--k", str(k), "--B", "1e6"]))
    # The two heaviest density pairs, at the default truncation B = 1e9.
    for rule in ("expdiv", "unitary-expdiv"):
        calls.append((f"density-{rule}-k4-B1e9", ["density", "--rule", rule, "--k", "4"]))
    # f(b) = 10^16 passes 2^53, so the series takes f in Python ints.
    calls.append(("density-huge-rule-k1e16-B1e9",
                  ["density", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e16"]))
    # The tail block (B, 2^40 B] passes 2^63 and is cut below it.
    calls.append(("density-powerdiv-r40-k1-B1e9",
                  ["density", "--rule", "powerdiv-r:40", "--k", "1"]))
    # The smallest heads: b = 1 alone, and the r-full b <= 10 (1, 4, 8, 9).
    calls.append(("density-abelian-k1-B1",
                  ["density", "--rule", "abelian", "--k", "1", "--B", "1"]))
    calls.append(("density-expdiv-k2-B10",
                  ["density", "--rule", "expdiv", "--k", "2", "--B", "10"]))
    calls += [
        ("density-abelian-k2-csv",
         ["density", "--rule", "abelian", "--k", "2", "--B", "1e6", "--format", "csv"]),
        ("interval-abelian-k2",
         ["interval", "--rule", "abelian", "--k", "2", "--x", "1e9", "--y", "1e4", "--B", "1e6"]),
        ("interval-abelian-k2-csv",
         ["interval", "--rule", "abelian", "--k", "2", "--x", "1e9", "--y", "1e4", "--B", "1e6",
          "--format", "csv"]),
        # g(alpha) = 10^alpha exceeds 2^alpha, and f(2^30) = 10^30 lies in the window.
        ("interval-huge-rule-k100",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "100",
          "--x", "1073736000", "--y", "1e4", "--B", "1e6"]),
        # (k + 1)^2 passes 2^63 for a rule with g(alpha) > 2^alpha: f counted exactly.
        ("interval-huge-rule-k1e12",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e12",
          "--x", "1e12", "--y", "1e6", "--B", "1e6"]),
        # The same k over three 2^20-offset chunks of signature codes: 901 n.
        ("interval-huge-rule-k1e12-y3e6",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e12",
          "--x", "1e12", "--y", "3e6", "--B", "1e6"]),
        # The same k in a window ending at 2^30 - 1, on uint16 signature codes.
        ("interval-huge-rule-k1e12-x2_30",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e12",
          "--x", "1073731823", "--y", "1e4", "--B", "1e6"]),
        # The same k in a window holding the largest signature code below 2^46: 56,265 at
        # n = 64,545,465,600,000 = 2^11 3^5 5^5 7^3 11^2.
        ("interval-huge-rule-k1e12-sig56265",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e12",
          "--x", "64545465595000", "--y", "1e4", "--B", "1e6"]),
        # k past the uint16 accumulator: uint32.
        ("interval-abelian-k297",
         ["interval", "--rule", "abelian", "--k", "297", "--x", "1e11", "--y", "1e6",
          "--B", "1e6"]),
        # (k + 1)^2 passes 2^32 and stays below 2^64: f(n) = 79524 at one n.
        ("interval-plane-k79524",
         ["interval", "--rule", "plane", "--k", "79524", "--x", "1e11", "--y", "1e6",
          "--B", "1e6"]),
        # k = plane(62) = f(2^62), and (k + 1)^2 passes 2^64, over (2^62 - 1000, 2^62 + 1000].
        ("interval-plane-k607771804065",
         ["interval", "--rule", "plane", "--k", "607771804065", "--x", "4611686018427386904",
          "--y", "2000", "--B", "1e6"]),
        # k = abelian(62) = f(2^62), on the uint64 accumulator: 2^62 is the one n with
        # f(n) = k in (2^62 - 5000, 2^62 + 5000], where every other power of 2 is below 2^14.
        ("interval-abelian-k1300156-x2_62",
         ["interval", "--rule", "abelian", "--k", "1300156", "--x", "4611686018427382904",
          "--y", "1e4", "--B", "1e6"]),
        # A rule with g(alpha) > 2^alpha, at a k whose (k + 1)^2 stays below 2^64.
        ("interval-huge-rule-k1e6",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "1e6",
          "--x", "1e12", "--y", "1e6", "--B", "1e6"]),
        # A deep window: the large primes reach 1e9.
        ("interval-abelian-k1-x1e18",
         ["interval", "--rule", "abelian", "--k", "1", "--x", "1e18", "--y", "1e4"]),
        # The deepest window at r = 2, just below 2^63: about 2.1 million cofactors m,
        # each giving the short interval of p from two exact square roots.
        ("interval-abelian-k2-deep",
         ["interval", "--rule", "abelian", "--k", "2", "--x", "9223372036854765807",
          "--y", "1e4", "--B", "1e6"]),
        # The same window at r = 3: the cofactors m run to 32,766, with exact cube roots.
        ("interval-powerdiv-r3-k2-deep",
         ["interval", "--rule", "powerdiv-r:3", "--k", "2", "--x", "9223372036854765807",
          "--y", "1e4", "--B", "1e6"]),
        # The benchmark's seed-0 deep-top op, ending at 1e16: about 215,000 cofactors m
        # walked for 23 that hold a candidate p.
        ("interval-semisimple-k4-deep-top",
         ["interval", "--rule", "semisimple", "--k", "4", "--x", "9999999999903154",
          "--y", "96846", "--B", "1e6"]),
        # A wide window whose large primes reach the cofactor side: a p above the cut
        # (the 2^16 floor here) with p^2 | n is found from its cofactor m = n / p^2.
        ("interval-abelian-k1-x1e12-y1e8",
         ["interval", "--rule", "abelian", "--k", "1", "--x", "1e12", "--y", "1e8",
          "--B", "1e6"]),
        ("interval-abelian-k2-x1e12-y1e8",
         ["interval", "--rule", "abelian", "--k", "2", "--x", "1e12", "--y", "1e8",
          "--B", "1e6"]),
        # r = 3: the kernel walks the prime cubes alone.
        ("interval-powerdiv-r3-k2",
         ["interval", "--rule", "powerdiv-r:3", "--k", "2", "--x", "1e12", "--y", "1e6",
          "--B", "1e6"]),
        ("table-plane-k2",
         ["table", "--rule", "plane", "--k", "2", "--x", "1e8,1e9", "--y", "1e3,1e4",
          "--B", "1e6"]),
        # An empty grid: the header alone.
        ("table-abelian-k1-empty", ["table", "--rule", "abelian", "--k", "1"]),
        ("enumerate-rfull-r3", ["enumerate-rfull", "--r", "3", "--limit", "1e5"]),
        ("verify-sequences", ["verify", "--suite", "sequences"]),
        ("verify-sequences-json", ["verify", "--suite", "sequences", "--format", "json"]),
        ("verify-all", ["verify", "--suite", "all"]),
    ]
    return calls


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


CALLS = _calls()


@pytest.mark.parametrize("name,argv", CALLS, ids=[name for name, _ in CALLS])
def test_golden_stdout(name, argv):
    exits = json.loads((GOLDEN / "exits.json").read_text())
    code, out = _run(argv)
    assert code == exits[name]
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def capture(names: list[str]) -> None:
    """Write the golden file and exit code of each named call, or of every call."""
    argvs = dict(CALLS)
    unknown = sorted(set(names) - argvs.keys())
    if unknown:
        raise SystemExit(f"unknown calls: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    exits_path = GOLDEN / "exits.json"
    exits = json.loads(exits_path.read_text()) if names else {}
    for name in names or argvs:
        exits[name], out = _run(argvs[name])
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
    exits = {name: exits[name] for name in argvs if name in exits}
    exits_path.write_text(json.dumps(exits, indent=1) + "\n")


if __name__ == "__main__":
    capture(sys.argv[1:])
