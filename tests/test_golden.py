"""Byte-for-byte replay of a fixed set of CLI calls against golden stdout.

For each call below, tests/golden/<name>.txt holds the expected stdout and
tests/golden/exits.json the expected exit code.  The calls run in process,
so the whole replay takes a few seconds.  Refactors of the series
or the counting layers must leave every file unchanged.

To capture the files afresh (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
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
    calls += [
        ("density-abelian-k2-csv",
         ["density", "--rule", "abelian", "--k", "2", "--B", "1e6", "--format", "csv"]),
        ("interval-abelian-k2",
         ["interval", "--rule", "abelian", "--k", "2", "--x", "1e9", "--y", "1e4", "--B", "1e6"]),
        # g(alpha) = 10^alpha exceeds 2^alpha, and f(2^30) = 10^30 lies in the window.
        ("interval-huge-rule-k100",
         ["interval", "--rule", str(GOLDEN / "huge-rule.json"), "--k", "100",
          "--x", "1073736000", "--y", "1e4", "--B", "1e6"]),
        ("table-plane-k2",
         ["table", "--rule", "plane", "--k", "2", "--x", "1e8,1e9", "--y", "1e3,1e4",
          "--B", "1e6"]),
        ("enumerate-rfull-r3", ["enumerate-rfull", "--r", "3", "--limit", "1e5"]),
        ("verify-sequences", ["verify", "--suite", "sequences"]),
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


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, argv in CALLS:
        exits[name], out = _run(argv)
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=1) + "\n")


if __name__ == "__main__":
    capture()
