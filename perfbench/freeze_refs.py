"""Recompute refs.json, the frozen outputs the benchmark checks against.

Run from the repository root as ``python3 perfbench/freeze_refs.py``; it
takes about three minutes.  The committed refs.json was written by this
script at the commit that introduced the benchmark.  Re-freezing is a
correctness decision: do it only when an output is meant to change, and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import DENSITY_BOUND, DENSITY_KS, FAMILIES, REFS_PATH, make_ops

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pimshort import build_rule, count_value, local_density  # noqa: E402
from pimshort.verify import run_suite  # noqa: E402


def main() -> None:
    density = {}
    for family in FAMILIES:
        rule = build_rule(family)
        for k in DENSITY_KS:
            res = local_density(rule, k, DENSITY_BOUND)
            density[f"{family}/{k}"] = {
                "density": res.density,
                "partial_sum": res.partial_sum,
                "tail_estimate": res.tail_estimate,
            }
    windows = [
        count_value(build_rule(op["rule"]), op["k"], op["x"], op["y"])
        for op in make_ops("windows", 0)
    ]
    names = [check.name for check in run_suite("all", 0)]
    with open(REFS_PATH, "w") as fh:
        json.dump({"density": density, "windows_seed0": windows, "verify_names": names},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
