"""Seeded inputs and output checks for the three benchmark workloads.

Every workload is a fixed *composition* of operations whose parameters the
seed draws from narrow ranges, so that two seeds ask for nearly the same
amount of work and the run-to-run spread of the timings measures the
program, not the draw.

* ``density`` -- one ``local_density(rule, k, 10**9)`` per built-in family
  (five at r = 2 and ``powerdiv-r:3``); the seed shuffles the families and
  deals them a permutation of k = 1..6 in which k = 4 goes to one of the two
  heaviest pairs, so every op is one of 36 fixed (rule, k) pairs whose
  results are frozen in ``refs.json``.
* ``windows`` -- ``count_value`` over four *deep* windows (x near 1e14,
  1e15 and 1e16, y 1e4..1e5) and four *wide* windows (x 1e11..1.1e13,
  y 1.2e7..3e7, so two or four 8e6-offset chunks).  The first op is always
  the deepest window, x + y = 1e16, so the prime table is built once, by
  that op, whatever the seed; the other seven follow in seeded order.  Four
  ops ask for k = 1.
* ``verify-all`` -- one op, ``run_suite("all", seed, workers=1)``.

The checks hold for any seed and never touch the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

WORKLOADS = ("density", "windows", "verify-all")

FAMILIES = ("abelian", "plane", "semisimple", "expdiv", "unitary-expdiv", "powerdiv-r:3")
DENSITY_BOUND = 10**9
DENSITY_KS = (1, 2, 3, 4, 5, 6)
# The two heaviest pairs: their series evaluates 1/psi(b) at 14,535 and
# 17,939 head terms (those with f(b) = 4); no other pair needs more than
# 7,812.  Every density pass holds exactly one of them, so the slowest op,
# op_tail_ref_s, is of the same kind whatever the seed.
DENSITY_HEAVY_K = 4
DENSITY_HEAVY_RULES = ("expdiv", "unitary-expdiv")

# Written out, not taken from pimshort.bounds, so the k = 1 check does not
# lean on the code it checks: zeta(2) = pi^2/6 and Apery's constant.
ZETA = {2: math.pi**2 / 6, 3: 1.2020569031595942}

# (slot, x range, y range).  "deep-top" ends exactly at 1e16; its x is
# 1e16 - y.  Ranges are narrow so each slot costs about the same per seed.
WINDOW_SLOTS = (
    ("deep-top", None, (50_000, 100_000)),
    ("deep-16", (9_500_000_000_000_000, 9_900_000_000_000_000), (10_000, 30_000)),
    ("deep-15", (1_000_000_000_000_000, 1_050_000_000_000_000), (30_000, 60_000)),
    ("deep-14", (100_000_000_000_000, 110_000_000_000_000), (60_000, 100_000)),
    ("wide-11", (100_000_000_000, 110_000_000_000), (25_000_000, 30_000_000)),
    ("wide-12a", (1_000_000_000_000, 1_100_000_000_000), (12_000_000, 16_000_000)),
    ("wide-12b", (1_000_000_000_000, 1_100_000_000_000), (25_000_000, 30_000_000)),
    ("wide-13", (10_000_000_000_000, 11_000_000_000_000), (12_000_000, 16_000_000)),
)
WINDOW_TOP = 10**16
WINDOW_OTHER_KS = (2, 3, 4)

# Verdicts of run_suite("all") that are expected to FAIL: acceptance
# criterion 9, whose expectation is wrong (see ROADMAP.md).  They are
# expected to stay FAIL; a PASS there is a changed verdict too.
KNOWN_FAILS = ("weighted-growth-band-kappa-0.0", "weighted-growth-band-kappa-0.5")

# A pass's length in seconds at the reference speed of calib.py, as measured
# at the commit that defined the benchmark.  A run makes
# round(--seconds / NOMINAL_PASS_S) passes, at least one, so every run of a
# workload does the same work whatever the program's or the machine's speed.
NOMINAL_PASS_S = {"density": 10.0, "windows": 7.0, "verify-all": 30.0}

DENSITY_REL_TOL = 1e-12
K1_TOL = 1e-9


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list for one pass of `workload`; equal seeds give equal lists."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "density":
        families = list(FAMILIES)
        ks = list(DENSITY_KS)
        rng.shuffle(families)
        while True:
            rng.shuffle(ks)
            if families[ks.index(DENSITY_HEAVY_K)] in DENSITY_HEAVY_RULES:
                break
        return [{"rule": f, "k": k, "bound": DENSITY_BOUND} for f, k in zip(families, ks)]
    if workload == "windows":
        k1_slots = set(rng.sample(range(len(WINDOW_SLOTS)), len(WINDOW_SLOTS) // 2))
        ops = []
        for i, (slot, xr, yr) in enumerate(WINDOW_SLOTS):
            y = rng.randint(*yr)
            x = WINDOW_TOP - y if xr is None else rng.randint(*xr)
            k = 1 if i in k1_slots else rng.choice(WINDOW_OTHER_KS)
            ops.append({"slot": slot, "rule": rng.choice(FAMILIES), "k": k, "x": x, "y": y})
        rest = ops[1:]
        rng.shuffle(rest)
        return ops[:1] + rest
    if workload == "verify-all":
        return [{"suite": "all", "seed": seed}]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def rule_threshold(rule: str) -> int:
    return 3 if rule == "powerdiv-r:3" else 2


def check_density(op: dict, out: dict, refs: dict) -> list[str]:
    """Problems with one density output (empty when it is correct)."""
    key = f"{op['rule']}/{op['k']}"
    ref = refs["density"].get(key)
    if ref is None:
        return [f"{key}: no frozen reference"]
    problems = []
    for field in ("density", "partial_sum", "tail_estimate"):
        if not math.isclose(out[field], ref[field], rel_tol=DENSITY_REL_TOL, abs_tol=0.0):
            problems.append(f"{key}: {field} {out[field]!r} != frozen {ref[field]!r}")
    if op["k"] == 1:
        expect = 1.0 / ZETA[rule_threshold(op["rule"])]
        if abs(out["density"] - expect) > K1_TOL:
            problems.append(f"{key}: k = 1 density {out['density']!r} != 1/zeta(r) {expect!r}")
    return problems


def check_window(op: dict, out: dict, r_free: int | None, frozen: int | None) -> list[str]:
    """Problems with one window count.

    `r_free` is count_r_free(x, y, r), required for k = 1 ops; `frozen` is
    the seed-commit count when the op belongs to the default seed.
    """
    label = f"{op['rule']} k={op['k']} ({op['x']}, +{op['y']}]"
    problems = []
    if op["k"] == 1 and out["count"] != r_free:
        problems.append(f"{label}: count {out['count']} != r-free count {r_free}")
    if frozen is not None and out["count"] != frozen:
        problems.append(f"{label}: count {out['count']} != frozen {frozen}")
    return problems


def verify_mismatches(verdicts: list, refs: dict) -> tuple[int, list[str]]:
    """(checks compared, changed verdicts) for one run_suite("all") output.

    Every frozen check name must appear with PASS, except KNOWN_FAILS with
    FAIL; a missing, extra or flipped check counts once.
    """
    observed = {name: bool(passed) for name, passed in verdicts}
    expected = {name: name not in KNOWN_FAILS for name in refs["verify_names"]}
    problems = []
    for name in sorted(expected.keys() | observed.keys()):
        if name not in observed:
            problems.append(f"{name}: missing")
        elif name not in expected:
            problems.append(f"{name}: unexpected check")
        elif observed[name] != expected[name]:
            verdict = "PASS" if observed[name] else "FAIL"
            problems.append(f"{name}: {verdict}, expected {'PASS' if expected[name] else 'FAIL'}")
    return len(expected.keys() | observed.keys()), problems
