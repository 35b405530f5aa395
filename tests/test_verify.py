import random
from collections import Counter
from dataclasses import replace
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from pimshort import density, sieve, verify
from pimshort.factor import eval_rule
from pimshort.rules import build_rule, builtin_rules, load_custom_rule

from oracles import count_k_brute

# The one value_counts(abelian, 0, ORACLE_LIMIT) of the density-cross suite,
# stubbed below; the two groups that read it get it as their argument.
COUNTS = {1: 6079271, 2: 2000000}

# run_suite("all") runs every checks_* group once, in this order, with these
# keyword arguments (seed 7, workers 3); no group takes workers.
ALL_GROUPS = {
    "checks_sequences": {},
    "checks_convolution": {},
    "checks_k1_collapse": {"seed": 7},
    "checks_density_oracle": {},
    "checks_density_paths": {},
    "checks_density_extras": {},
    "checks_weighted_growth": {},
    "checks_r_free_interval": {},
    "checks_multiples_sum": {},
    "checks_desk_scale": {},
    "checks_segment_equivalence": {"seed": 7},
    "checks_bound_identities": {},
}
COUNT_READERS = ("checks_density_oracle", "checks_density_extras")


def test_run_suite_all_is_every_suite_in_order(monkeypatch):
    calls = []
    counted = []

    def stub(name):
        def checks(*args, **kwargs):
            calls.append((name, args, kwargs))
            return [verify.Check(name, True, None, None)]
        return checks

    def value_counts(rule, x, y, workers=1):
        counted.append((rule.name, x, y, workers))
        return COUNTS

    for name in vars(verify):
        if name.startswith("checks_"):
            monkeypatch.setattr(verify, name, stub(name))
    monkeypatch.setattr(verify, "value_counts", value_counts)
    checks = verify.run_suite("all", seed=7, workers=3)
    assert [c.name for c in checks] == list(ALL_GROUPS)
    assert calls == [(name, (COUNTS,) if name in COUNT_READERS else (), kwargs)
                     for name, kwargs in ALL_GROUPS.items()]
    assert counted == [("abelian", 0, verify.ORACLE_LIMIT, 3)]


# Two prime-independent breakages of h, and the 25 observed counts that the
# per-integer checks_convolution (every n <= 10^4 factorized and convolved on
# its own) gave under each: grouping n by exponent shape must count each
# failing n once.
real_weights = verify.rfull_weights_up_to


def plus_one_at_cubes(rule, fact, k_max):
    # h(2) gains 1 wherever some exponent is 3.
    out = dict(real_weights(rule, fact, k_max))
    if any(a == 3 for _, a in fact):
        out[2] = out.get(2, 0) + 1
    return {k: c for k, c in out.items() if c}


def quadrupled_unit_on_squarefree(rule, fact, k_max):
    # Every weight times 4, and h(1) = 1 at every squarefree n.
    out = {k: 4 * c for k, c in real_weights(rule, fact, k_max).items()}
    if all(a == 1 for _, a in fact):
        out[1] = 1
    return out


BROKEN_COUNTS = {
    plus_one_at_cubes: [891, 0, 0, 0, 1342] * 5,
    quadrupled_unit_on_squarefree: [
        6082, 25, 6082, 15, 11998, 6082, 25, 6082, 15, 11290, 6082, 25, 6082, 15, 11938,
        6082, 27, 6082, 15, 12231, 6082, 25, 6082, 15, 12235],
}


def test_convolution_counts_every_n_of_a_shape(monkeypatch):
    for broken, expected in BROKEN_COUNTS.items():
        monkeypatch.setattr(verify, "rfull_weights_up_to", broken)
        checks = verify.checks_convolution()
        assert [c.observed for c in checks] == expected, broken.__name__
        assert [c.passed for c in checks] == [v == 0 for v in expected]


def test_convolution_weighs_each_shape_not_each_n(monkeypatch):
    # 83 exponent shapes occur below 10^4: one weight call per shape and r-free
    # divisor vector, not one per n and divisor (50,080).
    calls = []

    def counted(rule, fact, k_max):
        calls.append(fact)
        return real_weights(rule, fact, k_max)

    monkeypatch.setattr(verify, "rfull_weights_up_to", counted)
    checks = verify.checks_convolution()
    assert all(c.passed for c in checks) and len(checks) == 25
    assert len(calls) <= 4000


def test_convolution_asks_for_each_weight_once(monkeypatch):
    # h reads the rule and the sorted exponents alone: one call per (rule, shape, k_max),
    # 5 rules times the 83 shapes, where the per-divisor calls repeated them 3,585 times.
    calls = Counter()

    def counted(rule, fact, k_max):
        calls[rule, tuple(sorted(a for _, a in fact)), k_max] += 1
        return real_weights(rule, fact, k_max)

    monkeypatch.setattr(verify, "rfull_weights_up_to", counted)
    assert all(c.passed for c in verify.checks_convolution())
    assert set(calls.values()) == {1}
    assert len(calls) == 5 * 83


def test_fold_tells_apart_rules_that_differ_only_in_values():
    # Two rules with one name and r but other g tables fold one code Counter apart, in
    # either order: f at a code is remembered per whole rule, never per name.  Codes
    # 3, 5, 7 and 15 are prime(2), prime(3), prime(4) and prime(2) prime(3).
    twins = [replace(build_rule(name), name="twin") for name in ("abelian", "expdiv")]
    assert twins[0] != twins[1] and hash(twins[0]) == hash(twins[1])
    codes = Counter({1: 5, 3: 2, 5: 1, 7: 4, 15: 3})
    want = {1: 5, 2: 2, 3: 1, 5: 4, 6: 3}, {1: 5, 2: 3, 3: 4, 4: 3}
    for order in ((0, 1), (1, 0)):
        for i in order:
            assert sieve._fold(twins[i], codes.items()) == want[i], (order, i)


# Mismatches over the 200 seed-0 windows, 5 rules and k <= 6 under each breakage below.
SWAPPED_SIGNATURE_MISMATCHES = 1598
LOST_ROW_MISMATCHES = 1990


def test_segment_check_fails_on_a_wrong_signature_or_oracle(monkeypatch):
    # One signature sieve serves all five rules, so each side must still be able
    # to fail the check: prime(2) and prime(3) swapped in the signature table
    # (every p^2 || n decodes as p^3), and an identity whose r-full table has lost
    # e = 4, so that no H_k(4) term counts the multiples of 4.
    sig = sieve._signature_rule(2)
    values = list(sig.values)
    values[2], values[3] = values[3], values[2]
    monkeypatch.setattr(sieve, "_signature_rule", lambda r: replace(sig, values=tuple(values)))
    mismatch, partition = verify.checks_segment_equivalence(seed=0)
    assert mismatch.observed == SWAPPED_SIGNATURE_MISMATCHES and not mismatch.passed
    assert partition.passed
    monkeypatch.undo()

    real_table = verify._table

    def table_losing_four(r, limit):
        facts, n, recip, pattern = real_table(r, limit)
        assert n[1] == 4
        return facts, np.delete(n, 1), np.delete(recip, 1), np.delete(pattern, 1)

    monkeypatch.setattr(verify, "_table", table_losing_four)
    mismatch, partition = verify.checks_segment_equivalence(seed=0)
    assert mismatch.observed == LOST_ROW_MISMATCHES and not mismatch.passed
    assert partition.passed


# The windows of checks_segment_equivalence, drawn as it draws them: x, then y.
_rng = random.Random(0)
SEED0_WINDOWS = [(_rng.randrange(0, 10**8), _rng.randrange(1, 10**4 + 1)) for _ in range(200)]


def test_identity_counts_equal_the_pointwise_oracle():
    # The pure-Python sieve_segment gives each squarefull n's part; f reads its
    # exponent shape alone (the squarefree n have shape ()).
    rules = builtin_rules()
    identity = verify._segment_counts(rules, SEED0_WINDOWS, range(1, 7))
    for (x, y), counts in zip(SEED0_WINDOWS, identity):
        shapes = Counter(tuple(a for _, a in part) for part in sieve.sieve_segment(x, y).values())
        shapes[()] = y - sum(shapes.values())
        for rule, got in zip(rules, counts):
            pointwise = Counter()
            for shape, c in shapes.items():
                pointwise[eval_rule(rule, tuple(enumerate(shape)))] += c
            assert got == [pointwise[k] for k in range(1, 7)], (rule.name, x, y)


HUGE_RULE = load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text())


@pytest.mark.parametrize("rule, ks", [
    (build_rule("powerdiv-r:3"), (1, 2, 3, 4, 6, 300)),
    (HUGE_RULE, (1, 100, 10**3, 10**4, 10**6, 10**12)),
], ids=["powerdiv-r3", "huge-rule"])
def test_identity_counts_against_brute(rule, ks):
    # The r = 3 table, and a rule with g(alpha) = 10^alpha: f(4096) = f(10^6) = 10^12.
    windows = [(0, 1), (1, 1), (0, 5000), (7, 1), (10**6 - 1000, 2000), (2**20 - 3, 4)]
    for (x, y), (counts,) in zip(windows, verify._segment_counts((rule,), windows, ks)):
        assert counts == [count_k_brute(rule, k, x, y) for k in ks], (x, y)


def test_float_floors_equal_int_floors():
    # floor(fl(N / e)) = N // e for integers 0 <= N < 2^53 and 1 <= e: fl(N/e) lies within
    # 2^-53 N/e < 1/e of N/e, which is at least 1/e from every integer it is not.  Seeded
    # pairs, the edges at N = 2^53 - 1, exact multiples and the integers next to them.
    rng, top = random.Random(5), 2**53 - 1
    pairs = [(top, 1), (top, top - 1), (top, top), (top - 1, top), (0, 1), (0, top)]
    pairs += [(rng.randrange(2**53), rng.randrange(1, 2**53)) for _ in range(10**4)]
    pairs += [(rng.randrange(2**53), rng.randrange(1, 2**12)) for _ in range(10**4)]
    for e in [rng.randrange(1, 2**26) for _ in range(10**4)] + [3, 7, 2**26 + 1]:
        m = e * rng.randrange(1, 2**53 // e)
        pairs += [(m - 1, e), (m, e), (m + 1, e)] if m + 1 < 2**53 else [(m - 1, e), (m, e)]
    n, e = (np.array(column, np.int64) for column in zip(*pairs))
    floors = np.floor(n.astype(np.float64) / e.astype(np.float64)).astype(np.int64)
    assert np.array_equal(floors, n // e)


def _int64_segment_counts(rules, windows, ks):
    # The identity of _segment_counts with int64 floors and sums: H_k of a signature adds,
    # over the choices of a or a - 1 at each exponent a, the sign (-1)^(count of a - 1)
    # where the product of g is k.
    top, weights = max(x + y for x, y in windows), []
    for rule in rules:
        rows = []
        for fact in verify._table(rule.r, top)[0]:
            h = Counter()
            for drop in product((0, 1), repeat=len(fact)):
                h[prod(rule.values[a - d] for (_, a), d in zip(fact, drop))] += (-1) ** sum(drop)
            rows.append([h[k] for k in ks])
        weights.append(np.array(rows, np.int64))
    for x, y in windows:
        out = []
        for rule, w in zip(rules, weights):
            _, n, _, pattern = verify._table(rule.r, x + y)
            moved = np.zeros(len(w), np.int64)
            np.add.at(moved, pattern, (x + y) // n - x // n)
            out.append((moved @ w).tolist())
        yield out


def test_segment_counts_equal_their_int64_form(monkeypatch):
    # The float64 floors of _segment_counts against int64 ones, on 50 seeded windows that
    # reach 10^9 for the five families and an r = 3 rule.
    monkeypatch.setattr(density, "_tables", {})
    rng = random.Random(3)
    windows = [(rng.randrange(0, 10**9), rng.randrange(1, 10**4 + 1)) for _ in range(50)]
    rules, ks = (*builtin_rules(), build_rule("powerdiv-r:3")), range(1, 7)
    got = list(verify._segment_counts(rules, windows, ks))
    assert got == list(_int64_segment_counts(rules, windows, ks))
