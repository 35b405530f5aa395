"""Constructed points n = m p^r + d, d in {-1, 0, 1}, with p a prime near root_r(top / m).

At r = 2 with tops 2^33 to 2^62, and at r = 3 with tops 2^49 to 2^62, most such p lie
above the window's cut, max((x+y)^(1/(r+1)), min((x+y)^(1/r), 2^16)): the kernel finds
p^r | n only on its cofactor side, walking m from 1 and taking each end of p's interval
as an exact r-th root.  Below those tops the cut is (x+y)^(1/r), and no prime lies above
it.  Each one-integer window (n - 1, n] must count f(n) once, with f from
tests/oracles.rho_factorize: by count_value, by value_counts, and inside a seeded list of
windows counted by one _count_windows call, so that the list's packing is crossed too.
The seeds and point counts are fixed; a failure prints its point.
"""

import random
from itertools import takewhile

import pytest

from pimshort.factor import eval_rule, introot
from pimshort.rules import build_rule
from pimshort.sieve import _count_windows, count_value, value_counts

from oracles import _small_primes, rho_factorize

SEEDS = (0, 1, 2, 3)
POINTS = 40  # per seed, alternating between the two rules
RULES = (("abelian", 33), ("powerdiv-r:3", 49))  # each rule's least top exponent; the most is 62
PROBE_M = (1, 2, 3, 6, 12, 30, 97)  # m = 1 is the walk's first cofactor


def _next_prime(q: int) -> int:
    # The least prime >= q, for 2 <= q < 2^32, by trial division with the oracle's primes.
    while not all(q % p for p in takewhile(lambda p: p * p <= q, _small_primes())):
        q += 1
    return q


def _points(seed: int) -> list[tuple[str, int, int, int, int]]:
    # (rule name, m, p, d, n) for each point of one seed: each rule takes every probe m once,
    # then m uniform in 1..200.
    rng, out = random.Random(seed), []
    for i in range(POINTS):
        name, low = RULES[i % 2]
        r = build_rule(name).r
        m = PROBE_M[i // 2] if i // 2 < len(PROBE_M) else rng.randint(1, 200)
        top = 1 << rng.randint(low, 62)
        p = _next_prime(introot(top // m, r) - rng.randint(0, 60))
        d = rng.choice((-1, 0, 1))
        out.append((name, m, p, d, m * p**r + d))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_constructed_points_count_once(seed):
    rng = random.Random(-1 - seed)
    points = _points(seed)
    above = 0
    for name, m, p, d, n in points:
        rule = build_rule(name)
        f = eval_rule(rule, rho_factorize(n))
        point = (name, m, p, d, n, f)
        above += d == 0 and p > max(introot(n, rule.r + 1), 1 << 16)
        assert count_value(rule, f, n - 1, 1) == 1, point
        assert value_counts(rule, n - 1, 1) == {f: 1}, point
        # The point among three short windows below 2^40, at a seeded place in the list.
        windows = [(rng.randrange(1 << 40), rng.randint(1, 300)) for _ in range(3)]
        at = rng.randint(0, 3)
        windows.insert(at, (n - 1, 1))
        xs, ys = (list(v) for v in zip(*windows))
        assert _count_windows(rule, f, xs, ys)[at] == 1, (point, windows)
    # The draws reach the cofactor side: p^r | n with p above every cut.
    assert above >= 5, above
