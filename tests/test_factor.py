import random
import time
from collections import Counter
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest

from pimshort import factor
from pimshort.density import rfull_factorizations
from pimshort.factor import (
    MAX_N,
    _local_weights,
    eval_rule,
    factorize,
    introot,
    primes_upto,
    rfull_weights_up_to,
)
from pimshort.rules import build_rule, builtin_rules, load_custom_rule
from pimshort.sieve import count_r_free

from oracles import h_brute, mu_r_inverse_brute, rfull_flags, rho_factorize, trial_factorize

# The five families, three powerdiv thresholds and a custom rule with g far above 2^alpha.
LOCAL_WEIGHT_RULES = builtin_rules() + tuple(
    build_rule(f"powerdiv-r:{r}") for r in (3, 4, 64)) + (
    load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text()),)


def test_primes_upto():
    assert primes_upto(1).tolist() == []
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498
    # A read-only int64 view of the one shared table, not a copy.
    view = primes_upto(1000)
    assert view.dtype == np.int64 and np.shares_memory(view, factor._prime_array)
    with pytest.raises(ValueError):
        view[0] = 4


def test_introot():
    assert introot(0, 3) == 0
    assert introot(63, 2) == 7
    assert introot(64, 2) == 8
    assert introot(10**12, 3) == 10**4
    assert introot(10**12 - 1, 3) == 10**4 - 1
    assert introot(100, 9 * 10**18) == 1
    # Past 2^1024, where a float estimate cannot be formed.
    x = introot(2**2000, 3)
    assert x**3 <= 2**2000 < (x + 1) ** 3
    assert introot(10**400, 2) == isqrt(10**400)
    with pytest.raises(ValueError):
        introot(-1, 2)


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert factorize(8633) == ((89, 1), (97, 1))


def test_factorize_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


REFUSED = "neither a prime below 2\\*\\*32 nor a prime's square or cube"


def _covered(fact):
    # factorize's contract, read off an exact factorization: the part of n with no prime
    # factor up to 2^16 is below 2^32 (1 or a prime), or a prime's square or cube.
    big = [(p, e) for p, e in fact if p > 1 << 16]
    return prod(p**e for p, e in big) < 1 << 32 or (len(big) == 1 and big[0][1] in (2, 3))


def test_factorize_reads_a_square_or_cube_cofactor_and_a_prime_below_2_32():
    cases = {
        3_037_000_493**2: ((3_037_000_493, 2),),  # the largest prime square below 2^63
        2_097_143**3: ((2_097_143, 3),),  # the largest prime cube below 2^63
        4 * 1_518_500_213**2: ((2, 2), (1_518_500_213, 2)),
        3 * 5**7 * 3_037_000_493: ((3, 1), (5, 7), (3_037_000_493, 1)),
        4_294_967_291: ((4_294_967_291, 1),),  # the largest prime below 2^32
    }
    for n, expected in cases.items():
        assert n < MAX_N and rho_factorize(n) == expected, n
        assert factorize(n) == expected, n
    # Each prime is the largest of its kind: no prime lies between it and its top.
    for p, top in ((3_037_000_493, isqrt(MAX_N - 1)), (2_097_143, introot(MAX_N - 1, 3)),
                   (1_518_500_213, isqrt((MAX_N - 1) // 4)), (4_294_967_291, 2**32 - 1)):
        assert all(rho_factorize(q) != ((q, 1),) for q in range(p + 1, top + 1)), p


def test_factorize_refuses_any_other_cofactor_past_2_32():
    for n in (2**61 - 1, 2**62 - 57, 1_000_000_007 * 998_244_353, 65537 * 131071 * 1000003):
        assert not _covered(rho_factorize(n)), n
        with pytest.raises(ValueError, match=REFUSED):
            factorize(n)


def test_factorize_squarefull_n_with_a_prime_past_2_16():
    # n = m p^e: m squarefull up to 10^6, e = 2 or 3 and p a prime past 2^16, so trial
    # division leaves the cofactor p^e.  Each n is squarefull and below 2^63.
    rng = random.Random(56)
    squarefull = np.flatnonzero(rfull_flags(10**6, 2)).tolist()
    small = {e: [m for m in squarefull if m * 65537**e < MAX_N] for e in (2, 3)}
    for _ in range(200):
        e = rng.choice((2, 3))
        m = rng.choice(small[e])
        p = rng.randrange(65537, introot((MAX_N - 1) // m, e) + 1)
        while rho_factorize(p) != ((p, 1),):
            p -= 1
        assert factorize(m * p**e) == trial_factorize(m) + ((p, e),), (m, p, e)


@pytest.mark.parametrize("r, rows", [(6, 21_917), (10, 1_625), (20, 125)])
def test_rfull_rows_to_2_63_match_the_oracle(r, rows):
    facts = rfull_factorizations(r, MAX_N - 1)
    assert len(facts) == rows
    assert all(fact == rho_factorize(n) for n, fact in facts)


def test_factorize_against_trial_division():
    rng = random.Random(20240917)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        assert factorize(n) == trial_factorize(n)


def test_factorize_grows_the_prime_table_only_as_the_cofactor_needs(monkeypatch):
    monkeypatch.setattr(factor, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor, "_prime_limit", 1)
    factor._trial_primes.cache_clear()
    assert factorize(2**52) == trial_factorize(2**52)
    assert factor._prime_limit <= 2**17
    rows = rfull_factorizations(10, 2**63 - 1)  # every prime factor is at most 79
    assert len(rows) == 1625
    assert all(fact == trial_factorize(n) for n, fact in rows)
    assert factor._prime_limit <= 2**17
    # 65537 and 131071 lie past the first table, and the cofactor 65537 131071 1000003
    # is refused; the table keeps its first size.
    n = 65537 * 131071 * 1000003
    assert rho_factorize(n) == trial_factorize(n)
    with pytest.raises(ValueError, match=REFUSED):
        factorize(n)
    assert factor._prime_limit == 2**16


def test_factorize_large_cofactors_without_growing_the_table(monkeypatch):
    # Each n has a cofactor past the table, which trial division alone would have
    # to grow to isqrt(n).  A square or a prime below 2^32 is read; the rest, neither,
    # are refused.
    monkeypatch.setattr(factor, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor, "_prime_limit", 1)
    factor._trial_primes.cache_clear()
    cases = {
        2**61 - 1: ((2**61 - 1, 1),),
        1_000_000_007 * 998_244_353: ((998_244_353, 1), (1_000_000_007, 1)),
        (2**31 - 1) ** 2: ((2**31 - 1, 2),),
        2**62 - 57: ((2**62 - 57, 1),),
        3 * 5**7 * 3_037_000_493: ((3, 1), (5, 7), (3_037_000_493, 1)),
    }
    start = time.perf_counter()
    for n, expected in cases.items():
        assert rho_factorize(n) == expected, n
        if _covered(expected):
            assert factorize(n) == expected, n
        else:
            with pytest.raises(ValueError, match=REFUSED):
                factorize(n)
    assert time.perf_counter() - start < 1.0
    assert sum(map(_covered, cases.values())) == 2
    assert factor._prime_limit <= 2**17


def test_warm_factorize_builds_no_prime_list(monkeypatch):
    # The trial primes up to 2^16 are listed once, not on every call, and
    # the shared table keeps its first size.
    monkeypatch.setattr(factor, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor, "_prime_limit", 1)
    factor._trial_primes.cache_clear()
    with pytest.raises(ValueError, match=REFUSED):
        factorize(2**62 - 57)
    calls = []
    monkeypatch.setattr(factor, "primes_upto", lambda limit: calls.append(limit) or [])
    rng = random.Random(65537)
    for n in [rng.randrange(1, 10**12) for _ in range(1000)]:
        fact = rho_factorize(n)
        if _covered(fact):
            assert factorize(n) == fact and prod(p**e for p, e in fact) == n
        else:
            with pytest.raises(ValueError, match=REFUSED):
                factorize(n)
    assert calls == []
    assert factor._prime_limit <= 2**17


def test_eval_rule():
    abelian = build_rule("abelian")
    assert eval_rule(abelian, factorize(72)) == 6  # P(3) * P(2)
    assert eval_rule(abelian, ()) == 1
    assert eval_rule(abelian, factorize(2 * 3 * 5 * 7)) == 1
    with pytest.raises(ValueError):
        eval_rule(abelian, ((2, abelian.alpha_max + 1),))


def test_r_free_and_r_full():
    assert count_r_free(11, 1, 2) == 0  # 12
    assert all(a >= 2 for _, a in factorize(72))
    assert count_r_free(0, 1, 2) == 1  # 1
    assert all(a >= 2 for _, a in factorize(1))  # vacuously: 1 is r-full
    assert count_r_free(29, 1, 2) == 1  # 30
    assert not all(a >= 2 for _, a in factorize(30))
    with pytest.raises(ValueError):
        count_r_free(0, 1, 1)


def test_r_free_inverse_case_table():
    # The r-free-inverse at p^alpha is 1 where r | alpha, -1 where alpha = 1
    # mod r, else 0.  Row alpha of _local_weights sums it over beta <= alpha,
    # so consecutive row sums difference it back out.
    for rule in (build_rule("abelian"), build_rule("powerdiv-r:3"), build_rule("powerdiv-r:4")):
        r = rule.r
        sums = [sum(c for _, c in row) for row in _local_weights(rule, r)]
        for alpha in range(1, 4 * r):
            expected = 1 if alpha % r == 0 else (-1 if alpha % r == 1 else 0)
            assert mu_r_inverse_brute(((2, alpha),), r) == expected
            assert sums[alpha] - sums[alpha - 1] == expected, (rule.name, alpha)
        assert sums[0] == mu_r_inverse_brute((), r) == 1


def test_r_free_inverse_inverts_r_free_indicator():
    # Dirichlet identity at prime powers: sum over the exponent split is
    # [alpha == 0], for every r.  f = 1 exactly on r-free n, so h_1 is that
    # convolution: the value 1 carries [alpha == 0] in every row.
    for r in (2, 3, 4, 64):
        for alpha in range(0, 3 * r):
            total = sum(mu_r_inverse_brute(((2, alpha - j),) if alpha > j else (), r)
                        for j in range(min(r, alpha + 1)))
            assert total == (alpha == 0)
    for rule in LOCAL_WEIGHT_RULES:
        for alpha, row in enumerate(_local_weights(rule, rule.r)):
            assert dict(row).get(1, 0) == (alpha == 0), (rule.name, alpha)


@pytest.mark.parametrize("rule, period", [
    *(pytest.param(rule, rule.r, id=rule.name) for rule in LOCAL_WEIGHT_RULES),
    *(pytest.param(rule, rule.alpha_max + 1, id=f"{rule.name}-mu") for rule in LOCAL_WEIGHT_RULES),
])
def test_local_weights_match_the_brute_exponent_split(rule, period):
    # Row alpha is sum over beta <= alpha of the period-free-inverse at p^beta
    # times the value g(alpha - beta), grouped by value, zero sums dropped.
    # Period r gives h's rows; past every exponent the inverse is mu, and the
    # rows are H_k's X^g(alpha) - X^g(alpha-1), empty for 0 < alpha < r.
    rows = _local_weights(rule, period, top=rule.alpha_max)
    assert isinstance(rows, tuple) and len(rows) == rule.alpha_max + 1
    for alpha, row in enumerate(rows):
        brute = Counter()
        for beta in range(alpha + 1):
            mu = mu_r_inverse_brute(((2, beta),) if beta else (), period)
            brute[rule.values[alpha - beta]] += mu
        assert isinstance(row, tuple) and all(isinstance(pair, tuple) for pair in row)
        assert len(dict(row)) == len(row) and all(c for _, c in row)
        assert dict(row) == {v: c for v, c in brute.items() if c}, (rule.name, alpha)
    if period > rule.alpha_max:
        assert rows[0] == ((1, 1),) and not any(rows[1:rule.r])
    assert _local_weights(rule, period, top=rule.alpha_max) is rows  # built once per key


def h_at(rule, k, fact):
    return rfull_weights_up_to(rule, fact, k).get(k, 0)


def test_rfull_weight_examples():
    abelian = build_rule("abelian")
    assert h_at(abelian, 2, factorize(4)) == 1
    assert h_at(abelian, 2, ()) == 0
    assert h_at(abelian, 1, factorize(6)) == 0
    assert h_at(abelian, 1, ()) == 1


def test_rfull_weight_k_validation():
    # k_max < 1 asks for no weights at all.
    abelian = build_rule("abelian")
    assert rfull_weights_up_to(abelian, (), 0) == {}
    assert rfull_weights_up_to(abelian, factorize(4), -1) == {}
    # Every exponent is checked against the rule table, wherever it stands in n.
    for fact in (((3, 65),), ((2, 65), (3, 1)), ((2, 1), (3, 65))):
        with pytest.raises(ValueError, match="exceeds the rule table"):
            rfull_weights_up_to(abelian, fact, 10)


@pytest.mark.parametrize("rule", builtin_rules(), ids=lambda r: r.name)
def test_rfull_weight_matches_brute_divisor_sum(rule):
    for n in range(1, 2000):
        fact = factorize(n)
        for k in range(1, 7):
            assert h_at(rule, k, fact) == h_brute(rule, k, fact, rule.r), (n, k)


def test_rfull_weight_brute_on_powerdiv3():
    rule = build_rule("powerdiv-r:3")
    for n in range(1, 1500):
        fact = factorize(n)
        for k in range(1, 5):
            assert h_at(rule, k, fact) == h_brute(rule, k, fact, 3), (n, k)


def test_rfull_weights_support_and_bound_small():
    # Off r-full numbers all weights vanish; on them |h| <= tau(n).
    for rule in builtin_rules():
        for n in range(2, 1000):
            fact = factorize(n)
            weights = rfull_weights_up_to(rule, fact, 10)
            if not all(a >= rule.r for _, a in fact):
                assert weights == {}
            else:
                tau = 1
                for _, a in fact:
                    tau *= a + 1
                assert all(abs(h) <= tau for h in weights.values())


def test_rfull_weight_unit_case():
    # k = 1 gives the convolution identity: 1 at n = 1, 0 elsewhere.
    for rule in builtin_rules():
        assert rfull_weights_up_to(rule, (), 1) == {1: 1}
        for n in range(2, 500):
            assert h_at(rule, 1, factorize(n)) == 0


def test_rfull_weight_prime_power_vanishing():
    powerdiv4 = build_rule("powerdiv-r:4")
    for rule in builtin_rules() + (powerdiv4,):
        for p in primes_upto(50):
            for alpha in range(1, rule.r):
                assert rfull_weights_up_to(rule, ((p, alpha),), 10) == {}
