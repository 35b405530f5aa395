import random
import time

import numpy as np
import pytest

from pimshort import factor
from pimshort.density import rfull_factorizations
from pimshort.factor import (
    _inverse_at_exponent,
    eval_rule,
    factorize,
    introot,
    primes_upto,
    rfull_weights_up_to,
)
from pimshort.rules import build_rule, builtin_rules
from pimshort.sieve import count_r_free

from oracles import h_brute, trial_factorize


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498


def test_introot():
    assert introot(0, 3) == 0
    assert introot(63, 2) == 7
    assert introot(64, 2) == 8
    assert introot(10**12, 3) == 10**4
    assert introot(10**12 - 1, 3) == 10**4 - 1
    assert introot(100, 9 * 10**18) == 1
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


def test_factorize_against_trial_division():
    rng = random.Random(20240917)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        assert factorize(n) == trial_factorize(n)


def test_factorize_grows_the_prime_table_only_as_the_cofactor_needs(monkeypatch):
    monkeypatch.setattr(factor, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor, "_prime_list", [])
    monkeypatch.setattr(factor, "_prime_limit", 1)
    assert factorize(2**52) == trial_factorize(2**52)
    assert factor._prime_limit <= 2**17
    rows = rfull_factorizations(10, 2**63 - 1)  # every prime factor is at most 79
    assert len(rows) == 1625
    assert all(fact == trial_factorize(n) for n, fact in rows)
    assert factor._prime_limit <= 2**17
    # 65537 and 131071 lie past the first table; rho splits them off and
    # the table keeps its first size.
    n = 65537 * 131071 * 1000003
    assert factorize(n) == trial_factorize(n)
    assert factor._prime_limit == 2**16


def test_factorize_large_cofactors_without_growing_the_table(monkeypatch):
    # Each n has no prime factor below 2^16 and a cofactor far past the
    # table, which trial division alone would have to grow to isqrt(n).
    monkeypatch.setattr(factor, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor, "_prime_list", [])
    monkeypatch.setattr(factor, "_prime_limit", 1)
    cases = {
        2**61 - 1: ((2**61 - 1, 1),),
        1_000_000_007 * 998_244_353: ((998_244_353, 1), (1_000_000_007, 1)),
        (2**31 - 1) ** 2: ((2**31 - 1, 2),),
        2**62 - 57: ((2**62 - 57, 1),),
        3 * 5**7 * 3_037_000_493: ((3, 1), (5, 7), (3_037_000_493, 1)),
    }
    start = time.perf_counter()
    for n, expected in cases.items():
        assert factorize(n) == expected, n
    assert time.perf_counter() - start < 1.0
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
    for r in (2, 3, 4):
        for alpha in range(1, 4 * r):
            expected = 1 if alpha % r == 0 else (-1 if alpha % r == 1 else 0)
            assert _inverse_at_exponent(alpha, r) == expected
    assert _inverse_at_exponent(0, 3) == 1


def test_r_free_inverse_inverts_r_free_indicator():
    # Dirichlet identity at prime powers: sum over the exponent split is
    # [alpha == 0], for every r.
    for r in (2, 3):
        for alpha in range(1, 12):
            total = sum(
                (1 if j < r else 0) * _inverse_at_exponent(alpha - j, r)
                for j in range(alpha + 1)
            )
            assert total == 0


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
