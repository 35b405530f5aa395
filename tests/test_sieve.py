import random
from types import SimpleNamespace

import numpy as np
import pytest

from pimshort.bounds import zeta
from pimshort.density import local_density
from pimshort.factor import factorize, primes_upto
from pimshort.rules import ALPHA_MAX, build_rule, builtin_rules, load_custom_rule
from pimshort.sieve import (
    admissible_window,
    count_r_free,
    count_value,
    interval_report,
    rfull_multiples_sum,
    sieve_segment,
    value_counts,
)

from oracles import (
    count_k_brute,
    count_r_free_brute,
    multiples_sum_brute,
    trial_factorize,
    value_counts_brute,
)


def test_segment_small_matches_factorize():
    seg = sieve_segment(100, 10)
    assert (seg.base, seg.length) == (100, 10)
    for off in range(10):
        assert seg.factorization_at(off) == factorize(101 + off)
    seg = sieve_segment(0, 10)
    for off in range(10):
        assert seg.factorization_at(off) == factorize(1 + off)


def test_segment_cofactors_are_prime_or_one():
    seg = sieve_segment(10**6, 200)
    limit = 10**6 + 200
    small = set(primes_upto(1001))
    for off in range(200):
        c = seg.cofactors[off]
        assert c == 1 or (c * c > limit and trial_factorize(c) == ((c, 1),))


def test_segment_recomposition_high_base():
    seg = sieve_segment(10**10, 1000)
    for off in range(1000):
        n = seg.base + 1 + off
        prod = seg.cofactors[off]
        for p, e in seg.factors[off]:
            prod *= p**e
        assert prod == n


def test_segment_validation():
    with pytest.raises(ValueError):
        sieve_segment(-1, 10)
    with pytest.raises(ValueError):
        sieve_segment(0, 0)
    with pytest.raises(ValueError):
        sieve_segment(2**63 - 5, 10)


def test_count_value_squarefree_example():
    powerdiv2 = build_rule("powerdiv-r:2")
    assert count_value(powerdiv2, 1, 100, 10) == 8


def test_count_value_against_brute():
    rng = random.Random(991)
    rules = builtin_rules()
    for _ in range(25):
        x = rng.randrange(0, 10**6)
        y = rng.randrange(1, 400)
        for rule in rules:
            for k in (1, 2, 3, 6):
                assert count_value(rule, k, x, y) == count_k_brute(rule, k, x, y), (
                    rule.name, k, x, y,
                )


def test_count_value_unattainable_k():
    plane = build_rule("plane")
    assert count_value(plane, 2, 1000, 500) == 0


def test_value_counts_partition_interval():
    abelian = build_rule("abelian")
    x, y = 123456, 5000
    profile = value_counts(abelian, x, y)
    assert sum(profile.values()) == y
    for k, c in profile.items():
        assert count_value(abelian, k, x, y) == c


def test_counts_independent_of_chunking_and_workers(monkeypatch):
    import pimshort.sieve as sieve_mod

    abelian = build_rule("abelian")
    x, y = 10**7, 30000
    base = count_value(abelian, 1, x, y)
    assert base == count_value(abelian, 1, x, y, workers=2)
    run_tasks = sieve_mod._run_tasks
    splits = []

    def counting_run_tasks(tasks, worker, workers):
        splits.append(len(tasks))
        return run_tasks(tasks, worker, workers)

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 7001)
    monkeypatch.setattr(sieve_mod, "_run_tasks", counting_run_tasks)
    assert count_value(abelian, 1, x, y) == base
    assert count_value(abelian, 1, x, y, workers=3) == base
    assert sum(value_counts(abelian, x, y, workers=2).values()) == y
    assert splits == [5, 5, 5]  # 30000 offsets in chunks of at most 7001


def test_large_primes_sharing_an_offset(monkeypatch):
    # With chunks of 1000 offsets, every p >= 37 has p^2 above the chunk
    # length and goes through the batched large-prime step, where two primes
    # can hit one n = p^2 q^2.  Each of these windows holds such an n; near
    # 1e9 the unpatched split sends the smaller primes down the strided path.
    import pimshort.sieve as sieve_mod

    rng = random.Random(3571)
    small = primes_upto(1000)
    windows = [(37**2 * 41**2 - 500, 1000)]
    for _ in range(2):
        p = rng.choice([v for v in small if 37 <= v <= 43])
        q = min((v for v in small if v > p), key=lambda v: abs(p * v - 31623))
        windows.append(((p * q) ** 2 - rng.randrange(1, 2000), 2000))
    abelian = build_rule("abelian")
    rules = builtin_rules()
    unpatched = {(rule.name, w): value_counts(rule, *w) for rule in rules for w in windows}
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    for rule in rules:
        for w in windows:
            assert value_counts(rule, *w) == unpatched[rule.name, w], (rule.name, w)
    x, y = windows[0]
    for rule in rules:
        assert unpatched[rule.name, windows[0]] == value_counts_brute(rule, x, y), rule.name
    assert count_value(abelian, 4, x, y) == count_k_brute(abelian, 4, x, y)
    for w in windows[1:]:
        assert unpatched["abelian", w] == value_counts_brute(abelian, *w), w


def test_deep_window_counts():
    abelian = build_rule("abelian")
    y = 2000
    x = 10**16 - y
    assert count_value(abelian, 1, x, y) == count_r_free(x, y, 2)
    assert sum(value_counts(abelian, x, y).values()) == y


def test_counting_builds_no_prime_table_above_the_fourth_root(monkeypatch):
    # The sieving primes up to sqrt(x+y) = 1e8 are generated segment by
    # segment; only the base primes up to (x+y)^(1/4) = 1e4 come from the
    # shared table, whose smallest size is 2^16.
    import pimshort.factor as factor_mod

    monkeypatch.setattr(factor_mod, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor_mod, "_prime_list", [])
    monkeypatch.setattr(factor_mod, "_prime_limit", 1)
    x, y = 10**16 - 1000, 1000
    count_value(build_rule("plane"), 2, x, y)
    count_r_free(x, y, 2)
    count_r_free(x, y, 3)
    assert factor_mod._prime_limit <= 1 << 17
    # A table that needs exact Python ints runs the same kernel.
    values = [1, 1] + [10**25] * (ALPHA_MAX - 1)
    huge = load_custom_rule({"name": "huge", "r": 2, "values": values})
    count_value(huge, 10**25, x, y)
    value_counts(huge, x, y)
    assert factor_mod._prime_limit <= 1 << 17


def test_workers_clamped_to_cpus_and_tasks(monkeypatch):
    import pimshort.sieve as sieve_mod

    pools = []

    class CountedPool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(sieve_mod, "multiprocessing", SimpleNamespace(Pool=CountedPool))
    monkeypatch.setattr(sieve_mod.os, "cpu_count", lambda: 1)
    assert sieve_mod._run_tasks([3, -4, 5], abs, 64) == [3, 4, 5]
    abelian = build_rule("abelian")
    x, y = 10**7, 30000
    base = count_value(abelian, 1, x, y)
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 7001)
    assert count_value(abelian, 1, x, y, workers=8) == base
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", lambda: None)
    assert sieve_mod._run_tasks([1, 2], abs, 8) == [1, 2]
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", lambda: 4)
    assert sieve_mod._run_tasks([1, 2, 3], abs, 8) == [1, 2, 3]
    assert sieve_mod._run_tasks([1, 2, 3, 4, 5, 6], abs, 2) == [1, 2, 3, 4, 5, 6]
    assert sieve_mod._run_tasks([1], abs, 8) == [1]
    assert count_value(abelian, 1, x, y, workers=8) == base
    assert pools == [3, 2, 4]


def test_slow_path_for_non_int64_safe_rule():
    # A custom table with a huge value makes f exceed int64, so the kernel
    # multiplies exact Python ints.
    values = [1, 1] + [10**25] * (ALPHA_MAX - 1)
    rule = load_custom_rule({"name": "huge", "r": 2, "values": values})
    x, y = 1000, 300
    assert count_value(rule, 10**25, x, y) == count_k_brute(rule, 10**25, x, y)
    assert count_value(rule, 1, x, y) == count_r_free(x, y, 2)
    profile = value_counts(rule, x, y)
    assert sum(profile.values()) == y
    assert profile == value_counts_brute(rule, x, y)
    assert all(type(v) is int for v in profile)
    assert profile[10**50] == count_k_brute(rule, 10**50, x, y) > 0


def test_rule_above_2_pow_alpha_only_at_a_high_exponent():
    # g(40) = 2^41 is the only entry above 2^alpha; each window holds some
    # 2^40 * m, the one place where that entry is used.
    values = list(build_rule("abelian").values)
    values[40] = 1 << 41
    rule = load_custom_rule({"name": "abelian-g40", "r": 2, "values": values})
    for m in (1, 3):
        x, y = (m << 40) - 8, 16
        profile = value_counts(rule, x, y)
        assert profile == value_counts_brute(rule, x, y), m
        assert profile[1 << 41] == 1
        assert count_value(rule, 1 << 41, x, y) == 1


def test_count_value_beyond_int64_is_zero():
    abelian = build_rule("abelian")
    for k in (2**63, 2**70):
        assert count_value(abelian, k, 10**6, 1000) == 0


def test_count_r_free_examples():
    assert count_r_free(100, 10, 2) == 8
    assert count_r_free(0, 10, 3) == 9


def test_count_r_free_against_brute():
    rng = random.Random(4242)
    for _ in range(30):
        x = rng.randrange(0, 10**6)
        y = rng.randrange(1, 500)
        r = rng.choice((2, 3, 4))
        assert count_r_free(x, y, r) == count_r_free_brute(x, y, r)


def test_count_r_free_asymptotic():
    y = 10**5
    count = count_r_free(10**9, y, 2)
    assert abs(count - y / zeta(2)) < 0.01 * y


def test_count_value_k1_equals_r_free():
    rng = random.Random(77)
    rules = builtin_rules() + (build_rule("powerdiv-r:3"),)
    for _ in range(10):
        x = rng.randrange(0, 10**8)
        y = rng.randrange(1, 10**4)
        for rule in rules:
            assert count_value(rule, 1, x, y) == count_r_free(x, y, rule.r)


def test_multiples_sum_value_and_paths():
    # Frozen from the brute-force oracle: contributors at (100, 10, 2) are
    # n = 27, 36, 108, each dividing 108.
    assert multiples_sum_brute(100, 10, 2) == 3
    assert rfull_multiples_sum(100, 10, 2, "rfull") == 3
    assert rfull_multiples_sum(100, 10, 2, "divisors") == 3
    # n = 2Y = 36 is r-full and divides 108 in (100, 118], but lies outside (2Y, 2X].
    assert multiples_sum_brute(100, 18, 2) == 1
    assert rfull_multiples_sum(100, 18, 2, "rfull") == 1
    assert rfull_multiples_sum(100, 18, 2, "divisors") == 1


def test_multiples_sum_matches_brute_randomized():
    rng = random.Random(5150)
    for _ in range(15):
        x = rng.randrange(50, 3000)
        y = rng.randrange(1, x // 3 + 1)
        r = rng.choice((2, 3))
        expected = multiples_sum_brute(x, y, r)
        assert rfull_multiples_sum(x, y, r, "rfull") == expected
        assert rfull_multiples_sum(x, y, r, "divisors") == expected


def test_multiples_sum_paths_agree_medium():
    for x, y, r in ((10**4, 10**2, 2), (10**4, 10**2, 3), (10**6, 10**3, 2)):
        assert rfull_multiples_sum(x, y, r, "rfull") == rfull_multiples_sum(x, y, r, "divisors")


def test_multiples_sum_validation():
    with pytest.raises(ValueError):
        rfull_multiples_sum(100, 100, 2)
    with pytest.raises(ValueError):
        rfull_multiples_sum(100, 200, 2)
    with pytest.raises(ValueError):
        rfull_multiples_sum(100, 10, 2, method="bogus")
    # r is checked before either method runs.
    for method in ("rfull", "divisors"):
        for r in (0, 1):
            with pytest.raises(ValueError, match="r >= 2"):
                rfull_multiples_sum(100, 10, r, method)
    # The r-full n run up to 2X, which must stay below 2^63.
    for method in ("rfull", "divisors"):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            rfull_multiples_sum(2**62, 10, 40, method)
    # 2^62 in (X, X + 10] is a multiple of every 2^e, 40 <= e <= 62.
    assert rfull_multiples_sum(2**62 - 1, 10, 40) == 23


def test_admissible_window():
    # r = 2: lower edge x^(1/5 + eps), upper edge x / 65536.
    assert admissible_window(2, 10**11, 10**6, 0.01)
    assert not admissible_window(2, 10**11, 10**7, 0.01)  # above x * 4^-8
    assert not admissible_window(2, 10**11, 100, 0.01)  # below x^(1/5+eps)
    for eps in (-3.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            admissible_window(2, 10**11, 10**6, eps)


def test_interval_report_fields_and_flag():
    abelian = build_rule("abelian")
    dens = local_density(abelian, 1, 10**5)
    rep = interval_report(abelian, 1, 100, 10, dens.density)
    assert rep.count == 8  # squarefree members of (100, 110]
    assert not rep.admissible
    assert rep.abs_error == pytest.approx(abs(8 - rep.main_term))
    rec = rep.to_record()
    assert list(rec) == [
        "rule", "k", "r", "x", "y", "count", "density", "main_term",
        "abs_error", "term_main", "term_mid", "term_tail", "admissible",
    ]
    assert rep.term_main > 0 and rep.term_mid > 0 and rep.term_tail > 0


def test_interval_report_powerdiv_equals_r_free():
    powerdiv2 = build_rule("powerdiv-r:2")
    dens = local_density(powerdiv2, 1, 10**4)
    rep = interval_report(powerdiv2, 1, 10**6, 2000, dens.density)
    assert rep.count == count_r_free(10**6, 2000, 2)


def test_interval_report_rejects_wide_window():
    abelian = build_rule("abelian")
    dens = local_density(abelian, 1, 10**4)
    with pytest.raises(ValueError):
        interval_report(abelian, 1, 100, 100, dens.density)
