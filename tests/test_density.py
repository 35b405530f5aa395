import time
from bisect import bisect_right
from fractions import Fraction
from math import fsum, gcd
from pathlib import Path

import numpy as np
import pytest

from pimshort import density
from pimshort.bounds import zeta
from pimshort.density import (
    density_profile,
    enumerate_rfull,
    local_density,
    rfull_count_bound,
    rfull_factorizations,
    rfull_table,
    tail_geometric_factor,
    weight_harmonic_profile,
    weight_harmonic_sum,
    weight_harmonic_tail,
    weight_partial_sum,
)
from pimshort.factor import eval_rule, factorize, rfull_weights_up_to
from pimshort.rules import build_rule, builtin_rules, load_custom_rule

from oracles import decomposition_value, h_brute, rfull_decomposition, rfull_flags, trial_factorize


def test_rfull_count_bound_is_an_upper_bound():
    for r in (2, 3, 4, 5, 8, 20):
        for limit in (1, 7, 2**r, 10**4, 10**7, 2**r * 10**9):
            count = sum(1 for _ in enumerate_rfull(r, limit))
            bound = rfull_count_bound(r, limit)
            assert count <= bound <= 3 * count + 3, (r, limit, count, bound)
    assert rfull_count_bound(2, 0) == 0.0
    assert rfull_count_bound(1000, 2**1000 * 10**9) < 100
    start = time.perf_counter()
    assert 1.0 <= rfull_count_bound(10**12, 100) < 2.0
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        rfull_count_bound(1, 100)


def test_enumerate_examples():
    assert list(enumerate_rfull(2, 100)) == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    assert list(enumerate_rfull(3, 50)) == [1, 8, 16, 27, 32]
    assert list(enumerate_rfull(2, 3)) == [1]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_enumerate_matches_brute_filter(r):
    limit = 10**5
    flags = rfull_flags(limit, r)
    expected = [n for n in range(1, limit + 1) if flags[n]]
    assert list(enumerate_rfull(r, limit)) == expected


def test_enumeration_carries_correct_factorizations():
    for n, fact in rfull_factorizations(2, 20000):
        assert fact == trial_factorize(n)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_table_groups_partition_by_pattern_with_exact_psi(r):
    # The table holds every r-full n <= limit once, strictly ascending; each
    # n has the exponent pattern its index names, and carries 1/psi(n) =
    # c / (n a) correctly rounded, with a = prod (p^r - 1), c = prod p^(r-1) (p - 1).
    limit = 10**5
    flags = rfull_flags(limit, r)
    facts, ns, recips, index = rfull_table(r, limit)
    assert (ns.dtype, recips.dtype, index.dtype) == (np.int64, np.float64, np.int32)
    assert ns.itemsize + recips.itemsize + index.itemsize <= 20
    assert len(ns) == len(recips) == len(index)
    assert (np.diff(ns) > 0).all()
    patterns = [tuple(e for _, e in fact) for fact in facts]
    assert len(set(patterns)) == len(patterns)
    for fact, pattern in zip(facts, patterns):
        assert fact == tuple(zip((2, 3, 5, 7, 11, 13, 17), pattern))
    ns = ns.tolist()
    for n, recip, q in zip(ns, recips.tolist(), index.tolist()):
        got = trial_factorize(n)
        assert tuple(e for _, e in got) == patterns[q], n
        a = c = 1
        for p, _ in got:
            a *= p**r - 1
            c *= p ** (r - 1) * (p - 1)
        assert recip == float(Fraction(c, n * a)), n
    assert ns == [n for n in range(1, limit + 1) if flags[n]]


def test_decompose_examples():
    parts = rfull_decomposition(factorize(72), 2)
    assert parts == (3, 2)
    assert decomposition_value(parts) == 72
    assert rfull_decomposition(factorize(7**2), 2) == (7, 1)
    parts = rfull_decomposition(factorize(5**5), 3)  # alpha = 2r - 1 forces the last slot
    assert parts == (1, 1, 5)
    assert decomposition_value(parts) == 5**5


@pytest.mark.parametrize("r", [2, 3])
def test_decompose_roundtrip_and_invariants(r):
    for n, fact in rfull_factorizations(r, 10**5):
        parts = rfull_decomposition(fact, r)
        assert decomposition_value(parts) == n
        squarefree_part = 1
        for a in parts[1:]:
            squarefree_part *= a
        assert all(a >= r for _, a in factorize(n))
        # product of parts[1:] squarefree
        assert all(e == 1 for _, e in factorize(squarefree_part))
        # pairwise coprime
        for i in range(1, r):
            for j in range(i + 1, r):
                assert gcd(parts[i], parts[j]) == 1


def test_dedekind_psi_values():
    def psi_reciprocal(n, r):
        _, ns, recips, _ = rfull_table(r, n)
        return recips[ns.tolist().index(n)]

    assert psi_reciprocal(4, 2) == 1 / 6
    assert psi_reciprocal(1, 2) == 1.0
    assert psi_reciprocal(36, 2) == 1 / 72
    assert psi_reciprocal(8, 3) == float(Fraction(4, 8 * (4 + 2 + 1)))


def test_density_k1_collapse():
    for rule in builtin_rules() + (build_rule("powerdiv-r:3"),):
        for bound in (1, 100, 10**6):
            res = local_density(rule, 1, bound)
            assert res.partial_sum == 1.0
            assert abs(res.density - 1.0 / zeta(rule.r)) < 1e-9


def test_density_unattained_k_is_zero():
    plane = build_rule("plane")
    res = local_density(plane, 2, 10**6)
    assert res.partial_sum == 0.0
    assert res.density == 0.0
    assert res.tail_estimate > 0.0


def test_density_first_terms_abelian_k2():
    # Hand-checkable truncation: r-full b <= 10 with f(b) = 2 are 4 and 8,
    # so the partial sum is 1/psi(4) + 1/psi(8) = 1/6 + 1/12.
    abelian = build_rule("abelian")
    res = local_density(abelian, 2, 10)
    assert res.partial_sum == pytest.approx(1 / 6 + 1 / 12, abs=1e-15)
    assert res.density == pytest.approx(res.partial_sum / zeta(2), abs=1e-15)


def test_density_result_record_fields():
    res = local_density(build_rule("abelian"), 2, 1000)
    rec = res.to_record()
    assert list(rec) == ["rule", "k", "r", "B", "partial_sum", "tail_estimate", "zeta_r", "density"]
    assert rec["rule"] == "abelian"
    assert rec["B"] == 1000


def test_weight_harmonic_sum_examples():
    abelian = build_rule("abelian")
    assert weight_harmonic_sum(abelian, 1, 1) == 1.0
    assert weight_harmonic_sum(abelian, 1, 10**5) == 1.0
    # h(4) = 1 is the only contribution up to 7 for k = 2
    assert weight_harmonic_sum(abelian, 2, 7) == pytest.approx(0.25, abs=1e-15)


def test_density_paths_agree_small_bound():
    for rule in builtin_rules():
        for k in range(1, 11):
            res = local_density(rule, k, 10**6)
            hsum = weight_harmonic_sum(rule, k, 10**6)
            htail = weight_harmonic_tail(rule, k, 10**6)
            tolerance = (res.tail_estimate + htail) / zeta(rule.r)
            assert abs(res.density - hsum / zeta(rule.r)) <= tolerance, (rule.name, k)


def test_profiles_match_single_calls():
    abelian = build_rule("abelian")
    prof = density_profile(abelian, 10**5, 6)
    wprof = weight_harmonic_profile(abelian, 10**5, 6)
    for k in range(1, 7):
        single = local_density(abelian, k, 10**5)
        assert prof[k].partial_sum == single.partial_sum
        assert prof[k].tail_estimate == single.tail_estimate
        assert wprof[k][0] == weight_harmonic_sum(abelian, k, 10**5)
        assert wprof[k][1] == weight_harmonic_tail(abelian, k, 10**5)


def test_series_equal_an_exact_rational_reference():
    # Each term is a correctly rounded 1/psi(b) and fsum rounds the exact
    # sum, so the sums must equal those of Fraction reciprocals exactly.
    bound = 3000
    for rule in builtin_rules() + (build_rule("powerdiv-r:3"),):
        r = rule.r
        flags = rfull_flags((1 << r) * bound, r)
        heads: dict[int, list[float]] = {}
        block = []
        for n in map(int, flags.nonzero()[0]):
            fact = trial_factorize(n)
            psi = Fraction(n)
            for p, _ in fact:
                psi *= sum(Fraction(1, p**j) for j in range(r))
            dest = block if n > bound else heads.setdefault(eval_rule(rule, fact), [])
            dest.append(float(1 / psi))
        prof = density_profile(rule, bound, 8)
        for k in range(1, 9):
            assert prof[k].partial_sum == fsum(heads.get(k, [])), (rule.name, k)
            assert prof[k].tail_estimate == tail_geometric_factor(r) * fsum(block)


def _series_at(rule, bound):
    return ([local_density(rule, k, bound) for k in (1, 2, 4)],
            weight_harmonic_profile(rule, bound, 6),
            weight_partial_sum(rule, 2, 0.5, bound))


def test_terms_past_the_tail_block_are_ignored(monkeypatch):
    # The same results from an enumeration that stops at the tail block and
    # from one the cache has already grown to twice that.
    bound = 10**5
    for rule in builtin_rules() + (build_rule("powerdiv-r:3"),):
        monkeypatch.setattr(density, "_tables", {})
        fresh = _series_at(rule, bound)
        density._table(rule.r, 2 * (1 << rule.r) * bound)
        assert _series_at(rule, bound) == fresh


def test_tail_block_stops_below_2_63(monkeypatch):
    # (B, 2^r B] passes 2^63 at r = 40, B = 1e9 and at r = 20, B = 1e18.  The
    # walk is cut below 2^63, so no exponent passes 62 (the rule tables stop
    # at 64), and the cache keeps the cut limit: one table per r serves all.
    calls = []
    real = density.rfull_table

    def spy(r, limit):
        calls.append((r, limit))
        return real(r, limit)

    monkeypatch.setattr(density, "_tables", {})
    monkeypatch.setattr(density, "rfull_table", spy)
    r40 = build_rule("powerdiv-r:40")
    # 3^40 > 2^63, so the 40-full n below 2^63 are 1 and 2^40 ... 2^62.
    tail = tail_geometric_factor(40) * fsum(
        abs(rfull_weights_up_to(r40, ((2, e),), 2).get(2, 0)) / 2**e for e in range(40, 63))
    assert tail > 0
    assert weight_harmonic_profile(r40, 10**9, 3) == {1: (1.0, 0.0), 2: (0.0, tail),
                                                      3: (0.0, 0.0)}
    assert weight_harmonic_tail(r40, 2, 10**9) == tail
    assert local_density(r40, 1, 10**9).tail_estimate == tail_geometric_factor(40) * fsum(
        float(Fraction(2**39, 2**e * (2**40 - 1))) for e in range(40, 63))
    assert weight_harmonic_sum(build_rule("powerdiv-r:20"), 1, 10**18) == 1.0
    weight_harmonic_profile(build_rule("powerdiv-r:20"), 10**18, 3)
    assert calls == [(40, 2**63 - 1), (20, 2**63 - 1)]


def test_harmonic_terms_are_exact_above_2_53():
    # float64 holds n exactly only below 2^53; past it each h(n)/n must still
    # be the correctly rounded quotient of the integers, as int / int gives.
    rule = build_rule("powerdiv-r:10")
    bound = 2**53 + 1
    per_term = [(n, rfull_weights_up_to(rule, trial_factorize(n), 3))
                for n in enumerate_rfull(10, 2**63 - 1)]
    prof = weight_harmonic_profile(rule, bound, 3)
    for k in (1, 2, 3):
        head = fsum(h.get(k, 0) / n for n, h in per_term if n <= bound)
        tail = fsum(abs(h.get(k, 0)) / n for n, h in per_term if n > bound)
        assert prof[k] == (head, tail_geometric_factor(10) * tail), k


def test_one_enumeration_per_r(monkeypatch):
    calls = []
    real = density.rfull_table

    def spy(r, limit):
        calls.append((r, limit))
        return real(r, limit)

    monkeypatch.setattr(density, "_tables", {})
    monkeypatch.setattr(density, "rfull_table", spy)
    abelian = build_rule("abelian")
    bound = 10**5
    for k in (1, 2, 3):
        local_density(abelian, k, bound)
    density_profile(abelian, bound, 6)
    weight_harmonic_profile(abelian, bound, 6)
    weight_partial_sum(abelian, 2, 0.5, bound)
    assert enumerate_rfull(2, bound) == real(2, bound)[1].tolist()
    assert calls == [(2, 4 * bound)]
    local_density(abelian, 1, 2 * bound)
    assert calls == [(2, 4 * bound), (2, 8 * bound)]
    local_density(abelian, 1, bound // 10)
    weight_partial_sum(abelian, 2, 0.0, bound)
    assert len(calls) == 2
    local_density(build_rule("powerdiv-r:3"), 1, bound)
    local_density(abelian, 2, bound)
    assert calls == [(2, 4 * bound), (2, 8 * bound), (3, 8 * bound)]
    assert sorted(density._tables) == [2, 3]


def test_tail_factor_values():
    assert tail_geometric_factor(2) == pytest.approx(1.0 / (1.0 - 2**-0.5))
    assert tail_geometric_factor(3) == pytest.approx(1.0 / (1.0 - 2 ** (1 / 3 - 1)))


def test_weight_partial_sum_basics():
    abelian = build_rule("abelian")
    # kappa = 0 equals the plain absolute sum; monotone nondecreasing in x.
    s1 = weight_partial_sum(abelian, 2, 0.0, 10**3)
    s2 = weight_partial_sum(abelian, 2, 0.0, 10**4)
    assert s1 == 25.0  # |h| counts prime powers p^a <= 1000, a >= 2
    assert s2 >= s1
    with pytest.raises(ValueError):
        weight_partial_sum(abelian, 2, 0.0, 1)
    with pytest.raises(ValueError):
        weight_partial_sum(abelian, 2, -0.5, 100)


PATTERN_RULES = builtin_rules() + (
    build_rule("powerdiv-r:3"),
    load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text()),
)


@pytest.mark.parametrize("rule", PATTERN_RULES, ids=[rule.name for rule in PATTERN_RULES])
def test_weights_evaluated_once_per_exponent_pattern(monkeypatch, rule):
    # h(n) depends only on the exponents of n, so each series evaluates it
    # once per exponent tuple and must still equal the per-term sums.
    calls = []

    def spy(rule_, fact, k_max):
        calls.append(tuple(a for _, a in fact))
        return rfull_weights_up_to(rule_, fact, k_max)

    monkeypatch.setattr(density, "rfull_weights_up_to", spy)
    bound, k_max = 10**5, 6
    top = (1 << rule.r) * bound
    terms = rfull_factorizations(rule.r, top)

    def patterns(limit):
        return sorted({tuple(a for _, a in fact) for n, fact in terms if n <= limit})

    prof = weight_harmonic_profile(rule, bound, k_max)
    assert sorted(calls) == patterns(top)
    per_term = [(n, rfull_weights_up_to(rule, fact, k_max)) for n, fact in terms]
    factor = tail_geometric_factor(rule.r)
    for k in range(1, k_max + 1):
        head = fsum(h.get(k, 0) / n for n, h in per_term if n <= bound)
        tail = fsum(abs(h.get(k, 0)) / n for n, h in per_term if n > bound)
        assert prof[k] == (head, factor * tail), k

    calls.clear()
    got = weight_partial_sum(rule, 2, 0.5, bound)
    assert sorted(calls) == patterns(bound)
    expected = fsum(abs(h) * n ** -0.5 for n, fact in terms if n <= bound
                    if (h := rfull_weights_up_to(rule, fact, 2).get(2, 0)))
    assert got == expected


def test_abelian_k2_weights_live_on_prime_powers():
    # The shape of the abelian k = 2 weighted sums rests on this: h_2 is
    # (-1)^a on p^a (a >= 2) and 0 on squarefull n with two or more primes.
    abelian = build_rule("abelian")
    limit = 10**5
    flags = rfull_flags(limit, 2)
    for n in range(2, limit + 1):
        if not flags[n]:
            continue
        fact = trial_factorize(n)
        h = rfull_weights_up_to(abelian, fact, 2).get(2, 0)
        assert h == h_brute(abelian, 2, fact, 2), n
        expected = (-1) ** fact[0][1] if len(fact) == 1 else 0
        assert h == expected, (n, fact)


def test_count_shape_band():
    # #{r-full <= X} / X^(1/r) stays in a narrow band across decades.
    for r in (2, 3):
        ns = enumerate_rfull(r, 10**8)
        ratios = []
        for e in range(3, 9):
            x = 10**e
            ratios.append(bisect_right(ns, x) / x ** (1.0 / r))
        assert max(ratios) / min(ratios) < 2.5


def test_validation_errors():
    abelian = build_rule("abelian")
    local_density(abelian, 1, 100)  # later r = 2 calls are cache hits
    with pytest.raises(ValueError):
        local_density(abelian, 0, 100)
    with pytest.raises(ValueError):
        local_density(abelian, 1, 0)
    with pytest.raises(ValueError):
        next(enumerate_rfull(1, 100))
    with pytest.raises(ValueError):
        next(enumerate_rfull(2, 0))
    # n is held as int64: a limit at or above 2^63 is refused, not cut.
    assert enumerate_rfull(40, 2**63 - 1) == [1] + [2**e for e in range(40, 63)]
    for limit in (2**63, 2**70):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            enumerate_rfull(40, limit)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            rfull_table(2, limit)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            local_density(abelian, 1, limit)
