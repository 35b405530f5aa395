import json
import time
from bisect import bisect_right
from dataclasses import asdict
from fractions import Fraction
from math import fsum, gcd, prod
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from pimshort import density
from pimshort.bounds import zeta
from pimshort.density import (
    density_profile,
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
from pimshort.factor import (
    _SIGNATURE_PRIMES,
    eval_rule,
    factorize,
    primes_upto,
    rfull_weights_up_to,
)
from pimshort.rules import ALPHA_MAX, build_rule, builtin_rules, load_custom_rule
from pimshort.sieve import rfull_multiples_sum

from oracles import (
    decomposition_value,
    h_brute,
    rfull_decomposition,
    rfull_flags,
    rfull_table_dfs,
    trial_factorize,
)


def test_rfull_count_bound_is_an_upper_bound():
    for r in (2, 3, 4, 5, 8, 20):
        for limit in (1, 7, 2**r, 10**4, 10**7, 2**r * 10**9):
            count = sum(1 for _ in rfull_table(r, limit)[1].tolist())
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
    assert rfull_table(2, 100)[1].tolist() == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    assert rfull_table(3, 50)[1].tolist() == [1, 8, 16, 27, 32]
    assert rfull_table(2, 3)[1].tolist() == [1]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_enumerate_matches_brute_filter(r):
    limit = 10**5
    flags = rfull_flags(limit, r)
    expected = [n for n in range(1, limit + 1) if flags[n]]
    assert rfull_table(r, limit)[1].tolist() == expected


def test_enumeration_carries_correct_factorizations():
    for n, fact in rfull_factorizations(2, 20000):
        assert fact == trial_factorize(n)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_table_groups_partition_by_pattern_with_exact_psi(r):
    # The table holds every r-full n <= limit once, strictly ascending; each
    # n has the signature (sorted exponents) its index names, one index per
    # signature, and carries 1/psi(n) = c / (n a) correctly rounded, with
    # a = prod (p^r - 1), c = prod p^(r-1) (p - 1).
    limit = 10**5
    flags = rfull_flags(limit, r)
    facts, ns, recips, index = rfull_table(r, limit)
    assert (ns.dtype, recips.dtype, index.dtype) == (np.int64, np.float64, np.int32)
    assert ns.itemsize + recips.itemsize + index.itemsize <= 20
    assert len(ns) == len(recips) == len(index)
    assert (np.diff(ns) > 0).all()
    signatures = [tuple(sorted(e for _, e in fact)) for fact in facts]
    assert len(set(signatures)) == len(signatures)
    for fact in facts:  # each a factorization: exponents >= r on 2, 3, 5, ...
        assert [p for p, _ in fact] == [2, 3, 5, 7, 11, 13, 17][: len(fact)]
        assert all(e >= r for _, e in fact)
    ns = ns.tolist()
    for n, recip, q in zip(ns, recips.tolist(), index.tolist()):
        got = trial_factorize(n)
        assert tuple(sorted(e for _, e in got)) == signatures[q], n
        a = c = 1
        for p, _ in got:
            a *= p**r - 1
            c *= p ** (r - 1) * (p - 1)
        assert recip == float(Fraction(c, n * a)), n
    assert ns == [n for n in range(1, limit + 1) if flags[n]]


# (r, limit) pairs where the blocked walk must give the recursive walk's table bit for bit.
TABLE_PAIRS = [(2, 1), (2, 4), (3, 7), (2, 10**5), (3, 10**5), (4, 10**6), (2, 4 * 10**9),
               (3, 8 * 10**9), (2, 10**12), (7, 2**62), (40, 2**63 - 1)]


def assert_same_table(r, limit):
    facts, ns, recips, pattern = rfull_table(r, limit)
    want_facts, want_ns, want_recips, want_pattern = rfull_table_dfs(r, limit)
    assert (ns.dtype, recips.dtype, pattern.dtype) == (np.int64, np.float64, np.int32)
    assert np.array_equal(ns, want_ns), (r, limit)
    assert np.array_equal(recips.view(np.int64), want_recips.view(np.int64)), (r, limit)
    # The oracle numbers exponent patterns, the table signatures (sorted exponents), one
    # index each: map each oracle pattern to the index of its signature, row by row.
    signatures = [tuple(sorted(e for _, e in fact)) for fact in facts]
    want = [tuple(sorted(e for _, e in fact)) for fact in want_facts]
    assert sorted(signatures) == sorted(set(want)), (r, limit)
    place = {signature: q for q, signature in enumerate(signatures)}
    renamed = np.array([place[signature] for signature in want], dtype=np.int64)
    assert np.array_equal(renamed[want_pattern], pattern), (r, limit)


@pytest.mark.parametrize("r, limit", TABLE_PAIRS)
def test_table_matches_the_recursive_walk(r, limit):
    assert_same_table(r, limit)


def test_table_matches_the_recursive_walk_at_every_small_limit():
    for r in range(2, 6):
        for limit in range(1, 301):
            assert_same_table(r, limit)


@pytest.mark.parametrize("pairs", [1, 2, 3, 64])
def test_table_matches_the_recursive_walk_in_tiny_blocks(monkeypatch, pairs):
    # At the default block size only the largest tables split a node's pairs between
    # blocks; tiny blocks split them at every place, and split the children's blocks too.
    monkeypatch.setattr(density, "_BLOCK_PAIRS", pairs)
    for r in range(2, 6):
        for limit in range(1, 301):
            assert_same_table(r, limit)
    assert_same_table(2, 10**5)
    assert_same_table(3, 10**5)


def test_reciprocal_near_a_rounding_midpoint_is_divided_in_python_ints():
    # n a = 2^6 (2^53 + 1) and c = 2^52 + 1, so c / (n a) lies 2^-53 of a half gap
    # below the midpoint 2^-7 + 2^-60.  The second triple is 1/psi(16411^2) at r = 2,
    # which the float64 path decides.  In both, c / fl(n a) is the wrong neighbour.
    p = 16411
    triples = [(3 * 28059810762433 * 2**6, 107, 2**52 + 1), (p**2, p**2 - 1, p * (p - 1))]
    n, a, c = (np.array(column, dtype=np.int64) for column in zip(*triples))
    q, slow = density._reciprocals(n, a, c, np.empty((10, 2)))
    assert slow.tolist() == [True, False]
    assert q.tolist() == [z / (x * y) for x, y, z in triples]
    assert q[0] == 2.0**-7
    for x, y, z in triples:
        assert z / (x * y) != z / float(x * y)


def test_reciprocals_reuse_one_scratch_for_a_shorter_block():
    # rfull_table hands every block one scratch, as wide as its longest block so far: a
    # shorter block reads only its own columns, whatever an earlier block left past them.
    primes = primes_upto(1000).tolist()
    longer = [(p**e, p * p - 1, p * (p - 1)) for p in primes for e in (2, 3, 6)]  # p^6 >= 2^53 too
    shorter = [(3 * 28059810762433 * 2**6, 107, 2**52 + 1), (16411**2, 16411**2 - 1, 16411 * 16410),
               (3**38, 8, 6)]
    scratch = np.empty((10, len(longer)))
    for triples in (longer, shorter):
        n, a, c = (np.array(column, dtype=np.int64) for column in zip(*triples))
        q, slow = density._reciprocals(n, a, c, scratch)
        assert q.tolist() == [z / (x * y) for x, y, z in triples], len(triples)
    assert slow.tolist() == [True, False, True]  # undecided, decided, and n >= 2^53


def test_count_bound_holds_the_table():
    # rfull_table sizes its columns by this bound, so it must hold wherever a table is built.
    grid = [(r, limit) for r in range(2, 12) for k in range(64)
            for limit in sorted({2**k - 1, 2**k, 10**k}) if 1 <= limit < min(2**63, 2 ** (8 * r))]
    grid += [(r, limit) for r in range(20, 65) for limit in (10**18, 2**62 - 1, 2**62, 2**63 - 1)]
    for r, limit in grid:
        assert len(rfull_table(r, limit)[1]) <= rfull_count_bound(r, limit), (r, limit)


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


def test_density_of_a_k_past_int64():
    # f(b) = 10^20 passes int64; below 2e6 only b = 2^20 has it, so the head is
    # 1/psi(2^20) = 2 / (3 * 2^20) alone.
    huge = load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text())
    res = local_density(huge, 10**20, 2 * 10**6)
    assert res.partial_sum == 2 / (3 * 2**20)


def _psi_reciprocals(rule, limit):
    # {f(b): [(b, 1/psi(b) correctly rounded)]} over the r-full b <= limit, from Fractions.
    terms: dict[int, list[tuple[int, float]]] = {}
    for n in map(int, rfull_flags(limit, rule.r).nonzero()[0]):
        fact = trial_factorize(n)
        psi = Fraction(n)
        for p, _ in fact:
            psi *= sum(Fraction(1, p**j) for j in range(rule.r))
        terms.setdefault(eval_rule(rule, fact), []).append((n, float(1 / psi)))
    return terms


@pytest.mark.parametrize("g2", [2**53 - 1, 2**53 + 1, 10**400], ids=["2_53-1", "2_53+1", "1e400"])
def test_density_where_f_meets_2_53(g2):
    # f is a float64 product of g clipped at 2^53, exact below it, and eval_rule's
    # Python int from there on: f(p^a) = g2 for a >= 2 and f(p^a q^b) = g2^2, whether
    # or not float64 holds them, and no g is converted to a float unclipped.
    rule = load_custom_rule(json.dumps({"name": "edge", "r": 2,
                                        "values": [1, 1] + [g2] * (ALPHA_MAX - 1)}))
    heads = _psi_reciprocals(rule, 40)  # b = 4, 8, 9, 16, 25, 27, 32 and 36 = 2^2 3^2
    assert len(heads[g2]) == 7 and len(heads[g2**2]) == 1
    for k, bound in product((g2 - 1, g2, g2 + 1, 2**53, g2**2), (10, 40)):
        expected = fsum(t for b, t in heads.get(k, []) if b <= bound)
        assert local_density(rule, k, bound).partial_sum == expected, (k, bound)
    assert [x.partial_sum for x in density_profile(rule, 40, 3).values()] == [1.0, 0.0, 0.0]


def _edge_rule(g2):
    # Every g(a >= 2) = g2: f(p^a) = g2 and f(p^a q^b) = g2^2.
    return load_custom_rule(json.dumps({"name": "edge", "r": 2,
                                        "values": [1, 1] + [g2] * (ALPHA_MAX - 1)}))


HEAD_RULES = builtin_rules() + (
    build_rule("powerdiv-r:3"),
    load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text()),
    *(_edge_rule(g2) for g2 in (2**53 - 1, 2**53 + 1, 10**400)),
)


def _compressed_partials(rule, bound, ks):
    # The head sums as the series took them before they were held: each k's terms
    # compressed out of the head and summed by _exact_sum.  The oracle.
    top = min((1 << rule.r) * bound, 2**63 - 1)
    facts, n, recip, pattern = rfull_table(rule.r, top)
    i = np.searchsorted(n, bound, "right").item()
    values = [eval_rule(rule, fact) for fact in facts]
    slot = np.array([ks.index(v) + 1 if v in ks else 0 for v in values])
    head = slot.take(pattern[:i])
    return {k: density._exact_sum(recip[:i].compress(head == j)) for j, k in enumerate(ks, 1)}


def _head_ks(rule):
    # ks for local_density: small ones, those around g(2) (2^53 for the edge rules), its
    # square, and 10^12 (unattained but by the huge rule).
    g2 = rule.values[2]
    return sorted({1, 2, 3, 4, 6, g2 - 1, g2, g2 + 1, g2**2, 2**53, 10**12} - {0})


# In blocks of 2 or 3 terms the head holds one (2, signatures, exponents) array per block,
# so those bounds stop at 1e3.
HEAD_CASES = [(block, bound) for block in (density._SUM_BLOCK, 2, 3)
              for bound in (1, 10, 10**3, 10**6, 10**9) if block > 3 or bound <= 10**3]


@pytest.mark.parametrize("block, bound", HEAD_CASES)
def test_held_head_sums_equal_the_compressed_terms(monkeypatch, block, bound):
    # local_density and density_profile add the held per-signature sums of the head; they
    # must give _exact_sum of the compressed head terms bit for bit.
    monkeypatch.setattr(density, "_SUM_BLOCK", block)
    monkeypatch.setattr(density, "_tables", {})
    for rule in HEAD_RULES:
        ks = _head_ks(rule)
        want = _compressed_partials(rule, bound, ks)
        for k in ks:
            got = local_density(rule, k, bound).partial_sum
            assert got.hex() == want[k].hex(), (rule.name, bound, k)
        want = _compressed_partials(rule, bound, list(range(1, 41)))
        for k, res in density_profile(rule, bound, 40).items():
            assert res.partial_sum.hex() == want[k].hex(), (rule.name, bound, k)


@pytest.mark.parametrize("r, limit", [(2, 1), (2, 10**5), (3, 10**5), (2, 4 * 10**9),
                                      (7, 2**62), (40, 2**63 - 1)])
def test_table_numbers_signatures_in_code_order(r, limit):
    # A signature's index is its code's rank among the codes met, code = prod prime(e).
    facts, _, _, pattern = rfull_table(r, limit)
    codes = [prod(_SIGNATURE_PRIMES[e] for _, e in fact) for fact in facts]
    assert facts[0] == ()
    assert all(a < b for a, b in zip(codes, codes[1:])), (r, limit)
    assert pattern.dtype == np.int32


def test_one_bound_of_head_sums_is_held(monkeypatch):
    # Whatever bounds a caller loops over, the held state for r keeps one record, the last
    # bound's head sums and tail estimate, and a bound asked for again gets the same bits.
    monkeypatch.setattr(density, "_tables", {})
    abelian = build_rule("abelian")
    bounds = [10**7 - 1000 * t for t in range(50)]
    first = local_density(abelian, 2, bounds[0])
    for bound in bounds[1:]:
        last = local_density(abelian, 2, bound)
    held = density._tables[2]
    assert len(held) == 5
    bound, sums, tail = held[3]
    assert bound == bounds[-1] and len(sums) == 1 and tail == last.tail_estimate
    assert held[4] is None  # the grouping by signature waits for the h(n)/n series
    again = local_density(abelian, 2, bounds[0])
    assert again.partial_sum.hex() == first.partial_sum.hex()
    assert again.tail_estimate.hex() == first.tail_estimate.hex()
    assert again == first
    assert held[3][0] == bounds[0]
    weight_harmonic_profile(abelian, 10**6, 3)
    order, start = held[4]
    assert order.dtype == np.int32
    assert np.array_equal(start, np.cumsum(np.bincount(held[1][3])) - np.bincount(held[1][3]))


@pytest.mark.parametrize("r", [2, 3])
def test_signature_groups_ascend(monkeypatch, r):
    # order[start[q]:][:count[q]] lists signature q's rows in ascending order (so ascending n),
    # which is what lets a caller take the rows up to any limit from the front of a group.
    monkeypatch.setattr(density, "_tables", {})
    facts, n, _, pattern = density._table(r, 10**7)
    order, start = density._groups(r)
    count = np.bincount(pattern, minlength=len(facts))
    assert order.dtype == np.int32 and sorted(order.tolist()) == list(range(n.size))
    for q in range(len(facts)):
        rows = order[start[q]:][:count[q]]
        assert rows.size == count[q] > 0 and (pattern[rows] == q).all(), q
        assert (np.diff(rows) > 0).all(), q


def test_weight_partial_sum_leaves_the_grouping_unbuilt(monkeypatch):
    # weight_partial_sum finds the signatures met up to x by counting them; only the h(n)/n
    # profile builds the grouping of the rows by signature.
    monkeypatch.setattr(density, "_tables", {})
    abelian = build_rule("abelian")
    for x in (10**3, 10**6, 10**5):
        weight_partial_sum(abelian, 2, 0.5, x)
    assert density._tables[2][4] is None
    weight_harmonic_profile(abelian, 10**5, 2)
    assert density._tables[2][4] is not None


# The tables behind B = 1e9 at r = 2 and 3 (they run to 2^r B), and b = 1 alone.
@pytest.mark.parametrize("r, limit", [(2, 4 * 10**9), (3, 8 * 10**9), (2, 1)])
def test_held_exponent_columns(monkeypatch, r, limit):
    # One uint8 column per prime of the widest signature: column j holds each signature's
    # j-th exponent, 0 past its last; with them the table's largest exponent.
    monkeypatch.setattr(density, "_tables", {})
    facts = density._table(r, limit)[0]
    columns, emax = density._tables[r][2]
    assert columns.dtype == np.uint8 and columns.shape == (max(map(len, facts)), len(facts))
    for j, column in enumerate(columns):
        assert column.tolist() == [fact[j][1] if j < len(fact) else 0 for fact in facts], j
    assert emax == max((e for fact in facts for _, e in fact), default=0)
    if limit == 1:
        assert facts == [()] and len(columns) == 0 and emax == 0


def test_a_warm_density_reads_the_held_state_alone(monkeypatch):
    # At the held bound a density builds no table, no head or tail sums; while f stays
    # below 2^53 it reads no eval_rule either, whatever k is asked for.  The huge rule's
    # f passes 2^53, and a k past it reads eval_rule alone.
    monkeypatch.setattr(density, "_tables", {})
    abelian = build_rule("abelian")
    huge = load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text())
    bound = 10**6
    cold = [local_density(abelian, 2, bound), local_density(huge, 10**20, bound)]
    calls = []
    for name in ("rfull_table", "_binned", "_exact_sum", "eval_rule"):
        real = getattr(density, name)
        monkeypatch.setattr(density, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for k in (1, 2, 3, 10**12, 2**53, 2**60):
        local_density(abelian, k, bound)
    density_profile(abelian, bound, 6)
    local_density(huge, 1, bound)
    assert local_density(abelian, 2, bound) == cold[0]
    assert calls == []
    assert local_density(huge, 10**20, bound) == cold[1]
    assert calls and set(calls) == {"eval_rule"}


EDGE_SUMS = {
    "empty": [],
    "one": [0.1],
    "subnormal": [5e-324, 5e-324, 2.0**-1060, -2.0**-1073],
    "subnormal-result": [2.0**-1022, -5e-324],
    "cancel": [1e16, 1.0, -1e16, 1e-300, -1.0],
    "tie-even-down": [1.0, 2.0**-53],
    "tie-even-up": [1.0 + 2.0**-52, 2.0**-53],
    "past-tie": [1.0, 2.0**-53, 2.0**-1000],
    "short-of-tie": [1.0, 2.0**-53, -(2.0**-1000)],
    "wide": [2.0**1000, 1.0, 2.0**-1000, -(2.0**1000), 3.0 * 2.0**-1000],
    "largest": [1.7976931348623157e308, -1.7976931348623157e308, 2.0**1023],
}


@pytest.mark.parametrize("terms", EDGE_SUMS.values(), ids=EDGE_SUMS)
def test_exact_sum_equals_fsum_at_the_edges(monkeypatch, terms):
    # Both round the exact sum once, so they agree bit for bit, also where blocks of
    # two or three terms must carry a tie's deciding bit from one block to the next.
    a = np.array(terms, dtype=np.float64)
    assert density._exact_sum(a).hex() == fsum(terms).hex()
    for block in (2, 3):
        monkeypatch.setattr(density, "_SUM_BLOCK", block)
        assert density._exact_sum(a).hex() == fsum(terms).hex(), block


def test_exact_sum_equals_fsum_on_random_terms():
    rng = np.random.default_rng(2010)
    for _ in range(500):
        size = int(rng.integers(1, 300))
        a = rng.choice((-1.0, 1.0), size) * rng.random(size) * 10.0 ** rng.integers(-300, 300, size)
        assert density._exact_sum(a).hex() == fsum(a.tolist()).hex()
    recip = rfull_table(2, 10**7)[2]
    assert density._exact_sum(recip).hex() == fsum(recip.tolist()).hex()


def test_density_first_terms_abelian_k2():
    # Hand-checkable truncation: r-full b <= 10 with f(b) = 2 are 4 and 8,
    # so the partial sum is 1/psi(4) + 1/psi(8) = 1/6 + 1/12.
    abelian = build_rule("abelian")
    res = local_density(abelian, 2, 10)
    assert res.partial_sum == pytest.approx(1 / 6 + 1 / 12, abs=1e-15)
    assert res.density == pytest.approx(res.partial_sum / zeta(2), abs=1e-15)


def test_density_result_record_fields():
    res = local_density(build_rule("abelian"), 2, 1000)
    rec = asdict(res)
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
            weight_partial_sum(rule, 2, 0.5, bound),
            density._table(rule.r, bound)[1].tolist(),
            rfull_multiples_sum(bound, bound // 100, rule.r))


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
                for n in rfull_table(10, 2**63 - 1)[1].tolist()]
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
    assert density._tables[2][3][0] == bound  # one bound's sums, held with the table
    density_profile(abelian, bound, 6)
    weight_harmonic_profile(abelian, bound, 6)
    weight_partial_sum(abelian, 2, 0.5, bound)
    assert density._table(2, bound)[1].tolist() == real(2, bound)[1].tolist()
    assert calls == [(2, 4 * bound)]
    local_density(abelian, 1, 2 * bound)
    assert calls == [(2, 4 * bound), (2, 8 * bound)]
    assert density._tables[2][3][0] == 2 * bound  # the new walk dropped the old sums
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
    for kappa in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            weight_partial_sum(abelian, 2, kappa, 100)
    # k is an index: a numpy integer sums as its int, a float raises.
    assert weight_partial_sum(abelian, np.int64(2), 0.0, 10**3) == s1
    with pytest.raises(TypeError):
        weight_partial_sum(abelian, 2.0, 0.0, 10**3)


PATTERN_RULES = builtin_rules() + (
    build_rule("powerdiv-r:3"),
    load_custom_rule((Path(__file__).parent / "golden" / "huge-rule.json").read_text()),
)


@pytest.mark.parametrize("rule", PATTERN_RULES, ids=[rule.name for rule in PATTERN_RULES])
def test_weights_evaluated_once_per_exponent_pattern(monkeypatch, rule):
    # h(n) depends only on the signature of n (its sorted exponents), so each
    # series evaluates it once per signature and must still equal the per-term sums.
    calls = []

    def spy(rule_, fact, k_max):
        calls.append(tuple(sorted(a for _, a in fact)))
        return rfull_weights_up_to(rule_, fact, k_max)

    monkeypatch.setattr(density, "rfull_weights_up_to", spy)
    bound, k_max = 10**5, 6
    top = (1 << rule.r) * bound
    terms = rfull_factorizations(rule.r, top)

    def signatures(limit):
        return sorted({tuple(sorted(a for _, a in fact)) for n, fact in terms if n <= limit})

    prof = weight_harmonic_profile(rule, bound, k_max)
    assert sorted(calls) == signatures(top)
    per_term = [(n, rfull_weights_up_to(rule, fact, k_max)) for n, fact in terms]
    factor = tail_geometric_factor(rule.r)
    for k in range(1, k_max + 1):
        head = fsum(h.get(k, 0) / n for n, h in per_term if n <= bound)
        tail = fsum(abs(h.get(k, 0)) / n for n, h in per_term if n > bound)
        assert prof[k] == (head, factor * tail), k

    calls.clear()
    got = weight_partial_sum(rule, 2, 0.5, bound)
    assert sorted(calls) == signatures(bound)
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
        ns = rfull_table(r, 10**8)[1].tolist()
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
        rfull_table(1, 100)[1].tolist()
    with pytest.raises(ValueError):
        rfull_table(2, 0)[1].tolist()
    # n is held as int64: a limit at or above 2^63 is refused, not cut.
    assert rfull_table(40, 2**63 - 1)[1].tolist() == [1] + [2**e for e in range(40, 63)]
    for limit in (2**63, 2**70):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            rfull_table(40, limit)[1].tolist()
        with pytest.raises(ValueError, match=r"2\*\*63"):
            rfull_table(2, limit)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            local_density(abelian, 1, limit)


_ABELIAN = build_rule("abelian")


@pytest.mark.parametrize("call, args, at", [
    (lambda k, b: local_density(_ABELIAN, k, b), (2, 10**4), (0, 1)),
    (lambda b, k: density_profile(_ABELIAN, b, k), (10**4, 3), (0, 1)),
    (lambda k, b: weight_harmonic_sum(_ABELIAN, k, b), (2, 10**4), (0, 1)),
    (lambda k, b: weight_harmonic_tail(_ABELIAN, k, b), (2, 10**4), (0, 1)),
    (lambda b, k: weight_harmonic_profile(_ABELIAN, b, k), (10**4, 3), (0, 1)),
    (lambda k, kappa, x: weight_partial_sum(_ABELIAN, k, kappa, x), (2, 0.5, 10**4), (0, 2)),
    (lambda r, limit: rfull_table(r, limit)[1].tolist(), (2, 10**4), (0, 1)),
], ids=["local_density", "density_profile", "weight_harmonic_sum", "weight_harmonic_tail",
        "weight_harmonic_profile", "weight_partial_sum", "rfull_table"])
def test_series_read_every_integer_by_operator_index(monkeypatch, call, args, at):
    # On a cold table, then on the warm one that the int call leaves, a numpy integer gives the
    # int's result and a float raises TypeError: a float bound once read a larger held table.
    want = call(*args)
    for i in at:
        for v in (np.int64(args[i]), float(args[i])):
            monkeypatch.setattr(density, "_tables", {})
            for _ in ("cold", "warm"):
                if isinstance(v, float):
                    with pytest.raises(TypeError):
                        call(*args[:i], v, *args[i + 1:])
                else:
                    assert call(*args[:i], v, *args[i + 1:]) == want
                call(*args)


def test_single_k_harmonic_views_run_one_k(monkeypatch):
    # A single-k view sums its one k's head and tail: two _exact_sum calls, for a k that the
    # whole profile up to k would take 2k calls (or a hang) to reach.
    real, calls = density._exact_sum, []

    def spy(a):
        calls.append(a.size)
        if len(calls) > 2:
            raise AssertionError("a single-k view summed more than one k")
        return real(a)

    monkeypatch.setattr(density, "_exact_sum", spy)
    weight_harmonic_sum(_ABELIAN, 5000, 10**6)
    assert len(calls) == 2
    for view in (weight_harmonic_sum, weight_harmonic_tail):
        calls.clear()
        assert view(_ABELIAN, 10**12, 10**6) == 0.0
        assert len(calls) == 2
