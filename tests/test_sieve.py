import json
import os
import random
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from itertools import accumulate, product, starmap
from math import pi, prod, sqrt
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from pimshort.bounds import admissible_window, bound_breakdown, zeta
from pimshort.density import (density_profile, local_density, rfull_count_bound,
                              weight_harmonic_profile, weight_partial_sum)
from pimshort.factor import (MAX_N, _SIGNATURE_PRIMES, _local_weights, eval_rule, factorize, introot,
                             primes_upto)
from pimshort.rules import ALPHA_MAX, build_rule, builtin_rules, load_custom_rule
from pimshort.sieve import (
    count_r_free,
    count_value,
    rfull_multiples_sum,
    sieve_segment,
    value_counts,
)
from pimshort.verify import _multiples_sum_by_divisors

from oracles import (
    count_k_brute,
    count_r_free_brute,
    multiples_sum_brute,
    rho_factorize,
    squarefull_exponents,
    value_counts_brute,
)


def _squarefull_part(m):
    return tuple((p, e) for p, e in rho_factorize(m) if e >= 2)


def _huge_rule():
    with open(os.path.join(os.path.dirname(__file__), "golden", "huge-rule.json")) as fh:
        return load_custom_rule(fh.read())


def _assert_keys_in_window(segment, x, y):
    assert all(x < n <= x + y for n in segment), (x, y)


def test_segment_small_matches_factorize():
    for x, y in ((100, 10), (0, 10)):
        segment = sieve_segment(x, y)
        _assert_keys_in_window(segment, x, y)
        for n in range(x + 1, x + y + 1):
            assert segment.get(n, ()) == _squarefull_part(n), n


def test_segment_recomposition_high_base():
    # n is its squarefull part times a squarefree rest coprime to it.
    x, y = 10**10, 1000
    segment = sieve_segment(x, y)
    _assert_keys_in_window(segment, x, y)
    for n in range(x + 1, x + y + 1):
        f = segment.get(n, ())
        part = 1
        for p, e in f:
            assert e >= 2
            part *= p**e
        assert n % part == 0
        rest = n // part
        assert all(rest % p for p, _ in f)
        assert all(e == 1 for _, e in rho_factorize(rest))
        assert f == _squarefull_part(n)


def test_segment_is_the_squarefull_part():
    # 9973 is the largest prime up to sqrt(x + y) in the last window.
    n = 9973**2
    for x, y in ((10**6, 200), (n - 500, 1000)):
        segment = sieve_segment(x, y)
        _assert_keys_in_window(segment, x, y)
        for m in range(x + 1, x + y + 1):
            assert segment.get(m, ()) == _squarefull_part(m), m
    assert segment[n] == ((9973, 2),)


def test_segment_keys_are_exactly_the_squarefull_n():
    # One key per n with some p^2 | n, none for a squarefree n, and no empty part.
    n = 9973**2
    for x, y in ((100, 10), (10**6, 200), (n - 500, 1000)):
        segment = sieve_segment(x, y)
        squarefull = {m for m in range(x + 1, x + y + 1) if any(e >= 2 for _, e in factorize(m))}
        assert set(segment) == squarefull, (x, y)
        assert () not in segment.values(), (x, y)


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
    base_count = count_value(abelian, 1, x, y)
    base_profile = value_counts(abelian, x, y)
    assert sum(base_profile.values()) == y
    assert base_profile[1] == base_count == count_r_free(x, y, 2)
    # k = 1 (uint8) and k = 462 (uint32) count in this process; value_counts pools.
    wide = max(base_profile)
    assert wide == 462
    pools, real = [], sieve_mod.multiprocessing
    monkeypatch.setattr(sieve_mod, "multiprocessing",
                        SimpleNamespace(Pool=lambda n: pools.append(n) or real.Pool(n)))
    for chunk in (1000, 7001, 1 << 20):
        monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", chunk)
        assert count_r_free(x, y, 2) == base_count, chunk
        for workers in (1, 2, 3):
            del pools[:]
            assert count_value(abelian, 1, x, y, workers=workers) == base_count, (chunk, workers)
            assert count_value(abelian, wide, x, y, workers=workers) == base_profile[wide]
            assert pools == [], (chunk, workers)
            assert value_counts(abelian, x, y, workers=workers) == base_profile, (chunk, workers)


def test_large_primes_sharing_an_offset(monkeypatch):
    # With chunks of 1000 offsets, every p >= 37 has p^2 above the chunk
    # length and goes through the batched large-prime step, where two primes
    # can hit one n = p^2 q^2.  Each of these windows holds such an n; near
    # 1e9 the unpatched split sends the smaller primes down the strided path.
    import pimshort.sieve as sieve_mod

    rng = random.Random(3571)
    small = primes_upto(1000).tolist()
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


def _segment_profile(rule, segment, y):
    # f over a window of y integers from the pure-Python sieve of each n's
    # squarefull part; the squarefree n, which have no entry, take f = 1.
    return Counter({1: y - len(segment)}) + Counter(eval_rule(rule, f) for f in segment.values())


def _r_free_in_segment(segment, y, r):
    # The squarefree n, which have no entry, are r-free.
    return y - len(segment) + sum(all(e < r for _, e in f) for f in segment.values())


def _check_kernel_against_segment(rule, x, y):
    expected = _segment_profile(rule, sieve_segment(x, y), y)
    assert value_counts(rule, x, y) == dict(sorted(expected.items()))
    for k in list(expected)[:4]:
        assert count_value(rule, k, x, y) == expected[k], k
    return expected


def test_prime_square_between_chunk_and_window_hits_several_chunks(monkeypatch):
    # With chunks of 1000 offsets, 37^2 = 1369 and 41^2 = 1681 take the
    # bucketed path yet have several multiples in a 6000-offset window.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    x, y = 10**9 + 17, 6000
    for p in (37, 41):
        chunks = {(n - x - 1) // 1000 for n in range(x + 1, x + y + 1) if n % (p * p) == 0}
        assert len(chunks) >= 3, p
    for rule in builtin_rules():
        _check_kernel_against_segment(rule, x, y)


def test_two_large_prime_squares_in_a_later_chunk(monkeypatch):
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    n = (37 * 41) ** 2
    x, y = n - 3500, 5000  # n sits at offset 3499, in the fourth chunk
    abelian = build_rule("abelian")
    assert sieve_segment(x, y)[n] == ((37, 2), (41, 2))
    assert _check_kernel_against_segment(abelian, x, y)[4] >= 1


def _record_accumulators(monkeypatch):
    # (rule name, accumulator dtype) of each chunk that _fvalue_chunks yields, in order.
    import pimshort.sieve as sieve_mod

    used, chunks = [], sieve_mod._fvalue_chunks

    def recorded(rule, x, y, cap=0):
        for segments, fval in chunks(rule, x, y, cap):
            used.append((rule.name, fval.dtype))
            yield segments, fval

    monkeypatch.setattr(sieve_mod, "_fvalue_chunks", recorded)
    return used


def test_huge_rule_over_many_chunks(monkeypatch):
    # g(alpha) = 10^alpha passes int64: the profile counts signatures, in uint16 as
    # x + y stays below 2^46, and f is evaluated once per code in Python ints.
    import pimshort.sieve as sieve_mod

    huge = _huge_rule()
    used = _record_accumulators(monkeypatch)
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    x, y = 2**40 - 2750, 5500  # six chunks, the last one short
    expected = _check_kernel_against_segment(huge, x, y)
    assert expected[10**40] == 1  # n = 2^40, in the third chunk
    profile = [dtype for name, dtype in used if name == "signature-r2"]
    assert len(profile) >= 6 and all(dtype == np.uint16 for dtype in profile)


def test_prime_above_the_cut_hits_several_chunks(monkeypatch):
    # With chunks of 1000 offsets, x + y = 51000 and no floor under the cut,
    # the cut is the prime 37: 37^2 goes to the buckets, and 41^2, 43^2, ...
    # come from the cofactor walk, several times each, in several chunks.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    monkeypatch.setattr(sieve_mod, "_PRIME_FLOOR", 1)
    x, y = 0, 51_000
    assert introot(x + y, 3) == 37
    assert len({(n - x - 1) // 1000 for n in range(41**2, y + 1, 41**2)}) >= 25
    for rule in builtin_rules():
        _check_kernel_against_segment(rule, x, y)
    segment = sieve_segment(x, y)
    for r in (2, 3):  # at r = 3 the cut is 15, and 17^3 ... 37^3 are walked
        assert count_r_free(x, y, r) == _r_free_in_segment(segment, y, r), r


def test_primes_below_the_chunk_stay_strided():
    # The cut min(sqrt(x+y), 2^16) = 1732 is above sqrt(2^14) = 128; in a full
    # chunk of 2^20 offsets the primes 5 <= p < 128 take the strided path (64 p^2
    # <= 2^20), every larger one up to the cut goes to a bucket, and 2 and 3
    # (applied by each kernel) to neither.  The last chunk, 902,848 offsets, strides
    # the same moduli as the whole ones, 127^2 among them: the window sets the rule, and
    # each segment carries the moduli of the rulers, in their order.
    import pimshort.sieve as sieve_mod

    chunks = list(sieve_mod._window_chunks([0], [3 * 10**6], 2))
    assert [[s[:4] for s in segments] for segments, *_ in chunks] == [
        [(0, 1, 1 << 20, 0)], [(0, (1 << 20) + 1, 1 << 20, 0)], [(0, (1 << 21) + 1, 902_848, 0)]]
    g = build_rule("abelian").values[:63]
    *_, strided = sieve_mod._kernel_tables(g, 0, 2, np.dtype(np.uint64), 1 << 20)
    assert sorted(p for p, *_ in strided) == primes_upto(127).tolist()
    for segments, *_ in chunks:
        assert [s[4].tolist() for s in segments] == [[q for _, q, *_ in strided]]
    for _, _, hit_primes, bases in chunks:
        assert hit_primes.size and hit_primes.min() == 131
        assert set(bases.tolist()) == {2}


@pytest.mark.parametrize("base", [0, 10**12, MAX_N - 2**15], ids=["0", "1e12", "2_63"])
def test_every_chunk_of_a_window_strides_its_moduli(monkeypatch, base):
    # With chunks of 2^12 offsets a window of 3 * 2^12 + rest offsets strides the moduli
    # with 64 q <= 2^12, 25, 27, 32 and 49 at r = 2, in each of its chunks, the last one of
    # rest offsets too: no chunk lists a hit of those, every segment carries as `strided`
    # the held table's prefix of them, read-only and with no hit's p^a in it, and every
    # count equals the oracle's.
    import pimshort.sieve as sieve_mod

    chunk = 1 << 12
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", chunk)
    ys = [3 * chunk + rest for rest in (1, 63, 700, 4095)]
    xs = [base] * len(ys)
    for r in (2, 3):
        for segments, _, p, a in sieve_mod._window_chunks(xs, ys, r):
            assert np.all(sieve_mod._STRIDED_MULTIPLES * p**a > chunk), r
            held = sieve_mod._moduli(r, 0)[0]  # the whole table held for r
            for w, _, _, _, strided in segments:
                prefix = held[sieve_mod._STRIDED_MULTIPLES * held <= min(ys[w], chunk)]
                assert strided.tolist() == prefix.tolist(), (r, w)
                assert not strided.flags.writeable and not np.isin(p**a, strided).any()
    exponents = squarefull_exponents(base, ys[-1])
    for rule in builtin_rules():
        f = [prod(rule.values[a] for a in e) for e in exponents]
        for y in ys:
            assert value_counts(rule, base, y) == dict(sorted(Counter(f[:y]).items())), rule.name
            for k in range(1, 5):
                assert count_value(rule, k, base, y) == f[:y].count(k), (rule.name, k, y)
    for r, y in product((2, 3), ys):
        assert count_r_free(base, y, r) == sum(max(e, default=0) < r for e in exponents[:y])


def test_moduli_from_an_empty_holder(monkeypatch):
    # A cut below 5 holds the leads alone, 27 and 32, and a later larger cut grows the table
    # past them.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "_held_moduli", {})
    for cut in (0, 1, 4):
        assert sieve_mod._moduli(2, cut)[0].tolist() == [27, 32], cut
    squares = [p * p for p in primes_upto(30).tolist()]
    assert sieve_mod._moduli(2, 30)[0].tolist() == sorted([27, 32] + squares[2:])


@pytest.mark.parametrize("r", [2, 3, 40, 62])
def test_one_held_moduli_table_per_r_and_form(r):
    # The kernel's moduli, which count_r_free reads too: q = p^a < 2^63 ascending, a the
    # exponents of 2 and 3 that its pattern leaves (_BASES') and r from 5 on, and for every
    # cut c >= 5 the first pi(c) entries are the moduli of the primes up to c, as
    # _window_chunks reads them.  The one table is held under r.
    import pimshort.sieve as sieve_mod

    top = 1 << (21 if r == 2 else 16)
    held = sieve_mod._moduli(r, top)
    primes = primes_upto(top)
    cuts = [5, 6, 30, top, *random.Random(r).sample(range(7, top), 12)]
    q, p, a = held
    assert a.dtype == np.uint8 and not any(v.flags.writeable for v in (q, p, a))
    moduli = list(zip(q.tolist(), p.tolist(), a.tolist()))
    assert all(m == b**e < MAX_N and e == sieve_mod._BASES.get(b, r) for m, b, e in moduli)
    assert all(m < n for (m, _, _), (n, _, _) in zip(moduli, moduli[1:]))
    fits = np.array([b for b in primes.tolist() if b ** sieve_mod._BASES.get(b, r) < MAX_N])
    for c in cuts:
        first = p[: np.searchsorted(primes, c, "right")]
        assert np.array_equal(np.sort(first), fits[fits <= c]), c
    assert all(x is y for x, y in zip(held, sieve_mod._moduli(r, 5)))
    assert sieve_mod._held_moduli[r][1] is q
    if r >= 40:
        assert q.tolist() == [27, 32]
    if r == 2:  # the largest cut of any window, 2^21
        assert q.size == primes.size == 155_611
        assert q[:4].tolist() == [25, 27, 32, 49] and a[:4].tolist() == [2, 3, 5, 2]
        assert q[-1] == int(primes[-1]) ** 2


@pytest.mark.parametrize("r", [255, 256, 300, 1000])
def test_threshold_past_uint8_counts_every_window_r_free(r):
    # No p^a with a >= 63 lies below 2^63, so under a rule at r >= 63 every window is
    # r-free, and no modulus carries an exponent past uint8.
    import pimshort.sieve as sieve_mod

    rule = load_custom_rule(json.dumps({"name": f"threshold-{r}", "r": r, "values": [1] * r + [2]}))
    x, y = 10**6, 100
    assert count_value(rule, 1, x, y) == y
    assert count_value(rule, 2, x, y) == 0
    assert value_counts(rule, x, y) == {1: y}
    xs, ys = [0, x, 10**12, MAX_N - 1001], [1, y, 1000, 1000]
    assert sieve_mod._count_windows(rule, 1, xs, ys) == ys
    assert sieve_mod._moduli(r, 3)[0].tolist() == [27, 32]


def test_r_free_windows_at_multiples_of_2_and_3_to_the_r():
    # The r-free count marks 2^r and 3^r itself, apart from the kernel's moduli 32 and 27 and
    # their hits.  Windows of one to three integers from m 2^r - 1, m 2^r and m 3^r, for
    # m = 1, a seeded odd m and the largest m that keeps the window below 2^63, are counted
    # in one list per r against the brute oracle.
    import pimshort.sieve as sieve_mod

    rng = random.Random(60)
    for r in (*range(2, 9), 39, 40, 62):
        windows = []
        for q, starts in ((2**r, (-1, 0)), (3**r, (0,))):
            top = (MAX_N - 4) // q
            for m in {1, 2 * rng.randrange((top + 1) // 2) + 1, top} if top else ():
                windows += [(m * q + d - 1, n) for d in starts for n in (1, 2, 3)]
        x, y = (list(v) for v in zip(*windows))
        want = [count_r_free_brute(a, b, r) for a, b in windows]
        assert sieve_mod._r_free_windows(x, y, r) == want, r


@pytest.mark.parametrize("base, starts", [(0, range(300)), (10**12, range(0, 900, 7))])
def test_every_prime_applied_exactly_once(base, starts):
    # Tiny windows against the pure-Python sieve, at every start modulo
    # 2^5 * 3^3 = 864 near 0 and at 129 starts near 1e12, with lengths
    # below and around 4, 9, 27 and 864, so that no prime is counted by
    # two paths (the 2-and-3 pattern, the strided list, the buckets, the
    # cofactor walk) or by none.
    lengths = (1, 2, 3, 4, 5, 8, 9, 26, 27, 30, 100, 865)
    y_all = 900 + 865
    parts = sieve_segment(base, y_all)
    segment = [parts.get(n, ()) for n in range(base + 1, base + y_all + 1)]
    for rule in (*builtin_rules(), build_rule("powerdiv-r:3"), _huge_rule()):
        fvals = [eval_rule(rule, f) for f in segment]
        for i in starts:
            for y in lengths:
                expected = dict(sorted(Counter(fvals[i : i + y]).items()))
                assert value_counts(rule, base + i, y) == expected, (rule.name, i, y)
    for r in (2, 3, 4, 6):
        free = [all(e < r for _, e in f) for f in segment]
        for i in starts:
            for y in lengths:
                assert count_r_free(base + i, y, r) == sum(free[i : i + y]), (r, i, y)


def test_pattern_across_chunk_edges(monkeypatch):
    # Chunks of 1000 offsets, not a multiple of 864, from starts that are
    # not multiples of 864 either: each chunk takes the pattern at its own
    # phase, and the passes over 32 and 27 start at their own offsets.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    rules = (*builtin_rules(), build_rule("powerdiv-r:3"), _huge_rule())
    for x, y in ((2**20 - 2599, 5321), (10**12 + 4321, 4100), (3**25 - 1729, 3500)):
        assert all((x + 1 + c) % 864 for c in range(0, y, 1000))
        segment = sieve_segment(x, y)
        for rule in rules:
            expected = _segment_profile(rule, segment, y)
            assert value_counts(rule, x, y) == dict(sorted(expected.items())), (rule.name, x)
            assert count_value(rule, 1, x, y) == expected[1], (rule.name, x)
        for r in (2, 3, 4):
            assert count_r_free(x, y, r) == _r_free_in_segment(segment, y, r), (r, x)


def _window_profiles(r, x, y):
    # Each window's code counts, read off the table of one list call of the signature kernel.
    import pimshort.sieve as sieve_mod

    codes, counts = sieve_mod._profile_windows(r, x, y)
    return [Counter({code: c for code, c in zip(codes.tolist(), column) if c})
            for column in counts.T.tolist()]


@pytest.mark.parametrize("base, starts", [(0, range(300)), (10**12, range(0, 900, 7))])
def test_window_lists_apply_every_prime_exactly_once(base, starts):
    # The windows of test_every_prime_applied_exactly_once, and some at the strided edges
    # 64 q - 1 and 64 q for q = 25, 27 and 32, as one list call per rule (at its most
    # common f above 1) and per r: packed back to back, many to a chunk, against the
    # pure-Python sieve.
    import pimshort.sieve as sieve_mod

    lengths = (1, 2, 3, 4, 5, 8, 9, 26, 27, 30, 100, 865)
    edges = (1599, 1600, 1727, 1728, 2047, 2048)
    y_all = 900 + 2048
    parts = sieve_segment(base, y_all)
    segment = [parts.get(n, ()) for n in range(base + 1, base + y_all + 1)]
    windows = [(i, n) for i in starts for n in lengths]
    windows += [(i, n) for i in starts[::40] for n in edges]
    x, y = [base + i for i, _ in windows], [n for _, n in windows]

    def per_window(flags):
        prefix = np.concatenate(([0], np.cumsum(flags)))
        return [int(prefix[a - base + b] - prefix[a - base]) for a, b in zip(x, y)]

    for rule in (*builtin_rules(), build_rule("powerdiv-r:3"), _huge_rule()):
        fvals = [eval_rule(rule, f) for f in segment]
        k = Counter(f for f in fvals if f > 1).most_common(1)[0][0]
        got = sieve_mod._count_windows(rule, k, x, y)
        assert got == per_window([f == k for f in fvals]), (rule.name, k)
    for r in (2, 3):
        codes = [prod(primes_upto(311)[a - 1].item() for _, a in f if a >= r) for f in segment]
        want = [Counter(codes[a - base : a - base + b]) for a, b in zip(x, y)]
        assert _window_profiles(r, x, y) == want, r
    for r in (2, 3, 4, 6):
        free = [all(e < r for _, e in f) for f in segment]
        assert sieve_mod._r_free_windows(x, y, r) == per_window(free), r


@pytest.mark.parametrize("chunk", [1000, 5000])
def test_window_lists_equal_their_windows_alone(monkeypatch, chunk):
    # One list call per rule and k, and per r, over windows of every kind a pack meets: y = 1,
    # a duplicate, an overlap, one window past a chunk among tiny ones (two chunks of 5000
    # offsets or five of 1000), and windows ending just below and just above 2^46, where the
    # list's profile is uint32 for all of them.  Each window's counts equal those of the
    # window counted alone.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", chunk)
    windows = [(10**6, 1), (10**6, 1), (10**6 - 500, 2000), (7, 1), (10**9, 7000),
               (10**6 + 3, 30), (2**46 - 1000, 500), (2**46 - 300, 600), (0, 64)]
    x, y = (list(v) for v in zip(*windows))
    for rule in (*builtin_rules(), build_rule("powerdiv-r:3"), _huge_rule()):
        for k in (1, 2, 100):
            want = [count_value(rule, k, a, b) for a, b in windows]
            assert sieve_mod._count_windows(rule, k, x, y) == want, (rule.name, k)
    for r in (2, 3):
        assert _window_profiles(r, x, y) == [_window_profiles(r, [a], [b])[0]
                                            for a, b in windows], r
        assert sieve_mod._r_free_windows(x, y, r) == [count_r_free(a, b, r) for a, b in windows]


def test_segments_tile_their_chunks_in_window_order(monkeypatch):
    # The list forms read each window's share of a chunk off its segments.  With chunks of
    # 1000 offsets, tiny windows, a duplicate and a window of 2500 offsets (three chunks):
    # every chunk is tiled by its segments back to back from offset 0, in window order, and
    # each window's segments continue n0 from x + 1 and sum to its y.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    windows = [(10**6, 30), (10**6, 30), (7, 1), (5 * 10**6, 2500), (10**12, 1), (10**9, 40)]
    x, y = (list(v) for v in zip(*windows))
    order, held = [], [[] for _ in windows]  # window of each segment; (n0, length) per window
    for segments, fval in sieve_mod._fvalue_chunks(build_rule("abelian"), x, y, 2):
        ends = list(accumulate((cy for _, _, cy, _, _ in segments), initial=0))
        assert [start for *_, start, _ in segments] == ends[:-1] and ends[-1] == fval.size
        for w, n0, cy, _, _ in segments:
            order.append(w)
            held[w].append((n0, cy))
    assert order == sorted(order) and set(order) == set(range(len(windows)))
    assert len(held[3]) == 3
    for (a, b), parts in zip(windows, held):
        assert [n0 for n0, _ in parts] == list(accumulate((cy for _, cy in parts[:-1]), initial=a + 1))
        assert sum(cy for _, cy in parts) == b


def test_window_lists_near_2_63_and_past_the_r_th_powers():
    # Windows around p^2 and 2 p^2 near 2^63, p above the cut, take their hits from the
    # cofactor side at their own offsets in the list, against rho_factorize.  At r = 40, 2^40
    # is the one multiple of a 40th power: 2^r > x+y in the windows below it.
    import pimshort.sieve as sieve_mod

    p = _prime_at_or_below(introot((MAX_N - 1) // 2 - 100, 2))
    windows = [(10**6, 50), (p * p - 40, 80), (7, 1), (2 * p * p - 1, 1), (2 * p * p - 30, 60)]
    x, y = (list(v) for v in zip(*windows))
    facts = [_factorized_window(a, b) for a, b in windows]
    abelian = build_rule("abelian")
    for w, profile in enumerate(_window_profiles(2, x, y)):
        assert sieve_mod._fold(abelian, profile.items()) == dict(
            sorted(Counter(eval_rule(abelian, f) for f in facts[w]).items())), windows[w]
    for r in (2, 3):
        free = [sum(all(a < r for _, a in f) for f in fw) for fw in facts]
        assert sieve_mod._r_free_windows(x, y, r) == free, r
    assert sieve_mod._count_windows(abelian, 1, x, y) == [
        sum(eval_rule(abelian, f) == 1 for f in fw) for fw in facts]
    x, y = [10**6, 2**40 - 50, 7, 2**40 + 1], [1000, 100, 1, 5]
    assert sieve_mod._r_free_windows(x, y, 40) == [1000, 99, 1, 5]
    assert sieve_mod._count_windows(build_rule("powerdiv-r:40"), 1, x, y) == [1000, 99, 1, 5]


@pytest.mark.parametrize("p", [2, 37])
def test_prime_square_product_across_the_cut(monkeypatch, p):
    # n = p^2 q^2 with p in the pattern of 2 and 3 (2) or in the buckets (37) and
    # q = 2003 above the cut (x+y)^(1/3) = 1764 (no floor under the cut),
    # found from the cofactor side.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    monkeypatch.setattr(sieve_mod, "_PRIME_FLOOR", 1)
    n = (p * 2003) ** 2
    x, y = n - 3500, 5000  # n sits at offset 3499, in the fourth chunk
    assert p <= introot(x + y, 3) < 2003
    abelian = build_rule("abelian")
    assert sieve_segment(x, y)[n] == ((p, 2), (2003, 2))
    assert _check_kernel_against_segment(abelian, x, y)[4] >= 1


def _factorized_window(x, y):
    return [rho_factorize(n) for n in range(x + 1, x + y + 1)]


def test_window_ending_at_2_63_for_every_rule(monkeypatch):
    # Two chunks of 1000 offsets below 2^63 - 1, against rho_factorize.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    y = 1200
    x = MAX_N - 1 - y
    facts = _factorized_window(x, y)
    huge = _huge_rule()
    for rule in (*builtin_rules(), huge):
        expected = Counter(eval_rule(rule, f) for f in facts)
        assert value_counts(rule, x, y) == dict(sorted(expected.items())), rule.name
        assert count_value(rule, 1, x, y) == expected[1], rule.name
    for r in (2, 3, 4):
        assert count_r_free(x, y, r) == sum(all(a < r for _, a in f) for f in facts), r


def _prime_at_or_below(v):
    while rho_factorize(v) != ((v, 1),):
        v -= 1
    return v


@pytest.mark.parametrize("r", [2, 3, 4])
def test_large_prime_powers_near_2_63(monkeypatch, r):
    # A multiple of p^r just above (x+y)^(1/(r+1)), and one of the largest
    # p^r below 2^63, each in a window near 2^63, against rho_factorize; with
    # the cut at that root and with its floor of 2^16 (at r = 4 the floor
    # puts every prime in the buckets).  The rules are the five families at
    # r = 2 and powerdiv-r:r above it, whose kernel walks the same p^r.
    import pimshort.sieve as sieve_mod

    rules = builtin_rules() if r == 2 else (build_rule(f"powerdiv-r:{r}"),)
    cut = introot(MAX_N - 1, r + 1)
    for p in (_prime_at_or_below(cut + 50), _prime_at_or_below(introot(MAX_N - 1, r))):
        n = (MAX_N - 1 - 50) // p**r * p**r
        x, y = n - 50, 100
        assert p > introot(x + y, r + 1)
        facts = _factorized_window(x, y)
        assert dict(facts[n - x - 1])[p] >= r
        for floor in (1, 1 << 16):
            monkeypatch.setattr(sieve_mod, "_PRIME_FLOOR", floor)
            assert count_r_free(x, y, r) == sum(all(a < r for _, a in f) for f in facts), (r, p)
            for rule in rules:
                expected = Counter(eval_rule(rule, f) for f in facts)
                assert value_counts(rule, x, y) == dict(sorted(expected.items())), rule.name


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("top", [10**16, MAX_N - 1], ids=["1e16", "2_63"])
def test_window_ends_on_a_large_prime_power(r, top):
    # A window whose left end x = m p^r is left out, and one whose right end
    # x + y = m p^r is counted, with p prime above the cut and m at 1 and at
    # the first cofactor of the second block (3 where the walk stops before it).
    # Each end's root is an exact integer, where the float root meets the
    # near-integer test.  Against rho_factorize.
    import pimshort.sieve as sieve_mod

    rule = build_rule("abelian" if r == 2 else f"powerdiv-r:{r}")
    y = 40
    cut = max(introot(top, r + 1), 1 << 16)
    for m in [m for m in (1, sieve_mod._COFACTOR_BLOCK + 1, 3) if (cut + 1) ** r * m <= top - y][:2]:
        p = _prime_at_or_below(introot((top - y) // m, r))
        assert p > cut
        n = m * p**r
        assert dict(rho_factorize(n))[p] >= r
        for x in (n, n - y):
            expected = Counter(eval_rule(rule, f) for f in _factorized_window(x, y))
            assert value_counts(rule, x, y) == dict(sorted(expected.items())), (m, x)
            assert count_value(rule, 1, x, y) == expected[1], (m, x)


@pytest.mark.parametrize("r", [40, 62, 64])
def test_rule_thresholds_past_the_int64_powers(r):
    # At r >= 40, 3^r passes int64 and the cut is 3; 2^62 is the one 40th
    # (and 62nd) power in these windows, where powerdiv-r:40 and :62 take
    # f = 2.  Against rho_factorize, at 1e6, around 2^62 and ending at 2^63 - 1.
    rule = build_rule(f"powerdiv-r:{r}")
    for x, y in ((10**6, 1000), (2**62 - 50, 100), (MAX_N - 101, 100)):
        expected = Counter(eval_rule(rule, f) for f in _factorized_window(x, y))
        assert value_counts(rule, x, y) == dict(sorted(expected.items())), (r, x)
        assert count_value(rule, 1, x, y) == expected[1], (r, x)
    assert value_counts(rule, 2**62 - 50, 100) == ({1: 99, 2: 1} if r < 64 else {1: 100})


def test_kernel_walks_at_the_rule_threshold(monkeypatch):
    # powerdiv-r:3 has g = 1 below 3, so every strided pass, bucket hit and
    # cofactor hit of its kernel is a multiple of p^3.  With no floor under
    # the cut (x+y)^(1/4) = 1006, 5^3 .. 13^3 take strided passes over the
    # 150,000 offsets (64 p^3 <= 150,000), 17^3 .. 997^3 go to the buckets and
    # the 1009^3 | n come from the cofactor side.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "_PRIME_FLOOR", 1)
    passes, hits = [], []
    tables, exponents = sieve_mod._kernel_tables, sieve_mod._exponents

    class Ruler(np.ndarray):  # records (p, a) at each strided pass, which reads its ruler once
        def __getitem__(self, key):
            passes.append(self.modulus)
            return super().__getitem__(key).view(np.ndarray)

    def tables_spy(*key):
        gtab, pattern, rulers = tables(*key)
        spied = []
        for p, q, a, K, ruler in rulers:
            spied.append((p, q, a, K, ruler.view(Ruler)))
            spied[-1][4].modulus = p, a
        return gtab, pattern, tuple(spied)

    def exponents_spy(n, p, r):
        e = exponents(n, p, r)
        hits.extend(zip(n.tolist(), p.tolist(), e.tolist()))
        return e

    monkeypatch.setattr(sieve_mod, "_kernel_tables", tables_spy)
    monkeypatch.setattr(sieve_mod, "_exponents", exponents_spy)
    rule = build_rule("powerdiv-r:3")
    n = 1009**3 * 1000
    x, y = n - 75_000, 150_000
    assert introot(x + y, 4) == 1006
    expected = _segment_profile(rule, sieve_segment(x, y), y)
    assert value_counts(rule, x, y) == dict(sorted(expected.items()))
    assert {a for p, a in passes if p >= 5} == {3}
    assert {p for p, _ in passes if p >= 5} == {5, 7, 11, 13}
    assert all(e >= 3 and m % p**e == 0 and m % p ** (e + 1) for m, p, e in hits)
    assert {p for _, p, _ in hits} >= {17, 1009}
    assert (n, 1009, 3) in hits


def test_count_r_free_huge_r():
    # At r = 40 and above, 2^r exceeds x + y and nothing is walked, however
    # large r is.
    assert count_r_free(10**12, 10**3, 10**6) == 10**3
    assert count_r_free(10**12, 10**3, 40) == 10**3
    # 2^40 = 2 * 2^39 is the one multiple of a 39th power in the window.
    assert count_r_free(2**40 - 50, 100, 39) == 99
    assert count_r_free(2**40 - 50, 100, 40) == 99
    assert count_r_free(2**40 - 50, 100, 41) == 100
    # The top of the int64 range: 2^62 is the one 62nd power below 2^63.
    assert count_r_free(2**62 - 10, 10, 62) == 9
    assert count_r_free(2**62 - 11, 10, 62) == 10
    assert count_r_free(2**63 - 11, 10, 63) == 10


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_vector_root_is_exact(r):
    # _iroots reads floor(root_r(x // m)) as fl(x^(1/r)) * m^(-1/r).  Each input v
    # comes in as x // m = v, at x = v m and x = v m + m - 1, for m from 1 to past
    # the deepest window's cofactors; each root must be int64 and equal introot(v).
    import pimshort.sieve as sieve_mod

    top = introot(MAX_N - 1, r)
    rng = random.Random(r)
    bases = [1, 2, 3, top - 1, top] + [rng.randrange(2, top) for _ in range(300)]
    values = {0, MAX_N - 1} | {min(s**r + d, MAX_N - 1) for s in bases for d in (-1, 0, 1)}
    values = sorted(values | {rng.randrange(1 << rng.randrange(1, 64)) for _ in range(300)})
    # floor((s + 1/2)^r): every root lies about 1/2 from an integer, so none takes introot.
    halves = [(2 * s + 1) ** r >> r for s in bases if s < top]
    f = np.array(halves, dtype=np.float64) ** (1.0 / r)
    assert (np.abs(f - np.rint(f)) > 0.1).all()
    for m in (1, 2, 3, 1 << 13, 10**12 + 39):
        one = np.array([m], dtype=np.int64)
        for inputs in (values, halves):
            for d in (0, m - 1):
                roots = sieve_mod._iroots(tuple(v * m + d for v in inputs), one, r)
                assert all(s.dtype == np.int64 and s.shape == (1,) for s in roots)
                assert [int(s[0]) for s in roots] == [introot(v, r) for v in inputs], (m, d)
        # An empty block of cofactors.
        (empty,) = sieve_mod._iroots((m,), np.empty(0, dtype=np.int64), r)
        assert empty.dtype == np.int64 and empty.size == 0


def test_deep_windows_keep_a_time_and_memory_budget():
    # Windows near 2^63 and at 1e18 sieve only to (x+y)^(1/3) and walk
    # about as many cofactors: well under 2 s and 60 MB together (VmHWM,
    # as in test_wide_windows_stay_small_in_memory).
    code = (
        "import time\n"
        "from pimshort.rules import build_rule\n"
        "from pimshort.sieve import count_value\n"
        "abelian = build_rule('abelian')\n"
        "t = time.perf_counter()\n"
        "count_value(abelian, 1, 2**63 - 10**4 - 1, 10**4)\n"
        "count_value(abelian, 1, 10**18, 10**4)\n"
        "print(time.perf_counter() - t)\n"
        "print(next(s.split()[1] for s in open('/proc/self/status') if s.startswith('VmHWM')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    seconds, hwm_kb = out.stdout.split()
    assert float(seconds) < 2
    assert int(hwm_kb) / 1024 < 60


def test_count_r_free_cubes_across_chunk_boundaries(monkeypatch):
    # 11^3 = 1331 is above the 1000-offset chunk and has several multiples
    # in the window; 2^3..7^3 stay on the strided path.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    for x, y in ((10**7 + 1, 7000), (2**30 - 3333, 4321)):
        assert count_r_free(x, y, 3) == _r_free_in_segment(sieve_segment(x, y), y, 3), (x, y)


def test_wide_windows_stay_small_in_memory():
    # Chunks of 2^20 offsets keep the working arrays near 8 MB each; the
    # whole process, interpreter and numpy included, stays under 90 MB.
    # The peak is VmHWM: ru_maxrss survives exec, so in a child of this
    # process it would report the test runner's own peak.
    code = (
        "from pimshort.rules import build_rule\n"
        "from pimshort.sieve import count_value, value_counts\n"
        "abelian = build_rule('abelian')\n"
        "value_counts(abelian, 0, 10**7)\n"
        "count_value(abelian, 1, 10**11, 3 * 10**7)\n"
        "print(next(s.split()[1] for s in open('/proc/self/status') if s.startswith('VmHWM')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) / 1024 < 90


def test_deep_window_counts():
    abelian = build_rule("abelian")
    y = 2000
    x = 10**16 - y
    assert count_value(abelian, 1, x, y) == count_r_free(x, y, 2)
    assert sum(value_counts(abelian, x, y).values()) == y


def test_counting_builds_no_prime_table_above_the_cube_root(monkeypatch):
    # The sieve takes its primes up to cut = (x+y)^(1/3) from the shared
    # table and finds the larger ones, up to sqrt(x+y) = 1e8, from the
    # cofactor side; at r = 3 the cut is (x+y)^(1/4), or 2^16 if higher.
    import pimshort.factor as factor_mod

    monkeypatch.setattr(factor_mod, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor_mod, "_prime_limit", 1)
    factor_mod._trial_primes.cache_clear()
    x, y = 10**16 - 1000, 1000
    count_value(build_rule("plane"), 2, x, y)
    count_r_free(x, y, 2)
    count_r_free(x, y, 3)
    assert factor_mod._prime_limit <= introot(x + y, 3)
    # A table that needs exact Python ints runs the same kernel.
    values = [1, 1] + [10**25] * (ALPHA_MAX - 1)
    huge = load_custom_rule(json.dumps({"name": "huge", "r": 2, "values": values}))
    count_value(huge, 10**25, x, y)
    value_counts(huge, x, y)
    assert factor_mod._prime_limit <= introot(x + y, 3)


def test_counting_grows_the_table_through_primes_upto(monkeypatch):
    # The counting kernel reaches the shared table only through primes_upto,
    # so a wrapper of the sieve's binding sees every limit it asks for.
    import pimshort.factor as factor_mod
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(factor_mod, "_prime_array", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(factor_mod, "_prime_limit", 1)
    factor_mod._trial_primes.cache_clear()
    limits = []
    monkeypatch.setattr(sieve_mod, "primes_upto",
                        lambda limit: limits.append(limit) or primes_upto(limit))
    count_value(build_rule("abelian"), 1, 10**16 - 10**4, 10**4)
    assert any(limit >= introot(10**16, 3) for limit in limits), limits


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

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(sieve_mod, "multiprocessing", SimpleNamespace(Pool=CountedPool))
    abelian, huge = build_rule("abelian"), _huge_rule()
    x = 10**7
    profiles = {y: value_counts(abelian, x, y) for y in (7001, 21000, 30000)}
    # 462 counts on uint32, in this process.  No unsigned dtype holds (10^10 + 1)^2,
    # so the huge rule's f = 10^10 (the exponents >= 2 of n sum to 10) is read from
    # value_counts.
    k, big = max(profiles[30000]), 10**10
    assert k == 462
    counts = {y: count_value(abelian, k, x, y) for y in (7001, 30000)}
    huge_counts = {y: value_counts(huge, x, y)[big] for y in (7001, 14000, 30000)}
    assert huge_counts == {7001: 9, 14000: 15, 30000: 35}
    clipped = count_value(abelian, 1, x, 30000)
    # Chunks of 7001 offsets: y = 7001, 14000, 21000 and 30000 take 1, 2, 3 and 5.
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 7001)
    cpu_calls = []

    def cpus(n):
        return lambda: cpu_calls.append(n) or n

    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(1))
    assert count_value(huge, big, x, 30000, workers=8) == huge_counts[30000]
    assert value_counts(abelian, x, 30000, workers=64) == profiles[30000]
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(None))
    assert count_value(huge, big, x, 14000, workers=8) == huge_counts[14000]
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(4))
    assert value_counts(abelian, x, 21000, workers=8) == profiles[21000]
    assert count_value(huge, big, x, 30000, workers=2) == huge_counts[30000]
    assert pools == [3, 2]
    # One chunk, one worker, or a clipped count (k = 1 or 462) starts no pool and
    # asks for no CPU count.
    del cpu_calls[:]
    assert value_counts(abelian, x, 7001, workers=8) == profiles[7001]
    assert count_value(huge, big, x, 7001, workers=8) == huge_counts[7001]
    assert count_value(huge, big, x, 30000) == huge_counts[30000]
    assert count_value(abelian, k, x, 7001, workers=8) == counts[7001]
    assert count_value(abelian, k, x, 30000, workers=8) == counts[30000] == profiles[30000][k]
    assert count_value(abelian, 1, x, 30000, workers=8) == clipped
    assert cpu_calls == []
    assert pools == [3, 2]
    assert count_value(huge, big, x, 30000, workers=8) == huge_counts[30000]
    assert pools == [3, 2, 4]


@pytest.mark.parametrize("call", [
    lambda rule, workers: count_value(rule, 1, 10**6, 100, workers=workers),
    lambda rule, workers: count_value(rule, 2**32 - 1, 10**6, 100, workers=workers),
    lambda rule, workers: value_counts(rule, 10**6, 100, workers=workers),
], ids=["clipped", "exact", "value_counts"])
def test_workers_below_one_raise(call):
    # The clipped count runs in one process whatever workers asks, but still checks it;
    # past k = 2^32 - 2 the exact count is read from value_counts.
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            call(build_rule("abelian"), workers)


def test_rule_past_int64_counts_from_the_signature():
    # A custom table with a huge value makes f exceed int64: the kernel counts
    # signatures, and each code's f is an exact Python int.
    values = [1, 1] + [10**25] * (ALPHA_MAX - 1)
    rule = load_custom_rule(json.dumps({"name": "huge", "r": 2, "values": values}))
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
    rule = load_custom_rule(json.dumps({"name": "abelian-g40", "r": 2, "values": values}))
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


def test_count_value_reads_k_as_an_index():
    # A numpy integer counts as the int it holds, on the clipped uint8 accumulator too, and
    # a float k is refused.
    abelian = build_rule("abelian")
    for k in (np.int64(2), np.uint8(2)):
        assert count_value(abelian, k, 10**12, 10**4) == count_value(abelian, 2, 10**12, 10**4)
    with pytest.raises(TypeError):
        count_value(abelian, 2.0, 10**12, 10**4)


class _Guarded(tuple):
    # A rule table that raises on any read past exponent 62, whole or one at a time.
    def __iter__(self):
        raise AssertionError("the whole table was read")

    def __getitem__(self, key):
        index = range(len(self))[key]
        if (max(index, default=0) if isinstance(key, slice) else index) > 62:
            raise AssertionError(f"g read past exponent 62 at {key}")
        return super().__getitem__(key)


@pytest.mark.parametrize("x", [10**12, 2**62 - 10**4 - 1], ids=["1e12", "2_62"])
def test_kernel_reads_no_g_past_exponent_62(x):
    # No n < 2^63 has an exponent past 62, so the kernel and the fold read g(0..62) alone.
    for rule in (build_rule("abelian"), _huge_rule()):
        guarded = replace(rule, values=_Guarded(rule.values))
        for k in (1, 2):
            assert count_value(guarded, k, x, 10**4) == count_value(rule, k, x, 10**4), rule.name
        assert value_counts(guarded, x, 10**4) == value_counts(rule, x, 10**4), rule.name


def test_weight_series_read_no_g_past_exponent_62():
    # The r-full rows below 2^63 have no exponent past 62, so h's rows stop there too.  The
    # guarded rule equals the plain one as a cache key, so the rows are built afresh.
    for rule in (build_rule("abelian"), _huge_rule()):
        guarded = replace(rule, values=_Guarded(rule.values))
        _local_weights.cache_clear()
        for call in (lambda f: weight_partial_sum(f, 2, 0.5, 10**4),
                     lambda f: weight_harmonic_profile(f, 10**6, 6),
                     lambda f: density_profile(f, 10**6, 6)):
            assert call(guarded) == call(rule), rule.name


def _edge_rule(*values):
    # g(2), g(3), ... = values, then 2 up to g(64).
    values = [1, 1, *values] + [2] * (63 - len(values))
    return load_custom_rule(json.dumps({"name": "edge", "r": 2, "values": values}))


@pytest.mark.parametrize("k", [16, 256, 65536])  # k past the uint8, uint16 and uint32 accumulators
def test_clipped_count_at_the_dtype_edges(k):
    # f(p^2 q^3) = k (k + 1): the partial product k meets the factor k + 1 = cap,
    # and a dtype too narrow for cap^2 wraps k (k + 1) back to k.  At 500 the
    # factor of 5 comes in as a bucket hit, and in the window (199, 799] by a
    # strided pass; 1009^2 1013^3 takes two large-prime hits on one offset.
    rule = _edge_rule(k, k + 1)
    for n in (2**2 * 5**3, 1009**2 * 1013**3):
        assert count_value(rule, k, n - 1, 1) == 0, n
        assert count_value(rule, k * (k + 1), n - 1, 1) == 1, n
    assert count_value(rule, k, 199, 600) == count_k_brute(rule, k, 199, 600)


def test_clip_follows_every_factor():
    # Unclipped, f = 14 * 5 * 7 * 11 = 5390 at n = 2^5 5^2 7^3 11^4 wraps to
    # 14 in uint8 (k = 14).  With y = 1 the factors of 5, 7 and 11 come in as
    # bucket hits on one offset, and in the wider window by strided passes.
    rule = _edge_rule(5, 7, 11, 14)
    n = 2**5 * 5**2 * 7**3 * 11**4
    assert count_value(rule, 14, n - 1, 1) == 0
    assert count_value(rule, 14, n - 150, 300) == value_counts(rule, n - 150, 300).get(14, 0)


def test_clip_only_where_it_narrows_the_accumulator(monkeypatch):
    # The accumulator is the narrowest unsigned dtype that holds (k + 1)^2, chosen
    # from k alone: a built-in rule and one with g(alpha) > 2^alpha get the same.
    # Where no such dtype exists, both read the signature profile, whose dtype holds
    # the largest code in reach: uint16 for x + y < 2^46 and uint32 above.
    used = _record_accumulators(monkeypatch)
    abelian, huge = build_rule("abelian"), _huge_rule()
    dtypes = {14: np.uint8, 254: np.uint16, 255: np.uint32, 65534: np.uint32,
              65535: np.uint64, 2**32 - 2: np.uint64}
    cases = {(rule, k): (rule.name, dtype) for k, dtype in dtypes.items() for rule in (abelian, huge)}
    cases |= {(rule, k): ("signature-r2", np.uint16)
              for k in (2**32 - 1, 10**12) for rule in (abelian, huge)}
    x, y = 3999, 1000
    assert count_k_brute(huge, 10**12, x, y) == 1  # n = 2^12 = 4096
    for (rule, k), accumulator in cases.items():
        assert count_value(rule, k, x, y) == count_k_brute(rule, k, x, y), (rule.name, k)
        assert used.pop() == accumulator, (rule.name, k)
    # f(2^62) = 10^62 for the huge rule, in the second window.
    for x, y, dtype in ((2**30 - 100, 100, np.uint16), (2**62 - 50, 100, np.uint32)):
        facts = _factorized_window(x, y)
        for rule, k in product((abelian, huge), (2**32 - 1, 10**12, 10**62)):
            assert count_value(rule, k, x, y) == sum(eval_rule(rule, f) == k for f in facts)
            assert used.pop() == ("signature-r2", dtype), (rule.name, k, x)


def test_clipped_counts_equal_the_exact_profile():
    # Every accumulator dtype against the exact values, over windows that pass
    # a 2^20-offset chunk edge and take cofactor-side hits.
    rules = (build_rule("abelian"), build_rule("powerdiv-r:3"), _huge_rule(), _edge_rule(254, 255, 256))
    for x in (10**12 - 5000, 3 * 10**13):
        y = (1 << 20) + 10000
        for rule in rules:
            profile = value_counts(rule, x, y)
            for k in (*range(1, 41), 100, 254, 255, 256, 65535):
                assert count_value(rule, k, x, y) == profile.get(k, 0), (rule.name, x, k)


# 2^11 3^5 5^5 7^3 11^2: the least n whose code sigma_2(n) = 31 11 11 5 3 = 56,265 is the
# largest below 2^46.
_LARGEST_CODE_N = 64_545_465_600_000


def _largest_codes(limits):
    # limit -> (largest sigma_2(n) over n < limit, least n with it).  The least n of each
    # code has non-increasing exponents >= 2 on 2, 3, 5, ...: a walk over those finds it.
    primes = primes_upto(311).tolist()
    best = dict.fromkeys(limits, (1, 1))

    def walk(i, n, code, top):
        for limit in limits:
            if n < limit and (code, -n) > (best[limit][0], -best[limit][1]):
                best[limit] = code, n
        m = n * primes[i] ** 2
        for a in range(2, top + 1):
            if m >= max(limits):
                break
            walk(i + 1, m, code * primes[a - 1], a)
            m *= primes[i]

    walk(0, 1, 1, 62)
    return best


def test_largest_signature_codes_below_2_46_and_2_63():
    # The profile's uint16 below 2^46 and uint32 above rest on these two maxima; r > 2
    # drops factors from sigma_2(n), so they bound every sigma_r.
    best = _largest_codes((2**46, 2**63))
    assert best[2**46] == (56_265, _LARGEST_CODE_N) and 56_265 < 2**16
    assert best[2**63][0] == 684_255 < 2**32
    for code, n in best.values():
        assert _signature_code(2, n) == code and code == prod(
            int(primes_upto(311)[a - 1]) for _, a in factorize(n))


def _signature_code(r, n):
    # sigma_r(n), read off a one-integer window of the signature kernel.
    (code,) = _window_profiles(r, [n - 1], [1])[0]
    return code


def test_signature_bounded_by_n_and_decoded_to_its_exponents():
    # sigma_r(n) <= (11/sqrt(32)) sqrt(n), so 32 sigma_r(n)^2 <= 121 n, with equality
    # at n = 32 and 288 alone: over every n up to 2^20, and at the int64 extremes: the
    # top powers of 2 and 3, and products of the least primes squared just below 2^63.
    # Each code decodes back to the exponents alpha >= r of n.
    import pimshort.sieve as sieve_mod

    for r, tight in ((2, [32, 288]), (3, [32])):  # sigma_3(288) = sigma_3(2^5) = 11
        ((_, codes),) = sieve_mod._fvalue_chunks(sieve_mod._signature_rule(r), [0], [1 << 20])
        slack = 121 * np.arange(1, 1 + (1 << 20)) - 32 * codes.astype(np.int64) ** 2
        assert slack.min() == 0 and (np.flatnonzero(slack == 0) + 1).tolist() == tight, r

    square = prod(p * p for p in primes_upto(23).tolist())  # (2 3 5 ... 23)^2 ~ 5.0e16
    extremes = [2**62, 3**39, 2**63 - 1, (MAX_N - 1) // square * square,
                square * 2**7, square * 3**4, square * 2**2 * 3**2 * 5]
    assert all(n < MAX_N for n in extremes)
    for n in extremes:
        exponents = sorted(a for _, a in rho_factorize(n))
        for r in (2, 3):
            code = _signature_code(r, n)
            assert 1 <= code and 32 * code**2 <= 121 * n, (n, r)
            assert code == prod(int(primes_upto(311)[a - 1]) for a in exponents if a >= r)
            assert sieve_mod._signature_exponents(code) == tuple(a for a in exponents if a >= r)
    assert _signature_code(2, 2**62) == 293  # prime(62)
    assert _signature_code(3, 2**2 * 3**3 * 5**5) == 5 * 11  # prime(3) prime(5); the 2^2 drops


@pytest.mark.parametrize("end, dtype", [(2**30 - 1, np.uint16), (2**30, np.uint16),
                                        (2**46 - 1, np.uint16), (2**46, np.uint32),
                                        (_LARGEST_CODE_N + 500, np.uint16),
                                        (2**62 - 1, np.uint32), (2**62, np.uint32)],
                         ids=["2_30-1", "2_30", "2_46-1", "2_46", "code-56265", "2_62-1", "2_62"])
def test_signature_profile_exact_at_the_dtype_edges(monkeypatch, end, dtype):
    # The profile's dtype holds the largest code below 2^46 (uint16) or 2^63 (uint32): it
    # widens as a window's end reaches 2^46.  The windows hold large codes within reach
    # of their ends: 455 at 1073736000 = 2^6 3^4 5^3 1657, within 10^4 below 2^30, the
    # largest of all below 2^46 (56,265), and 175 at 2^62 - 904, or 293 at 2^62 itself.
    used = _record_accumulators(monkeypatch)
    y = 10**4 if end < 2**31 else 1000
    facts = _factorized_window(end - y, y)
    for rule in (*builtin_rules(), _huge_rule()):
        expected = Counter(eval_rule(rule, f) for f in facts)
        assert value_counts(rule, end - y, y) == dict(sorted(expected.items())), rule.name
    assert used and all(chunk == ("signature-r2", dtype) for chunk in used)


@pytest.mark.parametrize("x, y", [(0, 5000), (0, 2**20 + 1), (2**46 - 3001, 3000),
                                  (2**46 - 2000, 3000), (2**62, 2000)],
                         ids=["0", "chunk-edge", "below-2_46", "above-2_46", "2_62"])
@pytest.mark.parametrize("r", [2, 3])
def test_signature_counts_equal_np_unique(r, x, y):
    # _profile_windows sorts each chunk in place and reads its counts off the runs; the
    # oracle counts fresh chunks of the same kernel with np.unique.  The windows start at
    # 0, cross a chunk edge, end just below and just above 2^46, and start at 2^62.
    import pimshort.sieve as sieve_mod

    expected = Counter()
    for _, codes in sieve_mod._fvalue_chunks(sieve_mod._signature_rule(r), [x], [y]):
        values, counts = np.unique(codes, return_counts=True)
        expected.update(dict(zip(values.tolist(), counts.tolist())))
    codes, counts = sieve_mod._profile_windows(r, [x], [y])
    assert counts.dtype == np.int64 and counts.shape == (codes.size, 1)
    got = dict(zip(codes.tolist(), counts[:, 0].tolist()))
    assert got == expected and list(got) == sorted(got) and sum(got.values()) == y
    folded = value_counts(sieve_mod._signature_rule(r), x, y)  # f = sigma_r: the codes again
    assert folded == got and all(type(f) is int and type(c) is int for f, c in folded.items())


def test_profile_table_against_the_exponent_oracle(monkeypatch):
    # The per-window contract of _profile_windows, one list call per r over seeded windows
    # near 10^12 and 2^62: one offset, lengths about the 64 multiples of the stride rule, the
    # pattern's period of 864 and chunks of 2^12 offsets, and one window across a chunk
    # edge.  The codes ascend, the counts are int64, and each column holds its window's
    # codes, built from the exponent oracle, and sums to its y.
    import pimshort.sieve as sieve_mod

    chunk = 1 << 12
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", chunk)
    lengths = (1, 63, 64, 65, 863, 864, 865, chunk - 1, chunk, chunk + 1000)
    span, rng = 10**4, random.Random(7)
    x, y, bases, oracle = [], [], [], {}
    for base in (10**12, 2**62):
        oracle[base] = squarefull_exponents(base, span + max(lengths))
        x += [base + rng.randrange(span) for _ in lengths]
        y += lengths
        bases += [base] * len(lengths)
    for r in (2, 3, 4):
        codes, counts = sieve_mod._profile_windows(r, x, y)
        assert counts.dtype == np.int64 and counts.shape == (codes.size, len(y))
        assert np.all(codes[1:] > codes[:-1]) and counts.sum(axis=0).tolist() == y
        sig = {base: [prod(_SIGNATURE_PRIMES[a] for a in e if a >= r) for e in exponents]
               for base, exponents in oracle.items()}
        for column, a, b, base in zip(counts.T.tolist(), x, y, bases):
            want = Counter(sig[base][a - base : a - base + b])
            assert {c: n for c, n in zip(codes.tolist(), column) if n} == want, (r, a, b)


@pytest.mark.parametrize("rule, x, y, ks", [
    (_huge_rule(), 4000, 30000, (1, 100, 10**3, 10**4, 10**6, 10**12)),
    (build_rule("powerdiv-r:3"), 10**6, 5000, (1, 2, 3, 4, 6, 300)),
], ids=["huge-rule", "powerdiv-r3"])
def test_every_tier_against_brute(rule, x, y, ks):
    # The clipped kernel in every dtype and the signature profile (the huge rule at
    # 10^12), each against factorizing every n;
    # test_rule_past_int64_counts_from_the_signature does the same for f past 2^63.
    profile = value_counts(rule, x, y)
    assert profile == value_counts_brute(rule, x, y)
    assert all(type(v) is int for v in profile)
    for k in ks:
        assert count_value(rule, k, x, y) == count_k_brute(rule, k, x, y), k


_TOP_POWERS = {"2^62": 2**62, "3^39": 3**39, "5^27": 5**27, "7^22": 7**22}


def _tier_rule(top_value):
    # g = 2 from alpha = 2 on, but top_value at the exponents of the four top powers.
    values = [1, 1] + [2] * 63
    for e in (22, 27, 39, 62):
        values[e] = top_value
    return load_custom_rule(json.dumps({"name": f"tier-{top_value}", "r": 2, "values": values}))


@pytest.mark.parametrize("top", _TOP_POWERS.values(), ids=_TOP_POWERS.keys())
def test_rulers_exact_at_the_top_prime_powers(monkeypatch, top):
    # top = p^e, the highest power of p below 2^63, is the one multiple of p^e in its
    # window, and its g lies far above the g on the ruler of p: the strided pass writes
    # the g at each p^(a+K) | n, top's among them, into a copy of the ruler's slice, which
    # must hold every g of the table.  With chunks of 4096 the window (top - 2400, top + 760]
    # is one chunk of 3160 offsets, so at r = 2 it strides q = p^a for 2^5, 3^3, 5^2 and
    # 7^2 alike (64 q <= 3136), and a spy sees the copy's exponents taken in the segment
    # that holds top wherever p's modulus is strided (at r = 3, 5^3 and 7^3 are hits).  The
    # tier rules count k = g(e) on the uint8, uint16, uint32 and uint64 accumulators and
    # the signature profile; abelian at 2^62 on uint64, plane and the huge rule on the
    # signature profile.  Each against squarefull_exponents, and at y = 1.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 4096)
    x, y, at = top - 2400, 3160, 2399  # top is n = x + 1 + at
    p = next(b for b in (2, 3, 5, 7) if top % b == 0)
    copies, copy_exponents = [], sieve_mod._small_prime_exponents

    def copy_spy(b, n0, cy, a):
        copies.append((b, n0, cy))
        return copy_exponents(b, n0, cy, a)

    monkeypatch.setattr(sieve_mod, "_small_prime_exponents", copy_spy)
    exponents = squarefull_exponents(x, y)
    tiers = [_tier_rule(t) for t in (14, 254, 65534, 2**32 - 2, 2**32 - 1)]
    named = [build_rule(name) for name in ("abelian", "plane", "powerdiv-r:3")] + [_huge_rule()]
    for rule in tiers + named:
        f = [prod(rule.values[a] for a in e) for e in exponents]
        assert f.count(f[at]) == 1, rule.name
        copies.clear()
        assert count_value(rule, f[at], x, y) == 1, rule.name
        strided = sieve_mod._STRIDED_MULTIPLES * p ** sieve_mod._BASES.get(p, rule.r) <= y
        assert any(b == p and n0 <= top < n0 + cy for b, n0, cy in copies) == strided, rule.name
        assert count_value(rule, f[at], top - 1, 1) == 1, rule.name
    for rule in named:
        f = [prod(rule.values[a] for a in e) for e in exponents]
        assert value_counts(rule, x, y) == dict(sorted(Counter(f).items())), rule.name


def test_ruler_cache_stays_under_its_bound(monkeypatch):
    # 300 distinct k over 2^20 + 1000 offsets ask for 300 (g, cap, r, dtype, span) entries,
    # one length class per call.  Every ruler handed out is watched: those alive after the calls
    # are the cache's, and hold no more than the 16 entries of 688,416 bytes its comment
    # bounds it by, 11 MB.
    import gc
    import weakref

    import pimshort.sieve as sieve_mod

    tables, watched = sieve_mod._kernel_tables, []

    def tables_spy(*key):
        out = tables(*key)
        watched.extend(weakref.ref(ruler) for *_, ruler in out[2])
        return out

    tables.cache_clear()
    monkeypatch.setattr(sieve_mod, "_kernel_tables", tables_spy)
    rule = build_rule("abelian")
    for k in range(1, 301):
        count_value(rule, k, 10**12, (1 << 20) + 1000)
    assert tables.cache_info().misses == 300
    gc.collect()
    held = {id(ruler): ruler.nbytes for ruler in (ref() for ref in watched) if ruler is not None}
    assert 0 < sum(held.values()) <= 16 * 688_416 < 16 << 20


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


@pytest.mark.parametrize("name, ks", [("abelian", (1, 2)), ("powerdiv-r:3", (1,))])
def test_count_spread_follows_halls_variance_law(name, ks):
    # Hall (Mathematika 29, 1982): over windows (x, x+y] with x in [1e11, 1e12), the
    # standard deviation of count - d y grows as y^(1/(2r)).  Its ratio to y^(1/(2r)) is
    # 0.41-0.93 over these 60 windows; it must stay within a factor of 2 from y = 1e4 to
    # 1e6, where a binomial spread, growing as y^(1/2), would move it 3.2-fold at r = 2.
    rule = build_rule(name)
    rng = random.Random(0)
    xs = [rng.randrange(10**11, 10**12) for _ in range(60)]
    for k in ks:
        d = local_density(rule, k, 10**6).density
        ratios = [statistics.stdev(count_value(rule, k, x, y) - d * y for x in xs)
                  / y ** (1 / (2 * rule.r)) for y in (10**4, 10**5, 10**6)]
        assert max(ratios) <= 2 * min(ratios), (k, ratios)


def test_r_free_spread_matches_halls_constant():
    # Hall (Mathematika 29, 1982): the mean square of count_r_free(x, y, 2) - y / zeta(2)
    # over x is ~ A y^(1/2), A = zeta(3/2) / pi * prod_p (1 - 3/p^2 + 2/p^3) = 0.2384.  Over
    # 300 windows with x in [1e11, 1e12), sd / (sqrt(A) y^(1/4)) reads 0.961-0.974 at seeds
    # 0 and 1, at y = 1e4 and 1e5.
    p = primes_upto(10**6).astype(np.float64)
    a = float(mpmath.zeta(1.5)) / pi * float(np.prod(1 - 3 / p**2 + 2 / p**3))
    rng = random.Random(0)
    xs = [rng.randrange(10**11, 10**12) for _ in range(300)]
    for y in (10**4, 10**5):
        sd = sqrt(statistics.fmean((count_r_free(x, y, 2) - y / zeta(2)) ** 2 for x in xs))
        assert 0.85 <= sd / (sqrt(a) * y**0.25) <= 1.15, y


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
    assert rfull_multiples_sum(100, 10, 2) == 3
    assert _multiples_sum_by_divisors(100, 10, 2) == 3
    # n = 2Y = 36 is r-full and divides 108 in (100, 118], but lies outside (2Y, 2X].
    assert multiples_sum_brute(100, 18, 2) == 1
    assert rfull_multiples_sum(100, 18, 2) == 1
    assert _multiples_sum_by_divisors(100, 18, 2) == 1


def test_multiples_sum_matches_brute_randomized():
    rng = random.Random(5150)
    for _ in range(15):
        x = rng.randrange(50, 3000)
        y = rng.randrange(1, x // 3 + 1)
        r = rng.choice((2, 3))
        expected = multiples_sum_brute(x, y, r)
        assert rfull_multiples_sum(x, y, r) == expected
        assert _multiples_sum_by_divisors(x, y, r) == expected


def test_multiples_sum_paths_agree_medium():
    for x, y, r in ((10**4, 10**2, 2), (10**4, 10**2, 3), (10**6, 10**3, 2), (10**5, 10**3, 4)):
        assert rfull_multiples_sum(x, y, r) == _multiples_sum_by_divisors(x, y, r)
    assert rfull_multiples_sum(10**5, 10**3, 4) == 4


def test_multiples_sum_validation():
    with pytest.raises(ValueError):
        rfull_multiples_sum(100, 100, 2)
    with pytest.raises(ValueError):
        rfull_multiples_sum(100, 200, 2)
    for r in (0, 1):
        with pytest.raises(ValueError, match="r >= 2"):
            rfull_multiples_sum(100, 10, r)
    # The r-full n run up to 2X, which must stay below 2^63.
    with pytest.raises(ValueError, match=r"2\*\*63"):
        rfull_multiples_sum(2**62, 10, 40)
    # 2^62 in (X, X + 10] is a multiple of every 2^e, 40 <= e <= 62.
    assert rfull_multiples_sum(2**62 - 1, 10, 40) == 23


@pytest.mark.parametrize("call", [
    lambda x, y: count_value(build_rule("abelian"), 1, x, y),
    lambda x, y: value_counts(build_rule("abelian"), x, y),
    lambda x, y: count_r_free(x, y, 2),
    lambda x, y: sieve_segment(x, y),
    lambda x, y: rfull_multiples_sum(x, y, 2),
], ids=["count_value", "value_counts", "count_r_free", "sieve_segment", "rfull_multiples_sum"])
def test_windows_read_x_and_y_by_operator_index(monkeypatch, call):
    # On a cold r-full table, then on the warm one that the int call leaves, a numpy integer x
    # or y gives the int's result and a float raises TypeError.
    from pimshort import density

    x, y = 10**6, 100
    want = call(x, y)
    for args in ((np.int64(x), y), (x, np.int64(y)), (np.int64(x), np.int64(y)),
                 (float(x), y), (x, float(y))):
        monkeypatch.setattr(density, "_tables", {})
        for _ in ("cold", "warm"):
            if float in map(type, args):
                with pytest.raises(TypeError):
                    call(*args)
            else:
                assert call(*args) == want
            call(x, y)
    # An int64 window end past 2^63 is refused, not wrapped (numpy's overflow is an error here).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"2\*\*63"):
            call(np.int64(2**62), np.int64(2**62))


@pytest.mark.parametrize("call, arg", [
    (lambda r: count_r_free(10**9, 10**4, r), 3),
    (lambda r: rfull_multiples_sum(10**6, 10**3, r), 2),
    (lambda r: rfull_count_bound(r, 10**9), 2),
    (lambda w: count_value(_huge_rule(), 10**10, 10**7, 7001, workers=w), 2),
    (lambda w: value_counts(build_rule("abelian"), 10**7, 7001, workers=w), 2),
    (zeta, 2),
    (lambda r: bound_breakdown(r, 1e9, 1e4), 2),
    (lambda r: admissible_window(r, 10**11, 10**6, 0.01), 2),
], ids=["count_r_free", "rfull_multiples_sum", "rfull_count_bound", "count_value",
        "value_counts", "zeta", "bound_breakdown", "admissible_window"])
def test_r_and_workers_read_by_operator_index(monkeypatch, call, arg):
    # On cold tables, then on the warm ones that the int call leaves, a numpy integer r or
    # workers gives the int's result and a float raises TypeError.  With chunks of 3000
    # offsets and two CPUs, workers = 2 splits a window of 7001 between two pool tasks.
    import pimshort.sieve as sieve_mod
    from pimshort import density

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 3000)
    monkeypatch.setattr(sieve_mod.os, "cpu_count", lambda: 2)
    pool = SimpleNamespace(starmap=starmap)  # the pool's tasks, run in this process
    monkeypatch.setattr(sieve_mod, "multiprocessing",
                        SimpleNamespace(Pool=lambda n: nullcontext(pool)))
    want = call(arg)
    for v in (np.uint8(arg), np.int64(arg), float(arg), arg + 0.5):
        monkeypatch.setattr(density, "_tables", {})
        monkeypatch.setattr(sieve_mod, "_held_moduli", {})
        for _ in ("cold", "warm"):
            if isinstance(v, float):
                with pytest.raises(TypeError):
                    call(v)
            else:
                assert call(v) == want
            call(arg)


def test_profile_windows_sort_each_segment_before_counting_runs():
    # Each segment is sorted in place, so a chunk of 2^20 codes near 1e12 leaves a few hundred
    # rows: 3.6 MB of traced peak, against 51 MB with a run per unsorted offset.
    import tracemalloc

    import pimshort.sieve as sieve_mod

    sieve_mod._profile_windows(2, [10**12], [10**4])  # the kernel tables and moduli, held
    tracemalloc.start()
    try:
        sieve_mod._profile_windows(2, [10**12], [1 << 20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak
