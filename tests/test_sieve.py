import json
import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from pimshort.bounds import zeta
from pimshort.density import local_density
from pimshort.factor import MAX_N, eval_rule, factorize, introot, primes_upto
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
from pimshort.verify import _multiples_sum_by_divisors

from oracles import (
    count_k_brute,
    count_r_free_brute,
    multiples_sum_brute,
    value_counts_brute,
)


def _squarefull_part(m):
    return tuple((p, e) for p, e in factorize(m) if e >= 2)


def _huge_rule():
    with open(os.path.join(os.path.dirname(__file__), "golden", "huge-rule.json")) as fh:
        return load_custom_rule(fh.read())


def test_segment_small_matches_factorize():
    for x, y in ((100, 10), (0, 10)):
        segment = sieve_segment(x, y)
        assert len(segment) == y
        for i in range(y):
            assert segment[i] == _squarefull_part(x + 1 + i), x + 1 + i


def test_segment_recomposition_high_base():
    # n is its squarefull part times a squarefree rest coprime to it.
    x, y = 10**10, 1000
    segment = sieve_segment(x, y)
    assert len(segment) == y
    for i, f in enumerate(segment):
        n = x + 1 + i
        part = 1
        for p, e in f:
            assert e >= 2
            part *= p**e
        assert n % part == 0
        rest = n // part
        assert all(rest % p for p, _ in f)
        assert all(e == 1 for _, e in factorize(rest))
        assert f == _squarefull_part(n)


def test_segment_is_the_squarefull_part():
    # 9973 is the largest prime up to sqrt(x + y) in the last window.
    n = 9973**2
    for x, y in ((10**6, 200), (n - 500, 1000)):
        segment = sieve_segment(x, y)
        assert len(segment) == y
        for i, m in enumerate(range(x + 1, x + y + 1)):
            assert segment[i] == _squarefull_part(m), m
    assert segment[499] == ((9973, 2),)


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
    for chunk in (1000, 7001, 1 << 20):
        monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", chunk)
        assert count_r_free(x, y, 2) == base_count, chunk
        for workers in (1, 2, 3):
            assert count_value(abelian, 1, x, y, workers=workers) == base_count, (chunk, workers)
            assert value_counts(abelian, x, y, workers=workers) == base_profile, (chunk, workers)


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


def _segment_profile(rule, x, y):
    # f over (x, x+y] from the pure-Python sieve of each n's squarefull part.
    return Counter(eval_rule(rule, f) for f in sieve_segment(x, y))


def _check_kernel_against_segment(rule, x, y):
    expected = _segment_profile(rule, x, y)
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
    assert sieve_segment(x, y)[n - x - 1] == ((37, 2), (41, 2))
    assert _check_kernel_against_segment(abelian, x, y)[4] >= 1


def test_object_rule_over_many_chunks(monkeypatch):
    import pimshort.sieve as sieve_mod

    huge = _huge_rule()
    assert sieve_mod._kernel_tables(huge)[0].dtype == object
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    x, y = 2**40 - 2750, 5500  # six chunks, the last one short
    expected = _check_kernel_against_segment(huge, x, y)
    assert expected[10**40] == 1  # n = 2^40, in the third chunk


def test_prime_above_the_cut_hits_several_chunks(monkeypatch):
    # With chunks of 1000 offsets, x + y = 51000 and no floor under the cut,
    # the cut is the prime 37: 37^2 goes to the buckets, and 41^2, 43^2, ...
    # come from the cofactor walk, several times each, in several chunks.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    monkeypatch.setattr(sieve_mod, "_CUT_FLOOR", 1)
    x, y = 0, 51_000
    assert introot(x + y, 3) == 37
    assert len({(n - x - 1) // 1000 for n in range(41**2, y + 1, 41**2)}) >= 25
    for rule in builtin_rules():
        _check_kernel_against_segment(rule, x, y)
    segment = sieve_segment(x, y)
    for r in (2, 3):  # at r = 3 the cut is 15, and 17^3 ... 37^3 are walked
        assert count_r_free(x, y, r) == sum(all(e < r for _, e in f) for f in segment), r


def test_primes_below_the_chunk_stay_strided():
    # The cut min(sqrt(x+y), 2^16) = 1732 is above sqrt(2^14) = 128; the
    # primes 5 <= p < 128 take the strided path, every larger one up to the
    # cut goes to a bucket, and 2 and 3 (applied by each kernel) to neither.
    import pimshort.sieve as sieve_mod

    chunks = list(sieve_mod._window_chunks(0, 3 * 10**6, 2))
    assert all(small == primes_upto(127)[2:] for _, _, small, _, _ in chunks)
    hit_primes = np.concatenate([p for *_, p in chunks])
    assert hit_primes.size and hit_primes.min() >= 128
    assert 131 in hit_primes


@pytest.mark.parametrize("base, starts", [(0, range(300)), (10**12, range(0, 900, 7))])
def test_every_prime_applied_exactly_once(base, starts):
    # Tiny windows against the pure-Python sieve, at every start modulo
    # 2^5 * 3^3 = 864 near 0 and at 129 starts near 1e12, with lengths
    # below and around 4, 9, 27 and 864, so that no prime is counted by
    # two paths (the 2-and-3 pattern, the strided list, the buckets, the
    # cofactor walk) or by none.
    lengths = (1, 2, 3, 4, 5, 8, 9, 26, 27, 30, 100, 865)
    segment = sieve_segment(base, 900 + 865)
    for rule in (*builtin_rules(), _huge_rule()):
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
    rules = (*builtin_rules(), _huge_rule())
    for x, y in ((2**20 - 2599, 5321), (10**12 + 4321, 4100), (3**25 - 1729, 3500)):
        assert all((x + 1 + c) % 864 for c in range(0, y, 1000))
        segment = sieve_segment(x, y)
        for rule in rules:
            expected = Counter(eval_rule(rule, f) for f in segment)
            assert value_counts(rule, x, y) == dict(sorted(expected.items())), (rule.name, x)
            assert count_value(rule, 1, x, y) == expected[1], (rule.name, x)
        for r in (2, 3, 4):
            assert count_r_free(x, y, r) == sum(all(e < r for _, e in f) for f in segment), (r, x)


@pytest.mark.parametrize("p", [2, 37])
def test_prime_square_product_across_the_cut(monkeypatch, p):
    # n = p^2 q^2 with p in the pattern of 2 and 3 (2) or in the buckets (37) and
    # q = 2003 above the cut (x+y)^(1/3) = 1764 (no floor under the cut),
    # found from the cofactor side.
    import pimshort.sieve as sieve_mod

    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 1000)
    monkeypatch.setattr(sieve_mod, "_CUT_FLOOR", 1)
    n = (p * 2003) ** 2
    x, y = n - 3500, 5000  # n sits at offset 3499, in the fourth chunk
    assert p <= introot(x + y, 3) < 2003
    abelian = build_rule("abelian")
    assert sieve_segment(x, y)[n - x - 1] == ((p, 2), (2003, 2))
    assert _check_kernel_against_segment(abelian, x, y)[4] >= 1


def _factorized_window(x, y):
    return [factorize(n) for n in range(x + 1, x + y + 1)]


def test_window_ending_at_2_63_for_every_rule(monkeypatch):
    # Two chunks of 1000 offsets below 2^63 - 1, against factorize.
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
    while factorize(v) != ((v, 1),):
        v -= 1
    return v


@pytest.mark.parametrize("r", [2, 3, 4])
def test_large_prime_powers_near_2_63(monkeypatch, r):
    # A multiple of p^r just above (x+y)^(1/(r+1)), and one of the largest
    # p^r below 2^63, each in a window near 2^63, against factorize; with
    # the cut at that root and with its floor of 2^16 (at r = 4 the floor
    # puts every prime in the buckets).
    import pimshort.sieve as sieve_mod

    cut = introot(MAX_N - 1, r + 1)
    for p in (_prime_at_or_below(cut + 50), _prime_at_or_below(introot(MAX_N - 1, r))):
        n = (MAX_N - 1 - 50) // p**r * p**r
        x, y = n - 50, 100
        assert p > introot(x + y, r + 1)
        facts = _factorized_window(x, y)
        assert dict(facts[n - x - 1])[p] >= r
        for floor in (1, 1 << 16):
            monkeypatch.setattr(sieve_mod, "_CUT_FLOOR", floor)
            assert count_r_free(x, y, r) == sum(all(a < r for _, a in f) for f in facts), (r, p)
            if r == 2:
                for rule in builtin_rules():
                    expected = Counter(eval_rule(rule, f) for f in facts)
                    assert value_counts(rule, x, y) == dict(sorted(expected.items())), rule.name


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
    import pimshort.sieve as sieve_mod

    top = introot(MAX_N - 1, r)
    rng = random.Random(r)
    bases = [1, 2, 3, top - 1, top] + [rng.randrange(2, top) for _ in range(300)]
    values = {0, MAX_N - 1} | {min(s**r + d, MAX_N - 1) for s in bases for d in (-1, 0, 1)}
    values = sorted(values | {rng.randrange(1 << rng.randrange(1, 64)) for _ in range(300)})
    roots = sieve_mod._iroot(np.array(values, dtype=np.int64), r)
    assert roots.tolist() == [introot(v, r) for v in values]


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
        cube_free = sum(all(e < 3 for _, e in f) for f in sieve_segment(x, y))
        assert count_r_free(x, y, 3) == cube_free, (x, y)


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
    abelian = build_rule("abelian")
    x = 10**7
    counts = {y: count_value(abelian, 1, x, y) for y in (7001, 14000, 21000, 30000)}
    profiles = {y: value_counts(abelian, x, y) for y in (7001, 21000, 30000)}
    # Chunks of 7001 offsets: y = 7001, 14000, 21000 and 30000 take 1, 2, 3 and 5.
    monkeypatch.setattr(sieve_mod, "DEFAULT_CHUNK", 7001)
    cpu_calls = []

    def cpus(n):
        return lambda: cpu_calls.append(n) or n

    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(1))
    assert count_value(abelian, 1, x, 30000, workers=8) == counts[30000]
    assert value_counts(abelian, x, 30000, workers=64) == profiles[30000]
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(None))
    assert count_value(abelian, 1, x, 14000, workers=8) == counts[14000]
    assert pools == []
    monkeypatch.setattr(sieve_mod.os, "cpu_count", cpus(4))
    assert value_counts(abelian, x, 21000, workers=8) == profiles[21000]
    assert count_value(abelian, 1, x, 30000, workers=2) == counts[30000]
    assert pools == [3, 2]
    # One chunk, or one worker, starts no pool and asks for no CPU count.
    del cpu_calls[:]
    assert value_counts(abelian, x, 7001, workers=8) == profiles[7001]
    assert count_value(abelian, 1, x, 7001, workers=8) == counts[7001]
    assert count_value(abelian, 1, x, 30000) == counts[30000]
    assert cpu_calls == []
    assert count_value(abelian, 1, x, 30000, workers=8) == counts[30000]
    assert pools == [3, 2, 4]


def test_slow_path_for_non_int64_safe_rule():
    # A custom table with a huge value makes f exceed int64, so the kernel
    # multiplies exact Python ints.
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
