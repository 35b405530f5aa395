"""Segmented factorization sieve and interval counting over (x, x+y].

Counting {n : f(n) = k} in a window only needs prime r-th powers, r the
rule's threshold: a prime dividing n fewer than r times contributes g = 1,
so the counting kernel finds each p^r | n, extracts the exact exponent, and
multiplies table values into an accumulator per offset.  value_counts runs it
once for every rule at r, on the prime signature sigma_r(n) = prod prime(alpha) over p^alpha
|| n with alpha >= r (OEIS A181819's prime shadow, cut at r): _profile_windows counts each
code by window, and f, evaluated once per rule and code in Python ints, folds that table.
sigma_r(n) <= sigma_2(n), and the least n of each code has non-increasing exponents on 2, 3,
5, ..., so a search over those finds the largest code: 56,265 below 2^46 (at n = 2^11 3^5
5^5 7^3 11^2) and 684,255 below 2^63.  So the codes of a window (x, x+y] fit uint16 for
x+y < 2^46 and uint32 above, and so does the table's largest g, prime(63) = 307.
count_value asks only whether f(n) = k, and every g is at least 1, so it clips at
k + 1 in the narrowest unsigned dtype that holds (k + 1)^2: uint8 for k <= 14, uint16
for k <= 254, uint32 for k <= 65534, uint64 for k <= 2^32 - 2.  Past that it reads
value_counts.  Each path picks its dtype from one bound, and every path runs the
same steps.

The kernel counts a list of windows in one pass.  The windows lie back to back: whole
windows are packed into one chunk while their offsets plus their bucket primes stay
within _PACK = 2^16, and a longer window takes chunks of DEFAULT_CHUNK = 2^20 offsets
(1 to 8 MB of accumulator).  Its segments (window, n0, length, start, strided), a window
or a chunk of a longer one each, tile a chunk in window order, and the counts of each
window are read off them.  count_value, value_counts and count_r_free count a
one-window list; verify counts its seeded windows by lists.  A window sieves only with
the primes up to cut = (x+y)^(1/(r+1)), or min((x+y)^(1/r), 2^16) if higher, from the
shared table.  Each segment starts from a pattern of period 2^5 * 3^3 = 864 that holds
the factors of 2 and 3 below those powers (the pre-sieve of Pritchard, Comm. ACM 24,
1981).  Its moduli are 32, 27 and the p^r with 5 <= p <= cut (count_r_free's: p^r for
every p <= cut), held per r and form to the largest cut met.  Once per window, the moduli
q = p^a with 64 q <= min(y, 2^20) are picked to be strided in every chunk, its last too;
each segment carries them as `strided`, and the kernel strides them by rulers (p, q, a, K,
ruler) of g values: v_p of consecutive multiples of q is periodic mod p^K below a + K.  So a
window of 2^20 offsets or more strides 32, 27 and the p^r up to 2^14.  One cached entry per
g(0..62), clip, r, dtype and length class holds the rulers, the g table and the pattern, looked
up once per call: no n < 2^63 has an exponent past 62, so the rest of a rule's table costs a
call nothing.  Every multiple of the other moduli is a hit with its base exponent, 5, 3
or r, found for a whole pack at once (the bucket sieve of Oliveira e Silva, Herzog and
Pardi, Math. Comp. 83, 2014).  A prime p above the cut divides n = m p^r only with m
below (x+y)^(1/(r+1)), so its hits come from each window's cofactor side: for each m,
the integer points p of a short interval (the hyperbola split of Filaseta and
Trifonov, J. London Math. Soc. 45, 1992).  Its ends are exact r-th roots of x / m and
(x+y) / m: one float64 power m^(-1/r) per m serves both, and an end near an integer
takes introot's root of x // m or (x+y) // m.  With several workers, a profile gives
each process one run of chunks; a clipped count runs in the calling process.  Counts
are exact integers.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, starmap
from math import inf, isqrt, log2, prod

import numpy as np

from .bounds import bound_breakdown
from .density import _table
from .factor import (_PRIME_FLOOR, _SIGNATURE_PRIMES, MAX_N, Factorization, _ranges,
                     _signature_exponents, introot, primes_upto)
from .rules import ExponentRule

DEFAULT_CHUNK = 1 << 20

# Cofactors m per block of _large_prime_hits.  Each 64 KB temporary fits in L2 and stays
# below glibc's initial 128 KB mmap threshold, so later blocks reuse the heap pages of
# earlier ones in place of faulting in fresh ones.
_COFACTOR_BLOCK = 1 << 13
# Offsets plus bucket primes per packed chunk of small windows, so that a pack's pairs, hits
# and their int64 temporaries stay near 0.5 MB each: packs of up to 2^20 offsets raised the
# peak RSS of verify --suite all by about 1 MB, to 42.6-42.9 MB.
_PACK = 1 << 16
# A window strides a modulus q in each of its chunks where 64 q <= min(y, 2^20), so a window
# of 2^20 offsets or more strides the q up to 2^14, in its shorter last chunk too; the fewer
# multiples of a larger q cost less as hits than a pass's fixed cost.
_STRIDED_MULTIPLES = 64
_BASES = {2: 5, 3: 3}  # the exponents of 2 and 3 that the pattern of 2 and 3 leaves to a modulus
_PERIOD = prod(p**a for p, a in _BASES.items())  # the pattern's period, 2^5 * 3^3 = 864


def _check_window(x: int, y: int) -> tuple[int, int]:
    """(x, y) read by operator.index, refused unless 0 <= x, 1 <= y and x + y < 2^63."""
    x, y = operator.index(x), operator.index(y)
    if x < 0:
        raise ValueError(f"window base must be >= 0, got {x}")
    if y < 1:
        raise ValueError(f"window length must be >= 1, got {y}")
    if x + y >= MAX_N:
        raise ValueError("window end must stay below 2**63")
    return x, y


def check_report_window(x: int, y: int) -> tuple[int, int]:
    """(x, y) read by _check_window, refused unless interval_report accepts (x, x+y]: y < x."""
    x, y = _check_window(x, y)
    if not y < x:
        raise ValueError(f"the window needs 0 < y < x, got x={x}, y={y}")
    return x, y


def sieve_segment(x: int, y: int) -> dict[int, Factorization]:
    """Squarefull part of each squarefull n in (x, x+y]: n -> ((p, v_p(n)) for each p^2 | n).

    A squarefree n has no entry.  Each multiple of p^2, for p up to
    sqrt(x+y) ascending, is divided by p until its exponent is found.  Primes
    dividing n once are left out (g(1) = 1): f(n) and the r-full divisors of n
    read the squarefull part.  A pure-Python oracle for verify's multiples sum.
    """
    x, y = _check_window(x, y)
    parts: dict[int, Factorization] = {}
    for p in primes_upto(isqrt(x + y)).tolist():
        p2 = p * p
        for n in range((x // p2 + 1) * p2, x + y + 1, p2):
            m, e = n // p2, 2
            while m % p == 0:
                m //= p
                e += 1
            parts[n] = parts.get(n, ()) + ((p, e),)
    return parts


def _small_prime_exponents(p: int, n0: int, y: int, a: int) -> tuple[int, np.ndarray]:
    # Offsets s0, s0 + p^a, ... of the multiples of p^a among n0..n0+y-1 and the exact
    # exponent of p at each; those of p^b sit at every p^(b-a)-th, from (s_b - s0) / p^a.
    q = p**a
    s0 = -n0 % q
    e = np.full((y - 1 - s0) // q + 1, a, dtype=np.intp)
    pb = q * p
    while (sb := -n0 % pb) < y:
        e[(sb - s0) // q :: pb // q] += 1
        pb *= p
    return s0, e


def _signature_rule(r: int) -> ExponentRule:
    # sigma_r as a rule: g(alpha) = prime(alpha) from r on, for every exponent of an n < 2^63.
    return ExponentRule(f"signature-r{r}", r, (1,) * r + _SIGNATURE_PRIMES[r:])


@lru_cache(maxsize=16)
def _code_values(rule: ExponentRule) -> dict[int, int]:
    # code -> f at that code, in exact Python ints, filled by _fold; keyed by the whole
    # rule, its values included.
    return {}


def _fold(rule: ExponentRule, pairs) -> dict:
    # f -> its count, summed over (code, count) pairs, sorted by f: f once per (rule, code)
    # for the process.  A count may be an array of counts, one per window.
    memo, counts = _code_values(rule), Counter()
    for code, c in pairs:
        f = memo.get(code)
        if f is None:
            f = memo[code] = prod(rule.values[a] for a in _signature_exponents(code))
        counts[f] += c
    return dict(sorted(counts.items()))


@lru_cache(maxsize=16)
def _kernel_tables(g: tuple[int, ...], cap: int, r: int, dtype: np.dtype, span: int) -> tuple:
    # (gtab, pattern, rulers), read-only, from g = g(0..62) clipped at cap if cap > 0: all of
    # g that an n < 2^63 reads, so rules whose g(0..62) agree share an entry.  gtab and the
    # pattern of 2 and 3, g(v_2(n)) * g(v_3(n)) at n = 0 .. 1727 (two periods of 864, so a
    # full period follows every phase; 2^5 | n and 3^3 | n take 1, left to the moduli 32 and
    # 27), are in the accumulator's dtype.  rulers holds (p, q, a, K, ruler), ascending in q,
    # for each kernel modulus q = p^a of _moduli that a window of at most span offsets may
    # stride (64 q <= span; its segments' `strided` says which): the c = ceil(span / q)
    # multiples of q read ruler[j] = g(a + min(v_p(j), K - 1)), j < p^K + c, K the least with
    # p^(2K) >= c, in a dtype that holds every g, as copies take the g at p^(a+K) | n.  16
    # entries of at most 688,416 bytes of rulers (r = 2, span 2^20, uint32) make 11 MB.
    n, gtab = np.arange(2 * _PERIOD), np.array(g, dtype)
    v2, v3 = (sum(n % p**b == 0 for b in range(1, a)) * (n % p**a > 0)
              for p, a in _BASES.items())
    pattern = np.minimum(gtab[v2] * gtab[v3], cap) if cap else gtab[v2] * gtab[v3]
    moduli = _moduli(r, tuple(_BASES.values()), isqrt(span // _STRIDED_MULTIPLES))
    stop = np.searchsorted(moduli[0], span // _STRIDED_MULTIPLES, "right")  # 64 q <= span
    rulers = []
    for q, p, a in zip(*(v[:stop].tolist() for v in moduli)):
        c = -(-span // q)
        K = next(k for k in range(1, 64) if p ** (2 * k) >= c)
        ruler = np.full(p**K + c, g[a], np.min_scalar_type(max(g)))
        for b in range(1, K):  # the multiples of p^b lie among those of p^(b-1)
            ruler[:: p**b] = g[a + b]
        ruler.flags.writeable = False
        rulers.append((p, q, a, K, ruler))
    gtab.flags.writeable = pattern.flags.writeable = False
    return gtab, pattern, tuple(rulers)


_held_moduli: dict = {}  # (r, bases) -> (cut, q, p, a) for the largest cut met


def _moduli(r: int, bases: tuple[int, int], cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (q, p, a) of the moduli q = p^a < 2^63 of the primes up to cut at least, ascending in q
    # (the kernel's 27 and 32 lead, or follow 25 at r = 2), with a = bases at 2 and 3 and r
    # from 5 on.  So the moduli of the primes up to any cut from 5 on lead them (a lower cut
    # has x+y < 5^r, and holds the leads alone), as do the strided ones, 64 q <= min(y, 2^20),
    # read off the front.  One table per (r, bases), grown to the largest cut met, serves
    # every window: 2.6 MB at r = 2 and cut 2^21, 0.1 MB at any other r.  No p^a with
    # a >= 63 fits, so every r from 63 on takes 63's: a fits uint8.
    r = min(r, 63)
    if _held_moduli.get((r, bases), (-1,))[0] < cut:
        p = primes_upto(min(cut, introot(MAX_N - 1, r)))[2:]
        q = p**r
        leads = sorted((b**a, b, a) for b, a in zip((2, 3), bases) if b**a < MAX_N)
        at = np.searchsorted(q, [v for v, _, _ in leads])  # each lead at its place: no sort
        held = [np.insert(v, at, column)
                for v, column in zip((q, p, np.full(p.size, r, np.uint8)), zip(*leads))]
        for v in held:
            v.flags.writeable = False
        _held_moduli[r, bases] = cut, *held
    return _held_moduli[r, bases][1:]


def _iroots(ends: tuple[int, ...], m: np.ndarray, r: int) -> list[np.ndarray]:
    """floor(root_r(e // m)) = floor(root_r(e / m)) for each end e >= 0 and each int64 m >= 1."""
    w, roots = m.astype(np.float64) ** (-1.0 / r), []
    for e in ends:
        # fl(e^(1/r)) * m^(-1/r) is off by a few ulp, far less than 1e-12 of itself: only a
        # root that near an integer can floor wrong, and it takes introot's.
        f = float(e) ** (1.0 / r) * w
        s = f.astype(np.int64)
        i = np.flatnonzero(np.abs(f - np.rint(f)) <= 1e-12 * f)
        s[i] = [introot(e // t, r) for t in m[i].tolist()]
        roots.append(s)
    return roots


def _large_prime_hits(x: int, y: int, r: int, cut: int, primes: np.ndarray):
    """Yield (offsets, p) for the n = m p^r in (x, x+y] with p > cut prime, in blocks of m.

    `primes` holds the primes up to cut >= (x+y)^(1/(r+1)) at least.  For each m <=
    (x+y) / (cut+1)^r, p lies in (root_r(x // m), root_r((x+y) // m)], and
    is prime if no prime up to the cut divides it: a composite p <=
    (x+y)^(1/r) has a prime factor at most (x+y)^(1/(2r)) <= cut.  Only the
    m whose interval holds an integer above the cut list their p.
    """
    top = (x + y) // (cut + 1) ** r
    for a in range(1, top + 1, _COFACTOR_BLOCK):
        m = np.arange(a, min(a + _COFACTOR_BLOCK, top + 1), dtype=np.int64)
        lo, hi = _iroots((x, x + y), m, r)
        lo = np.maximum(lo, cut)
        live = np.flatnonzero(hi > lo)
        if not live.size:
            continue
        m, lo = m[live], lo[live]
        j, step = _ranges(hi[live] - lo)
        m, p = m[j], lo[j] + 1 + step
        base = primes[: np.searchsorted(primes, isqrt(int(p.max())), "right")]
        rows = max(1, _COFACTOR_BLOCK // max(base.size, 1))
        prime = np.concatenate([(p[b : b + rows, None] % base).all(axis=1)
                                for b in range(0, p.size, rows)])
        yield m[prime] * p[prime] ** r - (x + 1), p[prime]


def _window_chunks(x: list[int], y: list[int], r: int, bases=tuple(_BASES.values())):
    """Yield (segments, hit offsets, hit primes, hit base exponents) per chunk of the windows.

    The windows (x[i], x[i] + y[i]] lie back to back and each chunk is the next run
    of them: whole windows packed while their offsets and bucket primes stay within
    min(_PACK, DEFAULT_CHUNK), or one DEFAULT_CHUNK-offset slice of a longer window.
    A segment (window, n0, length, start, strided) puts n0, n0 + 1, ... of window i =
    `window` at the chunk's offsets start, start + 1, ...: a chunk's segments tile it back to
    back in window order, and a window's segments over its chunks continue n0 and sum to its y.
    A window sieves with the primes up to cut = max((x+y)^(1/(r+1)),
    min(root_r(x+y), _PRIME_FLOOR), 3): a prime in the table costs one remainder,
    less than walking its cofactors.  Its moduli are _moduli(r, bases), ascending: with
    the kernel's bases, _BASES', 27, 32 and p^r for 5 <= p <= cut; with count_r_free's,
    (r, r), p^r for every p <= cut.  The stride rule is evaluated here once per window (and
    in _kernel_tables for its length class): each segment carries the window's read-only
    prefix with 64 q <= min(y, DEFAULT_CHUNK) as `strided`, and every multiple of the others
    is a hit.  One remainder per window over its moduli finds the (window, modulus) pairs
    with a hit and their hit counts, and the hits of all a pack's pairs are listed at once.
    The primes above the cut come from each window's cofactor walk.
    The walk forms (cut+1)^r, cheap as a rule's r is at most its table length; where
    3^r passes int64 the cut is 3, and no step forms a p^r past int64.
    """
    chunk, ends = DEFAULT_CHUNK, [a + b for a, b in zip(x, y)]
    cuts = [max(introot(e, r + 1), min(introot(e, r), _PRIME_FLOOR), 3) for e in ends]
    primes = primes_upto(max(cuts))
    counts = np.searchsorted(primes, cuts, "right").tolist()  # primes up to each cut
    q, bp, base = _moduli(r, bases, max(cuts))
    groups, load = [[]], 0
    for i, n in enumerate(counts):
        if groups[-1] and load + y[i] + n > min(_PACK, chunk):
            groups.append([])
            load = 0
        groups[-1].append(i)
        load += y[i] + n
    for group in groups:
        starts = list(accumulate((y[i] for i in group), initial=0))
        lo = np.searchsorted(q, [min(y[i], chunk) // _STRIDED_MULTIPLES for i in group], "right")
        # (modulus, first offset, hit count) of each pair of a window and a modulus past those
        # it strides, q[lo:], with a hit in it; the first offset is -(x+1) mod q, on int64.
        pairs = []
        for w, start, a in zip(group, starts, lo):
            first = np.remainder(-x[w] - 1, q[a : counts[w]])
            i = np.flatnonzero(first < y[w])
            pairs.append((a + i, start + first[i], (y[w] - 1 - first[i]) // q[a + i] + 1))
        j, first, count = (np.concatenate(v) for v in zip(*pairs))
        i, step = _ranges(count)  # the hits of every pair at once
        j = j[i]
        pieces = [(first[i] + step * q[j], bp[j], base[j])]
        del i, j, step, count, pairs  # only the hits are read from here on
        for t, g in zip(starts, group):
            pieces += [(t + o, p, np.full(p.size, r, dtype=np.uint8))
                       for o, p in _large_prime_hits(x[g], y[g], r, cuts[g], primes)]
        off, p, a = (np.concatenate(v) for v in zip(*pieces))
        del pieces  # the hits are sorted by offset from here on
        order = np.argsort(off)
        off, p, a = off[order], p[order], a[order]
        del order
        edges = np.searchsorted(off, range(0, starts[-1] + chunk, chunk)).tolist()
        for c0, (b, e) in zip(range(0, starts[-1], chunk), zip(edges, edges[1:])):
            segments = [(i, x[i] + 1 + max(c0 - t, 0), min(t + y[i], c0 + chunk) - max(t, c0),
                         max(t - c0, 0), q[:s]) for i, t, s in zip(group, starts, lo)
                        if t < c0 + chunk and t + y[i] > c0]
            yield segments, off[b:e] - c0, p[b:e], a[b:e]


def _exponents(n: np.ndarray, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Exact exponent of p[j] in n[j], where p[j]^a[j] divides n[j].
    m, e = n // p**a, a.astype(np.intp)
    live = np.flatnonzero(m % p == 0)
    while live.size:
        m[live] //= p[live]
        e[live] += 1
        live = live[m[live] % p[live] == 0]
    return e


def _fvalue_chunks(rule: ExponentRule, x: list[int], y: list[int], cap: int = 0):
    """Yield (segments, f) per chunk of the windows (x[i], x[i] + y[i]] laid back to back.

    The segments (window, n0, length, start, strided) are _window_chunks', and f holds the
    chunk's values, min(f, cap) if cap > 0.  The g table, pattern and rulers come from one
    _kernel_tables call for g(0..62): a segment strides with the first strided.size rulers,
    of the same moduli.  The accumulator is the narrowest unsigned dtype that holds cap^2,
    where two clipped values meet, or else the largest signature code in reach and every g:
    uint16 below 2^46, uint32 above.  Each factor applied at an offset divides its final
    value.
    """
    g = tuple(min(v, cap or v) for v in rule.values[:63])
    end = max(a + b for a, b in zip(x, y))
    top = cap * cap if cap else max(56_265 if end < 1 << 46 else 684_255, *g)
    span = 1 << (min(max(y), DEFAULT_CHUNK) - 1).bit_length()  # the rulers' length class
    gtab, pattern, rulers = _kernel_tables(g, cap, rule.r, np.min_scalar_type(top), span)
    for segments, off, hit_primes, bases in _window_chunks(x, y, rule.r):
        # Exactly the chunk's values: np.tile's padded 2^20-offset chunk passes 8 MiB, and
        # glibc's moving mmap threshold then kept about 4 MB more resident over verify --suite all.
        fval = np.empty(sum(cy for _, _, cy, _, _ in segments), dtype=gtab.dtype)
        n = np.empty_like(off)  # the n of each hit, segment by segment
        edges = np.searchsorted(off, [start for *_, start, _ in segments] + [fval.size]).tolist()
        for (_, n0, cy, start, strided), b, e in zip(segments, edges, edges[1:]):
            np.add(off[b:e], n0 - start, out=n[b:e])
            seg = fval[start : start + cy]
            whole, s = cy - cy % _PERIOD, n0 % _PERIOD
            seg[:whole].reshape(-1, _PERIOD)[:] = pattern[s : s + _PERIOD]
            seg[whole:] = pattern[s : s + cy - whole]
            for p, q, a, K, ruler in rulers[: strided.size]:
                P, s0 = p**K, -n0 % q
                view = seg[s0::q]
                h = ruler[(n0 + s0) // q % P :][: view.size]
                if -n0 % (q * P) < cy:
                    s1, e = _small_prime_exponents(p, n0, cy, a + K)
                    h = h.copy()
                    h[(s1 - s0) // q :: P] = gtab[e]
                view *= h
                if cap:
                    np.minimum(view, cap, out=view)
        # Two hits can share an offset (n = p^r q^r), where fancy `fval[off] *= ...`
        # keeps one factor.  The hits are sorted by offset, so each round applies the
        # first hit left at each offset, then clips.
        g = gtab[_exponents(n, hit_primes, bases)]
        while off.size:
            first = np.concatenate(([True], off[1:] != off[:-1]))
            o, off, h, g = off[first], off[~first], g[first], g[~first]
            fval[o] = np.minimum(fval[o] * h, cap) if cap else fval[o] * h
        yield segments, fval


def _count_windows(rule: ExponentRule, k: int, x: list[int], y: list[int]) -> list[int]:
    # [#{n in (x[i], x[i] + y[i]] : f(n) = k}] on the accumulator clipped at k + 1, where
    # (k + 1)^2 < 2^64.
    out = [0] * len(y)
    for segments, fval in _fvalue_chunks(rule, x, y, k + 1):
        hit = fval == k
        for w, _, cy, start, _ in segments:
            out[w] += int(np.count_nonzero(hit[start : start + cy]))
        del hit  # before the next chunk is made
    return out


def _r_free_windows(x: list[int], y: list[int], r: int) -> list[int]:
    # [#{n in (x[i], x[i] + y[i]] : n is r-free}], by marking the multiples of p^r, apart from
    # the g tables and their clip.  No p^r with r >= 63 divides an n < 2^63 = MAX_N, and the
    # walk would form (cut + 1)**r = 4**r, a Python int past memory at r = 10**18.
    out = list(y)
    if r >= 63:
        return out
    for segments, off, _, _ in _window_chunks(x, y, r, (r, r)):
        marked = np.zeros(sum(cy for _, _, cy, _, _ in segments), dtype=bool)
        for _, n0, cy, start, strided in segments:
            for m in strided.tolist():
                marked[start + -n0 % m : start + cy : m] = True
        marked[off] = True
        for w, _, cy, start, _ in segments:
            out[w] -= int(np.count_nonzero(marked[start : start + cy]))
    return out


def _profile_windows(r: int, x: list[int], y: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(codes, counts): the codes sigma_r(n) met, ascending, and the int64 count counts[i, w]
    of codes[i] in window w.

    Each segment is sorted in place, the chunk being a fresh array of its own, and its
    (window, code, count) rows are read off its runs; after the last chunk, np.unique's
    inverse of the codes and one np.add.at on the flat table sum them.
    """
    rows = []
    for segments, fval in _fvalue_chunks(_signature_rule(r), x, y):
        edges = [start for *_, start, _ in segments] + [fval.size]
        for a, b in zip(edges, edges[1:]):
            fval[a:b].sort()
        new = np.empty(fval.size + 1, dtype=bool)  # where a run starts, and the end
        np.not_equal(fval[1:], fval[:-1], out=new[1:-1])
        new[edges] = True
        first = np.flatnonzero(new)
        del new  # before the next chunk is made
        runs = np.diff(np.searchsorted(first, edges))
        rows.append((np.repeat([w for w, *_ in segments], runs), fval[first[:-1]], np.diff(first)))
    window, code, count = (np.concatenate(v) for v in zip(*rows))
    codes, row = np.unique(code, return_inverse=True)
    counts = np.zeros((codes.size, len(y)), dtype=np.int64)
    np.add.at(counts.reshape(-1), row * len(y) + window, count)
    return codes, counts


def count_value(rule: ExponentRule, k: int, x: int, y: int, workers: int = 1) -> int:
    """#{n in (x, x+y] : f(n) = k}, by segmented sieve.

    Only the primes p with p^r | n are found, below the cut or from the
    cofactor side; one dividing n fewer than r times contributes g = 1.
    f past k never comes back down, so values clip at k + 1, in this process: a pool costs
    more to start than it saves.  workers (>= 1) bounds the processes of value_counts, read
    where no unsigned dtype holds (k + 1)^2.  k, x and y are read through operator.index (x
    and y by _check_window): a numpy integer counts as its int, a float raises TypeError.
    """
    x, y = _check_window(x, y)
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (k + 1) ** 2 >= 1 << 64:
        return value_counts(rule, x, y, workers).get(k, 0)
    return _count_windows(rule, k, [x], [y])[0]


def value_counts(rule: ExponentRule, x: int, y: int, workers: int = 1) -> dict[int, int]:
    """Counts of every f value attained in (x, x+y], keyed by value, in Python ints: _fold
    sums by f the code counts of one one-window _profile_windows call per run of chunks."""
    x, y = _check_window(x, y)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # One contiguous run of whole chunks per process, min(workers, chunks, CPUs) of them.
    chunks = -(-y // DEFAULT_CHUNK)
    n = min(workers, chunks)
    n = min(n, os.cpu_count() or 1) if n > 1 else 1
    edges = [i * chunks // n * DEFAULT_CHUNK for i in range(n)] + [y]
    tasks = [(rule.r, [x + a], [b - a]) for a, b in zip(edges, edges[1:])]
    if n == 1:
        tables = starmap(_profile_windows, tasks)
    else:
        with multiprocessing.Pool(n) as pool:
            tables = pool.starmap(_profile_windows, tasks)
    codes, counts = (np.concatenate(v) for v in zip(*tables))
    return _fold(rule, zip(codes.tolist(), counts[:, 0].tolist()))


def count_r_free(x: int, y: int, r: int) -> int:
    """#{n in (x, x+y] : n is r-free}: the n where no p^r divides n, sigma_r(n) = 1."""
    x, y = _check_window(x, y)
    if r < 2:
        raise ValueError(f"count_r_free requires r >= 2, got {r}")
    return _r_free_windows([x], [y], r)[0]


def rfull_multiples_sum(x: int, y: int, r: int) -> int:
    """Sum over r-full n in (2Y, 2X] of the count of multiples of n in (X, X+Y].

    Exact: the r-full n come from the flat table, one floor difference each.
    """
    x, y = operator.index(x), operator.index(y)
    if not 0 < y < x or 2 * x >= MAX_N:
        raise ValueError(f"rfull_multiples_sum requires 0 < Y < X and 2X < 2**63, got X={x}, Y={y}")
    if r < 2:
        raise ValueError(f"rfull_multiples_sum requires r >= 2, got {r}")
    _, n, _, _ = _table(r, 2 * x)
    n = n[np.searchsorted(n, 2 * y, "right"):]
    return int(((x + y) // n - x // n).sum())


@dataclass(frozen=True)
class IntervalReport:
    """Observed vs. predicted count over one window, with error-bound terms."""

    rule: str
    k: int
    r: int
    x: int
    y: int
    count: int
    density: float
    main_term: float
    abs_error: float
    term_main: float
    term_mid: float
    term_tail: float
    admissible: bool


def admissible_window(r: int, x: int, y: int, eps: float) -> bool:
    """Whether x^(1/(2r+1) + eps) <= y <= 4^(-2 r^2) * x, for finite eps > 0."""
    if not 0 < eps < inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    e = 1.0 / (2 * r + 1) + eps  # x^e past 2^1023 would overflow, and exceeds every y < 2^63
    return x >= 1 and e * log2(x) < 1023 and x ** e <= y <= x * 4.0 ** (-2 * r * r)


def interval_report(rule: ExponentRule, k: int, x: int, y: int, density: float,
                    eps: float = 0.01) -> IntervalReport:
    """Count f(n) = k over (x, x+y] and compare against density * y.

    density is the local density of {n : f(n) = k}, for example
    local_density(rule, k).density.  The three bound components are
    reported without the x^eps factor; eps only enters the admissibility
    flag.  Requires y < x so the error terms are defined.
    """
    x, y = check_report_window(x, y)
    admissible = admissible_window(rule.r, x, y, eps)
    parts = bound_breakdown(rule.r, x, y)
    count = count_value(rule, k, x, y)
    main = density * y
    return IntervalReport(
        rule=rule.name,
        k=k,
        r=rule.r,
        x=x,
        y=y,
        count=count,
        density=density,
        main_term=main,
        abs_error=abs(count - main),
        term_main=parts.term_main,
        term_mid=parts.term_mid,
        term_tail=parts.term_tail,
        admissible=admissible,
    )
