"""Segmented factorization sieve and interval counting over (x, x+y].

Counting {n : f(n) = k} in a window only needs prime r-th powers, r the
rule's threshold: a prime dividing n fewer than r times contributes g = 1,
so the counting kernel finds each p^r | n, extracts the exact exponent, and
multiplies table values into an accumulator per offset.  value_counts runs it
once for every rule at r, on the prime signature sigma_r(n) = prod prime(alpha)
over p^alpha || n with alpha >= r (OEIS A181819's prime shadow, cut at r), and f
is evaluated once per rule and code, in Python ints.  sigma_r(n) <= sigma_2(n), and
the least n of each code has non-increasing exponents on 2, 3, 5, ..., so a search
over those finds the largest code: 56,265 below 2^46 (at n = 2^11 3^5 5^5 7^3 11^2)
and 684,255 below 2^63.  So the codes of a window (x, x+y] fit uint16 for
x+y < 2^46 and uint32 above, and so does the table's largest g, prime(63) = 307.
count_value asks only whether f(n) = k, and every g is at least 1, so it clips at
k + 1 in the narrowest unsigned dtype that holds (k + 1)^2: uint8 for k <= 14, uint16
for k <= 254, uint32 for k <= 65534, uint64 for k <= 2^32 - 2.  Past that it reads
value_counts.  Each path picks its dtype from one bound, and every path runs the
same steps.

Each window walks chunks of DEFAULT_CHUNK = 2^20 offsets (1 to 8 MB of
accumulator) and sieves only with the primes up to cut = (x+y)^(1/(r+1)), or
min((x+y)^(1/r), 2^16) if higher, from the shared table.  Each chunk starts
from a pattern of period 2^5 * 3^3 = 864 that holds the factors of 2 and 3
below those powers (the pre-sieve of Pritchard, Comm. ACM 24, 1981).  Each of
32, 27 and the p^r with 5 <= p and p^r below min(chunk length, 2^14) takes one
strided pass, by a cached ruler of g values: v_p of consecutive multiples of
p^a is periodic mod p^K below a + K.  Each multiple of a larger p^r up to the
cut is filed into the bucket of its chunk (the bucket sieve of Oliveira e
Silva, Herzog and Pardi, Math. Comp. 83, 2014).  A prime p above the cut
divides n = m p^r only with m below (x+y)^(1/(r+1)), so its hits come from the
cofactor side: for each m, the integer points p of a short interval (the
hyperbola split of Filaseta and Trifonov, J. London Math. Soc. 45, 1992).
Its ends are exact r-th roots of x / m and (x+y) / m: one float64 power
m^(-1/r) per m serves both, and an end near an integer takes introot's root of
x // m or (x+y) // m.  With several workers, a profile gives each process one
run of chunks; a clipped count runs in the calling process.  Counts are exact
integers.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isqrt, prod

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
_STRIDED_LIMIT = 1 << 14  # p^r below it (and below the chunk length) takes a strided pass


def _check_window(x: int, y: int) -> None:
    if x < 0:
        raise ValueError(f"window base must be >= 0, got {x}")
    if y < 1:
        raise ValueError(f"window length must be >= 1, got {y}")
    if x + y >= MAX_N:
        raise ValueError("window end must stay below 2**63")


def check_report_window(x: int, y: int) -> None:
    """Raise ValueError unless interval_report accepts the window (x, x+y]."""
    _check_window(x, y)
    if not y < x:
        raise ValueError(f"the window needs 0 < y < x, got x={x}, y={y}")


def sieve_segment(x: int, y: int) -> dict[int, Factorization]:
    """Squarefull part of each squarefull n in (x, x+y]: n -> ((p, v_p(n)) for each p^2 | n).

    A squarefree n has no entry.  Each multiple of p^2, for p up to
    sqrt(x+y) ascending, is divided by p until its exponent is found.  Primes
    dividing n once are left out (g(1) = 1): f(n) and the r-full divisors of n
    read the squarefull part.  A pure-Python oracle for verify's multiples sum.
    """
    _check_window(x, y)
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


@lru_cache(maxsize=None)
def _signature_rule(r: int) -> ExponentRule:
    # sigma_r as a rule: g(alpha) = prime(alpha) from r on, for every exponent of an n < 2^63.
    return ExponentRule(f"signature-r{r}", r, (1,) * r + _SIGNATURE_PRIMES[r:])


@lru_cache(maxsize=16)
def _code_values(rule: ExponentRule) -> dict[int, int]:
    # code -> f at that code, in exact Python ints, filled by _fold; keyed by the whole
    # rule, its values included.
    return {}


def _fold(rule: ExponentRule, codes: Counter) -> dict[int, int]:
    # value_counts from the signature counts: f once per (rule, code) for the process.
    memo, counts = _code_values(rule), Counter()
    for code, c in codes.items():
        f = memo.get(code)
        if f is None:
            f = memo[code] = prod(rule.values[a] for a in _signature_exponents(code))
        counts[f] += c
    return dict(sorted(counts.items()))


@lru_cache(maxsize=1 << 10)
def _kernel_tables(rule: ExponentRule, cap: int = 0,
                   dtype: np.dtype = np.dtype(np.uint64)) -> tuple[np.ndarray, np.ndarray]:
    # g, or min(g, cap) if cap > 0, and the pattern of 2 and 3, in the accumulator's dtype,
    # the widest unless named (cap runs to 2^32, hence a bounded cache).  The pattern is
    # g(v_2(n)) * g(v_3(n)) at n = 0 .. 1727, two periods of 864 so that a full period
    # follows every phase.  The factor of 2 is 1 where 2^5 | n and that of 3 where
    # 3^3 | n: the passes over 32 and 27 apply those.
    n, gtab = np.arange(2 * 864), np.array([min(v, cap or v) for v in rule.values], dtype)
    v2, v3 = (sum(n % p**b == 0 for b in range(1, a)) * (n % p**a > 0)
              for p, a in ((2, 5), (3, 3)))
    pattern = np.minimum(gtab[v2] * gtab[v3], cap) if cap else gtab[v2] * gtab[v3]
    gtab.flags.writeable = pattern.flags.writeable = False
    return gtab, pattern


@lru_cache(maxsize=16)
def _rulers(values: tuple[int, ...], r: int, span: int) -> dict:
    # p -> (a, K, ruler) for each strided pass over chunks of at most span offsets, for
    # g = values, shared by rules whose clipped tables agree: the c = ceil(span / p^a)
    # multiples of p^a read ruler[j] = g(a + min(v_p(j), K - 1)), j < p^K + c, K the least
    # with p^(2K) >= c.  The dtype holds every g, as copies take the g at p^(a+K) | n.  16
    # entries of at most 688,416 bytes (r = 2, span 2^20, uint32) make 11 MB.
    dtype, rulers = np.min_scalar_type(max(values)), {}
    small = [p for p in primes_upto(isqrt(_STRIDED_LIMIT)).tolist()[2:] if p**r < _STRIDED_LIMIT]
    for p, a in ((2, 5), (3, 3), *((p, r) for p in small)):
        c = -(-span // p**a)
        K = next(k for k in range(1, 64) if p ** (2 * k) >= c)
        ruler = np.full(p**K + c, values[a], dtype)
        for b in range(1, K):  # the multiples of p^b lie among those of p^(b-1)
            ruler[:: p**b] = values[a + b]
        ruler.flags.writeable = False
        rulers[p] = a, K, ruler
    return rulers


def _multiples(q: np.ndarray, n0: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    # Every multiple of some q[i] among n0..n0+y-1, as (i, offset) pairs.
    # The first offset is -n0 mod q, taken on int64 without forming n0 + q.
    first = np.remainder(-n0, q)
    i = np.flatnonzero(first < y)
    j, step = _ranges((y - 1 - first[i]) // q[i] + 1)
    i = i[j]
    return i, first[i] + step * q[i]


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

    `primes` holds the primes up to cut >= (x+y)^(1/(r+1)).  For each m <=
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


def _window_chunks(x: int, y: int, r: int):
    """Yield (n0, length, small primes, hit offsets, hit primes) per chunk of (x, x+y].

    cut = max((x+y)^(1/(r+1)), min(root_r(x+y), _PRIME_FLOOR), 3): a prime in
    the table costs one remainder, less than walking its cofactors.  The
    primes 5 <= p with p^r below min(chunk length, _STRIDED_LIMIT), all under
    the floor, form the small list; each multiple of a larger p^r up to the
    cut goes to its chunk.  Each kernel applies 2 and 3 itself.  The walk
    forms (cut+1)^r, cheap as a rule's r is at most its table length; where
    3^r passes int64 the cut is 3, and no step reads the wrapped 2^r or 3^r.
    """
    span, end = min(y, DEFAULT_CHUNK), x + y
    cut = max(introot(end, r + 1), min(introot(end, r), _PRIME_FLOOR), 3)
    primes = primes_upto(cut)
    n_small = max(2, int(np.searchsorted(primes**r, min(span, _STRIDED_LIMIT))))
    small = primes[2:n_small].tolist()
    i, off = _multiples(primes[n_small:] ** r, x + 1, y)
    pieces = [(off, primes[n_small:][i]), *_large_prime_hits(x, y, r, cut, primes)]
    off, p = (np.concatenate(a) for a in zip(*pieces))
    del i, pieces  # only the hits, sorted by offset, are read from here on
    order = np.argsort(off)
    off, p = off[order], p[order]
    del order
    edges = np.searchsorted(off, range(0, y + span, span)).tolist()
    for c, (a, b) in enumerate(zip(edges, edges[1:])):
        c0 = c * span
        yield x + 1 + c0, min(span, y - c0), small, off[a:b] - c0, p[a:b]


def _exponents(n: np.ndarray, p: np.ndarray, r: int) -> np.ndarray:
    # Exact exponent of p[j] in n[j], where p[j]^r divides n[j].
    m, e = n // p**r, np.full(n.size, r, dtype=np.intp)
    live = np.flatnonzero(m % p == 0)
    while live.size:
        m[live] //= p[live]
        e[live] += 1
        live = live[m[live] % p[live] == 0]
    return e


def _fvalue_chunks(rule: ExponentRule, x: int, y: int, cap: int = 0):
    """Yield f(x+1), ..., f(x+y) in order, chunk by chunk, as min(f, cap) if cap > 0.

    The accumulator is the narrowest unsigned dtype that holds cap^2, where two clipped
    values meet, or else the largest signature code in reach and every g: uint16 below
    2^46, uint32 above.  Each factor applied at an offset divides its final value.
    """
    top = cap * cap if cap else max(56_265 if x + y < 1 << 46 else 684_255, *rule.values)
    gtab, pattern = _kernel_tables(rule, cap, np.min_scalar_type(top))
    for n0, cy, small, off, hit_primes in _window_chunks(x, y, rule.r):
        # Exactly cy values: np.tile's padded 2^20-offset chunk passes 8 MiB, and glibc's
        # moving mmap threshold then kept about 4 MB more resident over verify --suite all.
        fval = np.empty(cy, dtype=gtab.dtype)
        whole, s = cy - cy % 864, n0 % 864
        fval[:whole].reshape(-1, 864)[:] = pattern[s : s + 864]
        fval[whole:] = pattern[s : s + cy - whole]
        rulers = _rulers(tuple(gtab.tolist()), rule.r, 1 << (cy - 1).bit_length())
        for p in (2, 3, *small):
            a, K, ruler = rulers[p]
            q, P, s0 = p**a, p**K, -n0 % p**a
            view = fval[s0::q]
            h = ruler[(n0 + s0) // q % P :][: view.size]
            if -n0 % (q * P) < cy:
                s1, e = _small_prime_exponents(p, n0, cy, a + K)
                h = h.copy()
                h[(s1 - s0) // q :: P] = gtab[e]
            view *= h
            if cap:
                np.minimum(view, cap, out=view)
        # Two large primes can share an offset (n = p^r q^r), where fancy
        # `fval[off] *= ...` keeps one factor.  The hits are sorted by offset, so
        # each round applies the first hit left at each offset, then clips.
        g = gtab[_exponents(n0 + off, hit_primes, rule.r)]
        while off.size:
            first = np.concatenate(([True], off[1:] != off[:-1]))
            o, off, h, g = off[first], off[~first], g[first], g[~first]
            fval[o] = np.minimum(fval[o] * h, cap) if cap else fval[o] * h
        yield fval


def _signature_counts(task) -> Counter:
    # task = (r, x, y): the count of every code sigma_r(n) over (x, x+y], for every rule at r.
    r, x, y = task
    profile: Counter = Counter()
    for fval in _fvalue_chunks(_signature_rule(r), x, y):
        fval.sort()  # each chunk is a fresh array of its own: sorted in place, counted by runs
        last = np.append(np.flatnonzero(fval[1:] != fval[:-1]), fval.size - 1)  # runs' ends
        profile.update(dict(zip(fval[last].tolist(), np.diff(last, prepend=-1).tolist())))
    return profile


def count_value(rule: ExponentRule, k: int, x: int, y: int, workers: int = 1) -> int:
    """#{n in (x, x+y] : f(n) = k}, by segmented sieve.

    Only the primes p with p^r | n are found, below the cut or from the
    cofactor side; one dividing n fewer than r times contributes g = 1.
    f past k never comes back down, so values clip at k + 1, in this process:
    a pool costs more to start than it saves.  workers (>= 1) bounds the
    processes of value_counts, read where no unsigned dtype holds (k + 1)^2.
    """
    _check_window(x, y)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (k + 1) ** 2 >= 1 << 64:
        return value_counts(rule, x, y, workers).get(k, 0)
    return sum(int(np.count_nonzero(fval == k)) for fval in _fvalue_chunks(rule, x, y, k + 1))


def value_counts(rule: ExponentRule, x: int, y: int, workers: int = 1) -> dict[int, int]:
    """Counts of every f value attained in (x, x+y], keyed by value, from the signature counts."""
    _check_window(x, y)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # One contiguous run of whole chunks per process, min(workers, chunks, CPUs) of them.
    chunks = -(-y // DEFAULT_CHUNK)
    n = min(workers, chunks)
    n = min(n, os.cpu_count() or 1) if n > 1 else 1
    edges = [i * chunks // n * DEFAULT_CHUNK for i in range(n)] + [y]
    tasks = [(rule.r, x + a, b - a) for a, b in zip(edges, edges[1:])]
    if n == 1:
        profiles = map(_signature_counts, tasks)
    else:
        with multiprocessing.Pool(n) as pool:
            profiles = pool.map(_signature_counts, tasks)
    return _fold(rule, sum(profiles, Counter()))


def count_r_free(x: int, y: int, r: int) -> int:
    """#{n in (x, x+y] : n is r-free}, by marking multiples of p^r."""
    _check_window(x, y)
    if r < 2:
        raise ValueError(f"count_r_free requires r >= 2, got {r}")
    # At a huge r the cut is 3, and the return also keeps the walk from forming 2**r, 3**r
    # and (cut + 1)**r = 4**r: Python ints whose cost grows with r, past memory at r = 10**18.
    if r >= (x + y).bit_length():  # 2^r > x+y: no p^r divides any n
        return y
    total = 0
    for n0, cy, small, off, _ in _window_chunks(x, y, r):
        marked = np.zeros(cy, dtype=bool)
        for q in [p**r for p in (2, 3, *small)]:
            marked[-n0 % q :: q] = True
        marked[off] = True
        total += cy - int(np.count_nonzero(marked))
    return total


def rfull_multiples_sum(x: int, y: int, r: int) -> int:
    """Sum over r-full n in (2Y, 2X] of the count of multiples of n in (X, X+Y].

    Exact: the r-full n come from the flat table, one floor difference each.
    """
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
    if x < 1:
        return False
    return x ** (1.0 / (2 * r + 1) + eps) <= y <= x * 4.0 ** (-2 * r * r)


def interval_report(rule: ExponentRule, k: int, x: int, y: int, density: float,
                    eps: float = 0.01) -> IntervalReport:
    """Count f(n) = k over (x, x+y] and compare against density * y.

    density is the local density of {n : f(n) = k}, for example
    local_density(rule, k).density.  The three bound components are
    reported without the x^eps factor; eps only enters the admissibility
    flag.  Requires y < x so the error terms are defined.
    """
    check_report_window(x, y)
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
