"""Segmented factorization sieve and interval counting over (x, x+y].

Counting {n : f(n) = k} in a window only needs prime squares: a prime
dividing n exactly once contributes g(1) = 1, so the counting kernel finds
each p^2 | n, extracts the exact exponent, and multiplies table values into
an accumulator per offset.  The accumulator is int64 when g(alpha) <=
2^alpha for every alpha (all built-in families) and an object array of
exact Python ints otherwise; both run the same steps.

Each window walks chunks of DEFAULT_CHUNK = 2^20 offsets (8 MB of int64
accumulator) and sieves only with the primes up to cut = (x+y)^(1/3), or
min(sqrt(x+y), 2^16) if higher, from the shared table.  Each chunk starts
from a pattern of period 2^5 * 3^3 = 864 that holds the factors of 2 and 3
below those powers, and strided passes over the multiples of 32 and 27 add
the rest (the pre-sieve of Pritchard, Comm. ACM 24, 1981).  The primes with
p^2 below min(chunk length, 2^14), 5 <= p < 128, take one strided pass
each; each multiple of a larger p^2 up to the cut is filed into the bucket
of its chunk (the bucket sieve of Oliveira e Silva, Herzog and Pardi, Math.
Comp. 83, 2014).  A prime p above the cut divides n = m p^2 only with
m < (x+y)^(1/3), so its hits come from the cofactor side: for each m, the
integer points p of a short interval (the hyperbola split of Filaseta and
Trifonov, J. London Math. Soc. 45, 1992).  With several workers, each
process takes one contiguous run of chunks.  Counts are exact integers.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import inf, isqrt

import numpy as np

from .bounds import bound_breakdown
from .density import _table
from .factor import MAX_N, Factorization, _prime_view, introot, primes_upto
from .rules import ExponentRule

DEFAULT_CHUNK = 1 << 20

_COFACTOR_BLOCK = 1 << 16  # cofactors m per block of _large_prime_hits
_CUT_FLOOR = 1 << 16  # the least cut: the shared prime table always reaches it
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


def sieve_segment(x: int, y: int) -> list[Factorization]:
    """Squarefull part of each n in (x, x+y]: entry i holds (p, v_p(n)) for each p^2 | x+1+i.

    Each multiple of p^2, for p up to sqrt(x+y), is divided by p until its
    exponent is found.  Primes dividing n once are left out: g(1) = 1 in
    every validated rule, so f(n) and the r-full divisors of n are read
    from the squarefull part alone.
    """
    _check_window(x, y)
    lists: list[list[tuple[int, int]]] = [[] for _ in range(y)]
    for p in primes_upto(isqrt(x + y)):
        p2 = p * p
        for idx in range(-(x + 1) % p2, y, p2):
            m, e = (x + 1 + idx) // p2, 2
            while m % p == 0:
                m //= p
                e += 1
            lists[idx].append((p, e))
    return [tuple(f) for f in lists]


def _small_prime_exponents(p: int, n0: int, y: int, a: int) -> tuple[int, np.ndarray]:
    # Offsets s0, s0 + p^a, ... of the multiples of p^a among n0..n0+y-1
    # (none in a short last chunk) and the exact exponent of p at each.  The
    # multiples of p^b sit at every p^(b-a)-th of them, from (s_b - s0) / p^a.
    q = p**a
    s0 = -n0 % q
    e = np.full((y - 1 - s0) // q + 1, a, dtype=np.intp)
    pb = q * p
    while (sb := -n0 % pb) < y:
        e[(sb - s0) // q :: pb // q] += 1
        pb *= p
    return s0, e


@lru_cache(maxsize=None)
def _kernel_tables(rule: ExponentRule) -> tuple[np.ndarray, np.ndarray]:
    # g(alpha) <= 2^alpha for all alpha forces f(n) <= n < 2**63, so an int64
    # product accumulator cannot overflow.  Holds for every built-in family;
    # other tables multiply exact Python ints in object arrays.  The pattern is
    # g(v_2(n)) * g(v_3(n)) at n = 0 .. 1727, two periods of 864 so that a
    # full period follows every phase.  The factor of 2 is 1 where 2^5 | n and
    # that of 3 where 3^3 | n: the passes over 32 and 27 apply those.
    safe = all(v <= 1 << a for a, v in enumerate(rule.values))
    n, gtab = np.arange(2 * 864), np.array(rule.values, dtype=np.int64 if safe else object)
    v2, v3 = (sum(n % p**b == 0 for b in range(1, a)) * (n % p**a > 0)
              for p, a in ((2, 5), (3, 3)))
    pattern = gtab[v2] * gtab[v3]
    gtab.flags.writeable = pattern.flags.writeable = False
    return gtab, pattern


def _ranges(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (j, step) listing step = 0 .. count[j] - 1 for every j in turn.
    j = np.repeat(np.arange(count.size), count)
    return j, np.arange(j.size) - np.repeat(np.cumsum(count) - count, count)


def _multiples(q: np.ndarray, n0: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    # Every multiple of some q[i] among n0..n0+y-1, as (i, offset) pairs.
    # The first offset is -n0 mod q, taken on int64 without forming n0 + q.
    first = np.remainder(-n0, q)
    i = np.flatnonzero(first < y)
    j, step = _ranges((y - 1 - first[i]) // q[i] + 1)
    i = i[j]
    return i, first[i] + step * q[i]


def _iroot(v: np.ndarray, r: int) -> np.ndarray:
    """floor(v^(1/r)) of each int64 v >= 0, exact up to 2^63 - 1."""
    f = v.astype(np.float64) ** (1.0 / r)
    s = f.astype(np.int64)
    # f is off by far less than 1e-12 f: only a root that near an integer needs the exact test.
    i = np.flatnonzero(np.abs(f - np.rint(f)) <= 1e-12 * f)
    def below(c):  # c^r <= v[i], by r floor divisions that never leave int64
        t = v[i]
        for _ in range(r):
            t = t // np.maximum(c, 1)
        return (t > 0) | (c == 0)
    s[i] -= ~below(s[i])
    s[i] += below(s[i] + 1)
    return s


def _large_prime_hits(x: int, y: int, r: int, cut: int, primes: np.ndarray):
    """Yield (offsets, p) for the n = m p^r in (x, x+y] with p > cut prime, in blocks of m.

    `primes` holds the primes up to cut >= (x+y)^(1/(r+1)).  For each m <=
    (x+y) / (cut+1)^r, p lies in (root_r(x // m), root_r((x+y) // m)], and
    is prime if no prime up to the cut divides it: a composite p <=
    (x+y)^(1/r) has a prime factor at most (x+y)^(1/(2r)) <= cut.
    """
    top = (x + y) // (cut + 1) ** r
    for a in range(1, top + 1, _COFACTOR_BLOCK):
        m = np.arange(a, min(a + _COFACTOR_BLOCK, top + 1), dtype=np.int64)
        lo = np.maximum(_iroot(x // m, r), cut)
        j, step = _ranges(np.maximum(_iroot((x + y) // m, r) - lo, 0))
        if not j.size:
            continue
        m, p = m[j], lo[j] + 1 + step
        base = primes[: np.searchsorted(primes, isqrt(int(p.max())), "right")]
        rows = max(1, _COFACTOR_BLOCK // max(base.size, 1))
        prime = np.concatenate([(p[b : b + rows, None] % base).all(axis=1)
                                for b in range(0, p.size, rows)])
        yield m[prime] * p[prime] ** r - (x + 1), p[prime]


def _window_chunks(x: int, y: int, r: int):
    """Yield (n0, length, small primes, hit offsets, hit primes) per chunk of (x, x+y].

    cut = max((x+y)^(1/(r+1)), min(root_r(x+y), _CUT_FLOOR), 3): a prime in
    the table costs one remainder, less than walking its cofactors.  The
    primes 5 <= p with p^r below min(chunk length, _STRIDED_LIMIT), all under
    the floor, form the small list; each multiple of a larger p^r up to the
    cut goes to its chunk.  Each kernel applies 2 and 3 itself.  The walk
    forms (cut+1)^r, so callers keep 2^r <= x+y or r = 2.
    """
    span, end = min(y, DEFAULT_CHUNK), x + y
    cut = max(introot(end, r + 1), min(introot(end, r), _CUT_FLOOR), 3)
    primes = _prime_view(cut)
    n_small = max(2, int(np.searchsorted(primes**r, min(span, _STRIDED_LIMIT))))
    small = primes[2:n_small].tolist()
    i, off = _multiples(primes[n_small:] ** r, x + 1, y)
    pieces = [(off, primes[n_small:][i]), *_large_prime_hits(x, y, r, cut, primes)]
    off, p = (np.concatenate(a) for a in zip(*pieces))
    order = np.argsort(off)
    off, p = off[order], p[order]
    edges = np.searchsorted(off, range(0, y + span, span)).tolist()
    for c, (a, b) in enumerate(zip(edges, edges[1:])):
        c0 = c * span
        yield x + 1 + c0, min(span, y - c0), small, off[a:b] - c0, p[a:b]


def _exponents(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Exact exponent of p[j] in n[j], where p[j]^2 divides n[j].
    m = n // (p * p)
    e = np.full(n.size, 2, dtype=np.intp)
    live = np.flatnonzero(m % p == 0)
    while live.size:
        m[live] //= p[live]
        e[live] += 1
        live = live[m[live] % p[live] == 0]
    return e


def _fvalue_chunks(rule: ExponentRule, x: int, y: int):
    """Yield f(x+1), ..., f(x+y) in order, chunk by chunk, of the dtype of the rule's g table."""
    gtab, pattern = _kernel_tables(rule)
    for n0, cy, small, off, hit_primes in _window_chunks(x, y, 2):
        fval = np.empty(cy, dtype=gtab.dtype)
        whole, s = cy - cy % 864, n0 % 864
        fval[:whole].reshape(-1, 864)[:] = pattern[s : s + 864]
        fval[whole:] = pattern[s : s + cy - whole]
        for p, a in ((2, 5), (3, 3), *((p, 2) for p in small)):
            s0, e = _small_prime_exponents(p, n0, cy, a)
            fval[s0 :: p**a] *= gtab[e]
        # Two large primes can share an offset (n = p^2 q^2), and fancy
        # `fval[off] *= ...` would keep only one factor; multiply.at
        # applies every one.
        np.multiply.at(fval, off, gtab[_exponents(n0 + off, hit_primes)])
        yield fval


def _count_task(task) -> int:
    rule, k, x, y = task
    return sum(int(np.count_nonzero(fval == k)) for fval in _fvalue_chunks(rule, x, y))


def _profile_task(task) -> Counter:
    rule, x, y = task
    profile: Counter = Counter()
    for fval in _fvalue_chunks(rule, x, y):
        if fval.dtype == object:  # np.unique would sort Python ints
            profile.update(fval.tolist())
        else:
            values, counts = np.unique(fval, return_counts=True)
            profile.update(dict(zip(values.tolist(), counts.tolist())))
    return profile


def _map_parts(worker, head: tuple, x: int, y: int, workers: int) -> list:
    # worker(head + (x', y')) over one contiguous run of whole chunks per
    # process, with min(workers, chunks, CPUs) processes and no pool for one.
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = -(-y // DEFAULT_CHUNK)
    n = min(workers, chunks)
    n = min(n, os.cpu_count() or 1) if n > 1 else 1
    edges = [i * chunks // n * DEFAULT_CHUNK for i in range(n)] + [y]
    tasks = [head + (x + a, b - a) for a, b in zip(edges, edges[1:])]
    if n == 1:
        return [worker(t) for t in tasks]
    with multiprocessing.Pool(n) as pool:
        return pool.map(worker, tasks)


def count_value(rule: ExponentRule, k: int, x: int, y: int, workers: int = 1) -> int:
    """#{n in (x, x+y] : f(n) = k}, by segmented sieve.

    The sieved exponents alone determine f; prime cofactors above
    sqrt(x+y) contribute g(1) = 1 and are never materialized.
    """
    _check_window(x, y)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return sum(_map_parts(_count_task, (rule, k), x, y, workers))


def value_counts(rule: ExponentRule, x: int, y: int, workers: int = 1) -> dict[int, int]:
    """Counts of every f value attained in (x, x+y], keyed by value."""
    _check_window(x, y)
    return dict(sorted(sum(_map_parts(_profile_task, (rule,), x, y, workers), Counter()).items()))


def count_r_free(x: int, y: int, r: int) -> int:
    """#{n in (x, x+y] : n is r-free}, by marking multiples of p^r."""
    _check_window(x, y)
    if r < 2:
        raise ValueError(f"count_r_free requires r >= 2, got {r}")
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

    def to_record(self) -> dict:
        return asdict(self)


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
