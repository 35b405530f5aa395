"""Segmented factorization sieve and interval counting over (x, x+y].

Counting {n : f(n) = k} in a window only needs prime squares: a prime
dividing n exactly once contributes g(1) = 1, so the counting kernel marks
multiples of p^2 for p <= sqrt(x+y), extracts exact exponents, and
multiplies table values into an accumulator per offset.  The accumulator is
int64 when g(alpha) <= 2^alpha for every alpha (all built-in families) and
an object array of exact Python ints otherwise; both run the same steps.
Leftover cofactors after sieving to sqrt(x+y) are prime and never affect f.

The sieving primes are generated segment by segment (`_sieving_primes`),
so no prime table above (x+y)^(1/4) is ever built.  A prime whose square
is below the chunk length is applied with strided views; every larger
prime has at most one multiple of p^2 in the chunk, and all of them in a
segment are applied in one numpy batch (the bucket-sieve idea of Oliveira
e Silva, Herzog and Pardi, Math. Comp. 83, 2014).

Windows are processed in chunks of at most DEFAULT_CHUNK offsets so the
working arrays stay cache- and memory-friendly.  Chunk boundaries depend
only on (x, y); counts are exact integers combined in fixed chunk order,
so results never depend on chunking or worker count.
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
from .factor import MAX_N, Factorization, introot, primes_upto
from .rules import ExponentRule

DEFAULT_CHUNK = 8_000_000

# Values per segment of _sieving_primes (one flag byte per odd value).
_PRIME_SEGMENT = 1 << 21


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
        raise ValueError(f"interval_report requires 0 < Y < X, got X={x}, Y={y}")


def _chunks(x: int, y: int, cap: int) -> list[tuple[int, int]]:
    out = []
    done = 0
    while done < y:
        step = min(cap, y - done)
        out.append((x + done, step))
        done += step
    return out


@dataclass
class SieveSegment:
    """Per-offset partial factorizations for the integers in (base, base+length].

    `factors[i]` holds the primes p <= sqrt(base+length) dividing
    base+1+i with their exact exponents; `cofactors[i]` is the unfactored
    remainder, which is 1 or a prime above the sieving limit.
    """

    base: int
    length: int
    factors: list[Factorization]
    cofactors: list[int]

    def factorization_at(self, offset: int) -> Factorization:
        fact = self.factors[offset]
        c = self.cofactors[offset]
        return fact + ((c, 1),) if c > 1 else fact


def sieve_segment(x: int, y: int) -> SieveSegment:
    """Factor every integer in (x, x+y] by sieving primes up to sqrt(x+y)."""
    _check_window(x, y)
    lists: list[list[tuple[int, int]]] = [[] for _ in range(y)]
    remain = list(range(x + 1, x + y + 1))
    for p in primes_upto(isqrt(x + y)):
        start = (x // p + 1) * p
        for idx in range(start - x - 1, y, p):
            m = remain[idx]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            remain[idx] = m
            lists[idx].append((p, e))
    return SieveSegment(x, y, [tuple(f) for f in lists], remain)


@lru_cache(maxsize=None)
def _value_dtype(rule: ExponentRule):
    # g(alpha) <= 2^alpha for all alpha forces f(n) <= n < 2**63, so an
    # int64 product accumulator cannot overflow.  Holds for every built-in
    # family; other tables multiply exact Python ints in object arrays.
    return np.int64 if all(v <= 1 << a for a, v in enumerate(rule.values)) else object


def _sieving_primes(limit: int):
    """Yield the primes <= limit, ascending, as int64 arrays, one segment at a time.

    Each segment of _PRIME_SEGMENT values keeps flags for its odd values
    only and is sieved by the odd primes up to isqrt(limit).
    """
    if limit < 2:
        return
    yield np.array([2], dtype=np.int64)
    base = primes_upto(isqrt(limit))[1:]
    for lo in range(1, limit + 1, _PRIME_SEGMENT):
        hi = min(lo + _PRIME_SEGMENT, limit + 1)
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)  # flags[i] is lo + 2i
        if lo == 1:
            flags[0] = False
        for q in base:
            if q * q >= hi:
                break
            start = max(q * q, -(-lo // q) * q)
            if start % 2 == 0:
                start += q
            flags[(start - lo) // 2 :: q] = False
        yield lo + 2 * np.flatnonzero(flags)


def _small_prime_exponents(p: int, n0: int, y: int) -> tuple[int, np.ndarray]:
    # Offsets s0, s0 + p^2, ... of the multiples of p^2 among n0..n0+y-1
    # (p^2 < y, so there is one) and the exact exponent of p at each.  The
    # multiples of p^a sit at every p^(a-2)-th of them, from (s_a - s0) / p^2.
    p2 = p * p
    s0 = -n0 % p2
    e = np.full((y - 1 - s0) // p2 + 1, 2, dtype=np.intp)
    pa = p2 * p
    while (sa := -n0 % pa) < y:
        e[(sa - s0) // p2 :: pa // p2] += 1
        pa *= p
    return s0, e


def _large_prime_hits(p: np.ndarray, p2: np.ndarray, n0: int, y: int):
    # Primes with p^2 >= y have at most one multiple of p^2 in the chunk:
    # its offset is -n0 mod p^2, taken on int64 without ever forming n0 + p^2.
    off = np.remainder(-n0, p2)
    hit = off < y
    p, p2, off = p[hit], p2[hit], off[hit]
    m = (n0 + off) // p2
    e = np.full(off.size, 2, dtype=np.intp)
    live = np.flatnonzero(m % p == 0)
    while live.size:
        m[live] //= p[live]
        e[live] += 1
        live = live[m[live] % p[live] == 0]
    return off, e


def _fvalues_chunk(rule: ExponentRule, x: int, y: int) -> np.ndarray:
    """Array of f(x+1), ..., f(x+y), of the rule's _value_dtype."""
    n0 = x + 1
    gtab = np.array(rule.values, dtype=_value_dtype(rule))
    fval = np.ones(y, dtype=gtab.dtype)
    for primes in _sieving_primes(isqrt(x + y)):
        p2 = primes * primes
        small = int(np.searchsorted(p2, y))
        for p in primes[:small].tolist():
            s0, e = _small_prime_exponents(p, n0, y)
            fval[s0 :: p * p] *= gtab[e]
        if small < primes.size:
            off, e = _large_prime_hits(primes[small:], p2[small:], n0, y)
            # Two large primes can share an offset (n = p^2 q^2), and fancy
            # `fval[off] *= ...` would keep only one factor; multiply.at
            # applies every one.
            np.multiply.at(fval, off, gtab[e])
    return fval


def _count_task(task) -> int:
    rule, k, x, y = task
    return int(np.count_nonzero(_fvalues_chunk(rule, x, y) == k))


def _profile_task(task) -> dict[int, int]:
    rule, x, y = task
    fval = _fvalues_chunk(rule, x, y)
    if _value_dtype(rule) is object:  # np.unique would sort Python ints
        return Counter(fval.tolist())
    values, counts = np.unique(fval, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _run_tasks(tasks, worker, workers: int):
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(worker, tasks)
    return [worker(t) for t in tasks]


def count_value(rule: ExponentRule, k: int, x: int, y: int, workers: int = 1) -> int:
    """#{n in (x, x+y] : f(n) = k}, by segmented sieve.

    The sieved exponents alone determine f; prime cofactors above
    sqrt(x+y) contribute g(1) = 1 and are never materialized.
    """
    _check_window(x, y)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(rule, k, cx, cy) for cx, cy in _chunks(x, y, DEFAULT_CHUNK)]
    return sum(_run_tasks(tasks, _count_task, workers))


def value_counts(rule: ExponentRule, x: int, y: int, workers: int = 1) -> dict[int, int]:
    """Counts of every f value attained in (x, x+y], keyed by value."""
    _check_window(x, y)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(rule, cx, cy) for cx, cy in _chunks(x, y, DEFAULT_CHUNK)]
    merged: dict[int, int] = {}
    for part in _run_tasks(tasks, _profile_task, workers):
        for v, c in part.items():
            merged[v] = merged.get(v, 0) + c
    return dict(sorted(merged.items()))


def count_r_free(x: int, y: int, r: int) -> int:
    """#{n in (x, x+y] : n is r-free}, by marking multiples of p^r."""
    _check_window(x, y)
    if r < 2:
        raise ValueError(f"count_r_free requires r >= 2, got {r}")
    total = 0
    for cx, cy in _chunks(x, y, DEFAULT_CHUNK):
        n0 = cx + 1
        marked = np.zeros(cy, dtype=bool)
        for primes in _sieving_primes(introot(cx + cy, r)):
            q = primes**r
            small = int(np.searchsorted(q, cy))
            for qs in q[:small].tolist():
                marked[-n0 % qs :: qs] = True
            off = np.remainder(-n0, q[small:])
            marked[off[off < cy]] = True
        total += cy - int(np.count_nonzero(marked))
    return total


def _count_rfull_divisors_above(fact: Factorization, r: int, lower: int) -> int:
    # Count divisors d > lower of n whose every prime exponent is >= r;
    # only primes with exponent >= r in n can appear in such a d.
    usable = [(p, a) for p, a in fact if a >= r]
    count = 0

    def descend(i: int, value: int) -> None:
        nonlocal count
        if i == len(usable):
            if value > lower:
                count += 1
            return
        p, a = usable[i]
        descend(i + 1, value)
        power = p**r
        for _ in range(r, a + 1):
            descend(i + 1, value * power)
            power *= p
    descend(0, 1)
    return count


def rfull_multiples_sum(x: int, y: int, r: int, method: str = "rfull") -> int:
    """Sum over r-full n in (2Y, 2X] of the count of multiples of n in (X, X+Y].

    Two independent evaluation paths: "rfull" enumerates the r-full n and
    sums floor differences; "divisors" counts, for each m in (X, X+Y], its
    r-full divisors above 2Y.  Both are exact and must agree.
    """
    if not 0 < y < x or 2 * x >= MAX_N:
        raise ValueError(f"rfull_multiples_sum requires 0 < Y < X and 2X < 2**63, got X={x}, Y={y}")
    if r < 2:
        raise ValueError(f"rfull_multiples_sum requires r >= 2, got {r}")
    if method == "rfull":
        _, n, _, _ = _table(r, 2 * x)
        n = n[np.searchsorted(n, 2 * y, "right"):np.searchsorted(n, 2 * x, "right")]
        return int(((x + y) // n - x // n).sum())
    if method == "divisors":
        seg = sieve_segment(x, y)
        return sum(
            _count_rfull_divisors_above(seg.factorization_at(off), r, 2 * y)
            for off in range(y)
        )
    raise ValueError(f"unknown method {method!r}")


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
                    eps: float = 0.01, workers: int = 1) -> IntervalReport:
    """Count f(n) = k over (x, x+y] and compare against density * y.

    density is the local density of {n : f(n) = k}, for example
    local_density(rule, k).density.  The three bound components are
    reported without the x^eps factor; eps only enters the admissibility
    flag.  Requires y < x so the error terms are defined.
    """
    check_report_window(x, y)
    admissible = admissible_window(rule.r, x, y, eps)
    parts = bound_breakdown(rule.r, x, y)
    count = count_value(rule, k, x, y, workers=workers)
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
