"""Exact factorization and pointwise evaluation of rule-valued functions.

factorize covers every n < 2^32 and every squarefull n < 2^63 (the r-full
rows) by trial division and a square or cube root, and refuses the rest.
Every operation here is a pure function of immutable inputs.  The prime
table is grown on demand by primes_upto alone; it and the per-rule tables of
rows, built once and held as tuples, are read-only, so concurrent use is
unrestricted.  One row builder and one product serve both convolutions of
1_{f=k}: h, with the r-free indicator's inverse, and H_k, with mu.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import isqrt

import numpy as np

from .rules import ExponentRule

# A factorization is a tuple of (prime, exponent) pairs, primes strictly
# increasing, every exponent >= 1; the empty tuple represents n = 1.
Factorization = tuple[tuple[int, int], ...]

MAX_N = 2**63
# The largest exponent of any n < MAX_N, that of 2 in 2^62.
MAX_EXPONENT = 62

# The least prime table: trial division stops here, and so does the least
# cut of the counting sieve.
_PRIME_FLOOR = 1 << 16

_prime_array = np.empty(0, dtype=np.int64)
_prime_array.flags.writeable = False
_prime_limit = 1


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending: a read-only int64 view of one shared table.

    A limit past the table grows it to at least twice its size, and never
    below 2^16.
    """
    global _prime_array, _prime_limit
    if limit > _prime_limit:
        top = max(limit, 2 * _prime_limit, _PRIME_FLOOR)
        sieve = np.ones(top + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        table = np.nonzero(sieve)[0].astype(np.int64)
        table.flags.writeable = False
        _prime_array = table
        _prime_limit = top  # last, so that a reader who sees it sees the array
    return _prime_array[: np.searchsorted(_prime_array, limit, "right")]


def _ranges(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (j, step) listing step = 0 .. count[j] - 1 for every j in turn.
    j = np.repeat(np.arange(count.size), count)
    return j, np.arange(j.size) - np.repeat(np.cumsum(count) - count, count)


@lru_cache(maxsize=None)
def _trial_primes() -> list[int]:
    # The primes up to the floor, listed once: warm trial division reads no table.
    return primes_upto(_PRIME_FLOOR).tolist()


def introot(n: int, r: int) -> int:
    """floor(n ** (1/r)), exact for any non-negative integer n."""
    if n < 0:
        raise ValueError("introot requires n >= 0")
    if r < 1:
        raise ValueError("introot requires r >= 1")
    if r == 1 or n < 2:
        return n
    if r >= n.bit_length():  # n < 2^r; at huge r, 2**r is too large to compute
        return 1
    # Integer Newton from 2^ceil(bits / r) >= the root: the iterates fall
    # to the root and stop there.
    x = 1 << -(-n.bit_length() // r)
    while (y := ((r - 1) * x + n // x ** (r - 1)) // r) < x:
        x = y
    return x


def factorize(n: int) -> Factorization:
    """Exact prime factorization of every n < 2^32 and every squarefull n < 2^63; () for n = 1.

    Trial division by the primes up to 2^16 needs no shared prime table
    larger than its first size.  It leaves a cofactor m with no prime factor
    up to 2^16: below 2^32, m is 1 or a prime; at or above 2^32, m is taken
    only as the square or cube of an integer, which lies below 2^32 and so is
    a prime.  Two primes past 2^16, each at least squared, pass 2^64, so
    every squarefull n leaves such an m.  Any other m raises ValueError.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= MAX_N:
        raise ValueError("factorize requires n < 2**63")
    pairs = []
    m = n
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p:
            continue
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
    if m < _PRIME_FLOOR**2:
        if m > 1:
            pairs.append((m, 1))
    elif (root := isqrt(m)) ** 2 == m:
        pairs.append((root, 2))
    elif (root := introot(m, 3)) ** 3 == m:
        pairs.append((root, 3))
    else:
        raise ValueError(f"factorize covers n < 2**32 and squarefull n < 2**63; {n} leaves the"
                         f" cofactor {m}, neither a prime below 2**32 nor a prime's square or cube")
    return tuple(pairs)


# The encoder of sigma_r(n) = prod prime(alpha) over p^alpha || n, alpha >= r (at most n < 2^63).
_SIGNATURE_PRIMES = (1, *(p for p in range(2, 308) if all(p % d for d in range(2, isqrt(p) + 1))))


def _signature_exponents(code: int) -> tuple[int, ...]:
    # The decoder: the exponents alpha of every n with this code, ascending.
    out, alpha = [], 0
    while code > 1:
        alpha += 1
        while code % _SIGNATURE_PRIMES[alpha] == 0:
            code //= _SIGNATURE_PRIMES[alpha]
            out.append(alpha)
    return tuple(out)


def eval_rule(rule: ExponentRule, fact: Factorization) -> int:
    """f(n) = product of g(alpha) over the factorization; 1 for n = 1."""
    out = 1
    values = rule.values
    amax = rule.alpha_max
    for _, a in fact:
        if a > amax:
            raise ValueError(f"exponent {a} exceeds the rule table (alpha_max {amax})")
        out *= values[a]
    return out


@lru_cache(maxsize=None)
def _local_weights(rule: ExponentRule, period: int,
                   top: int = MAX_EXPONENT) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row alpha <= min(top, alpha_max) (no n < 2^63 has an exponent past 62): the nonzero
    # (value, coefficient) pairs of 1_{f=k} * (1_{period-free})^-1 at p^alpha; that inverse at
    # p^beta is +1 where period | beta, -1 one step above, else 0.  Period r gives h's rows;
    # past every exponent read the inverse is mu, and row alpha is H_k's X^g(alpha) - X^g(alpha-1).
    g = rule.values
    rows = []
    for alpha in range(min(top, rule.alpha_max) + 1):
        local = Counter(g[alpha - beta] for beta in range(0, alpha + 1, period))
        local.subtract(g[alpha - beta - 1] for beta in range(0, alpha, period))
        rows.append(tuple((v, c) for v, c in local.items() if c))
    return tuple(rows)


def _lattice_product(rows, fact: Factorization, k_max: int) -> dict[int, int]:
    # The nonzero coefficients of X^k, k <= k_max, in the product of rows[alpha] over
    # p^alpha || n, in the algebra X^u X^v = X^(uv).  Values are >= 1, so a partial product
    # past k_max never falls back under it: the values <= k_max are divisor-closed.
    combined = {1: 1} if k_max >= 1 else {}
    for _, alpha in fact:
        merged: dict[int, int] = {}
        for v1, c1 in combined.items():
            for v2, c2 in rows[alpha]:
                v = v1 * v2
                if v <= k_max:
                    merged[v] = merged.get(v, 0) + c1 * c2
        combined = merged
    return {k: c for k, c in combined.items() if c}


def rfull_weights_up_to(rule: ExponentRule, fact: Factorization, k_max: int) -> dict[int, int]:
    """All nonzero weights h(k), k <= k_max, at one factorization.

    h is the divisor sum, over d | n with f(n/d) = k, of the r-free-inverse
    at d.  The sum is evaluated grouped by the value f(n/d): each prime part
    contributes its row of h, and rows combine by value products, cut at
    k_max.  The same product and row builder give H_k = 1_{f=k} * mu.
    """
    if (top := max((a for _, a in fact), default=0)) > rule.alpha_max:
        raise ValueError(f"exponent {top} exceeds the rule table (alpha_max {rule.alpha_max})")
    return _lattice_product(_local_weights(rule, rule.r, max(MAX_EXPONENT, top)), fact, k_max)
