"""Exact factorization and pointwise evaluation of rule-valued functions.

Every operation here is a pure function of immutable inputs.  The prime
table is grown on demand behind a module-level cache and only ever read
afterwards, so concurrent use is unrestricted.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt

import numpy as np

from .rules import ExponentRule

# A factorization is a tuple of (prime, exponent) pairs, primes strictly
# increasing, every exponent >= 1; the empty tuple represents n = 1.
Factorization = tuple[tuple[int, int], ...]

MAX_N = 2**63

_prime_array = np.empty(0, dtype=np.int64)
_prime_list: list[int] = []
_prime_limit = 1


def _extend_primes(limit: int) -> None:
    global _prime_array, _prime_list, _prime_limit
    if limit <= _prime_limit:
        return
    limit = max(limit, 2 * _prime_limit, 1 << 16)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    _prime_array = np.nonzero(sieve)[0].astype(np.int64)
    _prime_list = _prime_array.tolist()
    _prime_limit = limit


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending, from a shared growable sieve."""
    if limit < 2:
        return []
    _extend_primes(limit)
    hi = int(np.searchsorted(_prime_array, limit, side="right"))
    return _prime_list[:hi]


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
    x = int(round(n ** (1.0 / r)))
    while x > 0 and x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def factorize(n: int) -> Factorization:
    """Exact prime factorization by trial division; () for n = 1.

    Division starts with the primes the shared table already holds (at
    least those up to 2^16).  The table doubles only while the cofactor
    still unfactored may have a prime factor past it, so n = 2^52 needs
    no prime above 2^16.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= MAX_N:
        raise ValueError("factorize requires n < 2**63")
    pairs = []
    m = n
    tried, reach = 0, max(_prime_limit, 1 << 16)  # primes[:tried] do not divide m
    while True:
        primes = primes_upto(min(reach, isqrt(m)))
        for p in islice(primes, tried, None):
            if p * p > m:
                break
            if m % p:
                continue
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        else:
            if reach < isqrt(m):
                tried, reach = len(primes), 2 * reach
                continue
        break
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


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


def is_r_full(fact: Factorization, r: int) -> int:
    """1 if every exponent is >= r (vacuously true for n = 1), else 0."""
    if r < 2:
        raise ValueError("is_r_full requires r >= 2")
    return int(all(a >= r for _, a in fact))


def _inverse_at_exponent(alpha: int, r: int) -> int:
    # Dirichlet inverse of the r-free indicator at p^alpha.
    rem = alpha % r
    if rem == 0:
        return 1
    if rem == 1:
        return -1
    return 0


def rfull_weights_up_to(rule: ExponentRule, fact: Factorization, k_max: int) -> dict[int, int]:
    """All nonzero weights h(k), k <= k_max, at one factorization.

    h is the divisor sum, over d | n with f(n/d) = k, of the r-free-inverse
    at d.  The sum is evaluated grouped by the value f(n/d): each prime part
    contributes a small map {value: coefficient}, and maps combine by value
    products.  Table values are >= 1, so partial products above k_max can
    never fall back under it and are dropped early; the result is still the
    exact divisor sum for every k <= k_max.
    """
    if k_max < 1:
        return {}
    values = rule.values
    amax = rule.alpha_max
    r = rule.r
    combined = {1: 1}
    for _, alpha in fact:
        if alpha > amax:
            raise ValueError(f"exponent {alpha} exceeds the rule table (alpha_max {amax})")
        local: dict[int, int] = {}
        for beta in range(alpha + 1):
            c = _inverse_at_exponent(beta, r)
            if c == 0:
                continue
            v = values[alpha - beta]
            local[v] = local.get(v, 0) + c
        merged: dict[int, int] = {}
        for v1, c1 in combined.items():
            for v2, c2 in local.items():
                if c2 == 0:
                    continue
                v = v1 * v2
                if v <= k_max:
                    merged[v] = merged.get(v, 0) + c1 * c2
        combined = merged
        if not combined:
            break
    return {k: c for k, c in combined.items() if c}

