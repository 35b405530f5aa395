"""Exact factorization and pointwise evaluation of rule-valued functions.

Every operation here is a pure function of immutable inputs.  The prime
table is grown on demand behind a module-level cache and only ever read
afterwards, so concurrent use is unrestricted.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt

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


def _prime_view(limit: int) -> np.ndarray:
    # primes_upto(limit) as an int64 view of the shared table, not a copy.
    n = len(primes_upto(limit))  # grows the table first
    return _prime_array[:n]


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


# Trial division stops here; the smallest shared prime table reaches it.
_TRIAL_LIMIT = 1 << 16

# Miller-Rabin with these bases is deterministic for n < 3.3e24 > MAX_N.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # n is odd and has no prime factor below 2^16.
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    # A proper factor of the odd composite n, by Pollard-Brent rho.
    c = 0
    while True:
        c += 1
        v, saved, q, g, run = 2, 2, 1, 1, 1
        while g == 1:
            x = v
            for _ in range(run):
                v = (v * v + c) % n
            for k in range(0, run, 128):
                saved = v
                for _ in range(min(128, run - k)):
                    v = (v * v + c) % n
                    q = q * abs(x - v) % n
                g = gcd(q, n)
                if g != 1:
                    break
            run *= 2
        if g == n:  # the batch overshot: step again from its start
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Exact prime factorization; () for n = 1.

    Trial division by the primes up to 2^16 needs no shared prime table
    larger than its first size, whatever n is.  What is left has no prime
    factor below 2^16: it is split by Pollard-Brent rho, and its parts are
    proven prime by a deterministic Miller-Rabin test.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= MAX_N:
        raise ValueError("factorize requires n < 2**63")
    pairs = []
    m = n
    for p in primes_upto(min(_TRIAL_LIMIT, isqrt(m))):
        if p * p > m:
            break
        if m % p:
            continue
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
    rest, parts = [m] if m > 1 else [], []
    while rest:
        c = rest.pop()
        if c < _TRIAL_LIMIT**2 or _is_prime(c):
            parts.append(c)
        else:
            d = _rho_factor(c)
            rest += [d, c // d]
    pairs += sorted(Counter(parts).items())
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

