"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the library's own
evaluation paths: direct enumeration, literal divisor sums, and dynamic
programming, so that agreement is meaningful.
"""

from __future__ import annotations

from math import fsum, gcd, isqrt

import numpy as np


def partitions_dp(n: int) -> list[int]:
    """Partition numbers P(0..n) by the parts-bounded DP (knapsack) method."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def trial_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Plain trial division by every integer, no prime table."""
    pairs = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def exponent_divisor_counts(a: int) -> tuple[int, int]:
    """(divisor count, unitary divisor count) of a >= 1, from the list of its divisors."""
    divisors = [d for d in range(1, a + 1) if a % d == 0]
    return len(divisors), sum(1 for d in divisors if gcd(d, a // d) == 1)


def all_divisor_factorizations(fact):
    """Yield the factorization of every divisor of n = prod p^a."""
    if not fact:
        yield ()
        return
    (p, a), rest = fact[0], fact[1:]
    for tail in all_divisor_factorizations(rest):
        yield tail
        for e in range(1, a + 1):
            yield ((p, e),) + tail


def value_of(fact) -> int:
    n = 1
    for p, a in fact:
        n *= p**a
    return n


def rfull_decomposition(fact, r: int) -> tuple[int, ...]:
    """The unique parts of an r-full n = parts[0]^r * parts[1]^(r+1) * ... * parts[r-1]^(2r-1).

    parts[1..r-1] are squarefree and pairwise coprime (Ivic and Shiu, 1982).
    A prime with exponent alpha = r*q + s goes into parts[s] once when
    s >= 1, with p^(q-1) left for parts[0], and contributes p^q to parts[0]
    when s = 0.
    """
    assert r >= 2 and all(a >= r for _, a in fact), (fact, r)
    parts = [1] * r
    for p, alpha in fact:
        q, s = divmod(alpha, r)
        if s == 0:
            parts[0] *= p**q
        else:
            parts[0] *= p ** (q - 1)
            parts[s] *= p
    return tuple(parts)


def decomposition_value(parts) -> int:
    """parts[0]^r * parts[1]^(r+1) * ... for the r = len(parts) of rfull_decomposition."""
    n = 1
    for j, a in enumerate(parts):
        n *= a ** (len(parts) + j)
    return n


def mu_r_inverse_brute(fact, r: int) -> int:
    out = 1
    for _, a in fact:
        rem = a % r
        if rem == 0:
            out *= 1
        elif rem == 1:
            out *= -1
        else:
            return 0
    return out


def h_brute(rule, k: int, fact, r: int) -> int:
    """Literal divisor sum: sum of mu_r^{-1}(d) over d | n with f(n/d) = k."""
    n_exps = dict(fact)
    total = 0
    for dfact in all_divisor_factorizations(fact):
        d_exps = dict(dfact)
        quotient = tuple(
            (p, n_exps[p] - d_exps.get(p, 0))
            for p in n_exps
            if n_exps[p] - d_exps.get(p, 0) > 0
        )
        fv = 1
        for _, a in quotient:
            fv *= rule.values[a]
        if fv == k:
            total += mu_r_inverse_brute(dfact, r)
    return total


def rfull_flags(limit: int, r: int) -> np.ndarray:
    """Boolean array: flags[n] iff n is r-full, for 0 <= n <= limit.

    Filter-based: divide out every prime up to limit^(1/r) and require every
    extracted exponent >= r with a trivial leftover (a leftover > 1 always
    contains a prime with exponent < r).
    """
    root = int(limit ** (1.0 / r))
    while (root + 1) ** r <= limit:
        root += 1
    while root**r > limit:
        root -= 1
    sieve = np.ones(root + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(root) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0]

    remain = np.arange(limit + 1, dtype=np.int64)
    ok = np.ones(limit + 1, dtype=bool)
    ok[0] = False
    for p in primes:
        p = int(p)
        idx = np.arange(p, limit + 1, p, dtype=np.int64)
        m = remain[idx]
        e = np.zeros(idx.size, dtype=np.int64)
        live = m % p == 0
        while live.any():
            sel = np.nonzero(live)[0]
            m[sel] //= p
            e[sel] += 1
            live[sel] = m[sel] % p == 0
        remain[idx] = m
        ok[idx] &= e >= r
    ok &= remain == 1
    ok[1] = True
    return ok


def count_k_brute(rule, k: int, x: int, y: int) -> int:
    """Count f(n) = k over (x, x+y] by factorizing each n independently."""
    count = 0
    for n in range(x + 1, x + y + 1):
        fv = 1
        for _, a in trial_factorize(n):
            fv *= rule.values[a]
        if fv == k:
            count += 1
    return count


def value_counts_brute(rule, x: int, y: int) -> dict[int, int]:
    """Counts of every f value over (x, x+y], factorizing each n independently."""
    counts: dict[int, int] = {}
    for n in range(x + 1, x + y + 1):
        fv = 1
        for _, a in trial_factorize(n):
            fv *= rule.values[a]
        counts[fv] = counts.get(fv, 0) + 1
    return dict(sorted(counts.items()))


def count_r_free_brute(x: int, y: int, r: int) -> int:
    count = 0
    for n in range(x + 1, x + y + 1):
        if all(a < r for _, a in trial_factorize(n)):
            count += 1
    return count


def multiples_sum_brute(x: int, y: int, r: int) -> int:
    """Literal evaluation of the windowed multiples sum over r-full n."""
    total = 0
    for n in range(2 * y + 1, 2 * x + 1):
        if all(a >= r for _, a in trial_factorize(n)):
            total += (x + y) // n - x // n
    return total


def prime_power_weight_sum(x: int, kappa: float) -> float:
    """Sum of p^(-a kappa) over the prime powers p^a <= x with a >= 2.

    This is the exact shape of the abelian k = 2 weighted partial sum, whose
    weight is (-1)^a on p^a (a >= 2) and 0 on every other squarefull n.  The
    primes up to sqrt(x) come from a plain list sieve, not the library's
    prime table.
    """
    root = isqrt(x)
    is_prime = [True] * (root + 1)
    terms = []
    for p in range(2, root + 1):
        if not is_prime[p]:
            continue
        for m in range(p * p, root + 1, p):
            is_prime[m] = False
        q = p * p
        while q <= x:
            terms.append(1.0 if kappa == 0 else q ** (-kappa))
            q *= p
    return fsum(terms)
