"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and separate from the library's own
evaluation paths: direct enumeration, literal divisor sums, and dynamic
programming, so that agreement is meaningful.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache
from math import fsum, gcd, isqrt

import numpy as np

from pimshort.factor import MAX_N, introot, primes_upto


def partitions_dp(n: int) -> list[int]:
    """Partition numbers P(0..n) by the parts-bounded DP (knapsack) method."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def rfull_table_dfs(r: int, limit: int):
    """The table of density.rfull_table by one recursive call per r-full n.

    One walk over prime powers p^e, e >= r, for primes p <= limit^(1/r)
    reaches each r-full n once and carries the exact pair a = prod (p^r - 1),
    c = prod p^(r-1) (p - 1) down the tree, so that psi(n) = n * a / c and
    1/psi(n) = c / (n * a) is one correctly rounded division.
    """
    if r < 2:
        raise ValueError(f"rfull_table requires r >= 2, got {r}")
    if not 1 <= limit < MAX_N:
        raise ValueError(f"rfull_table requires 1 <= limit < 2**63, got {limit}")
    primes = primes_upto(introot(limit, r)).tolist()  # Python ints: value * power must not wrap
    index = {(): 0}  # exponent pattern -> its place in facts
    ns, recips, patterns = array("q", [1]), array("d", [1.0]), array("i", [0])

    def descend(start: int, value: int, pattern: tuple[int, ...], a: int, c: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            power = p**r
            if value * power > limit:
                break
            a_p = a * (power - 1)
            c_p = c * (power // p) * (p - 1)
            e = r
            while value * power <= limit:
                n = value * power
                key = pattern + (e,)
                ns.append(n)
                recips.append(c_p / (n * a_p))
                patterns.append(index.setdefault(key, len(index)))
                descend(i + 1, n, key, a_p, c_p)
                power *= p
                e += 1

    descend(0, 1, (), 1, 1)
    del descend  # its closure refers to itself: free the buffers on return, not at the next gc
    order = np.asarray(ns).argsort()
    return ([tuple(zip(primes, key)) for key in index],
            *(np.asarray(column)[order] for column in (ns, recips, patterns)))


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


@lru_cache(maxsize=None)
def _small_primes() -> list[int]:
    # The primes below 2^16 from a plain list sieve, not the library's prime table.
    flags = [True] * (1 << 16)
    for p in range(2, 1 << 8):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, 1 << 16, p))
    return [p for p in range(2, 1 << 16) if flags[p]]


# Miller-Rabin with the first twelve prime bases is deterministic for n < 3.18e23
# (Sorenson and Webster, Math. Comp. 86, 2017), which covers every n < 2^63.
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


def rho_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization of any 1 <= n < 2^63, whatever its cofactor.

    Trial division by the primes below 2^16, then Pollard-Brent rho splits what
    is left, and a deterministic Miller-Rabin test proves its parts prime.
    """
    assert 1 <= n < MAX_N, n
    pairs = []
    m = n
    for p in _small_primes():
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            pairs.append((p, e))
    rest, parts = [m] if m > 1 else [], []
    while rest:
        c = rest.pop()
        if c < 1 << 32 or _is_prime(c):
            parts.append(c)
        else:
            d = _rho_factor(c)
            rest += [d, c // d]
    return tuple(pairs + sorted(Counter(parts).items()))


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


def squarefull_exponents(x: int, y: int) -> list[list[int]]:
    """The exponents a >= 2 of the p^a || n, for each n in (x, x+y], where x+y < 2^63.

    The whole window is divided by each prime p < 2^16 at once, a numpy slice each.  What
    is left of an n has no prime factor below 2^16, so below 2^63 it holds a square only
    as p^2 q or p^3 with p^2 <= (x+y) / 2^16, found by one remainder per such prime, or as
    p^2 alone, an exact square.  Fast enough for windows of 10^4 integers near 2^63.
    """
    small = 1 << 16
    top = max(isqrt((x + y) // small), small)
    flags = np.ones(top + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    rest = np.arange(y, dtype=np.int64) + (x + 1)
    exponents = [[] for _ in range(y)]
    for p in primes[primes < small].tolist():
        rest[-(x + 1) % p :: p] //= p
        power, a, exact = p * p, 2, {}
        while (s := -(x + 1) % power) < y:
            rest[s::power] //= p
            exact.update(dict.fromkeys(range(s, y, power), a))
            power, a = power * p, a + 1
        for i, a in exact.items():
            exponents[i].append(a)
    large = primes[primes >= small]
    for p in large[np.remainder(-(x + 1), large * large) < y].tolist():
        for i in range(-(x + 1) % (p * p), y, p * p):
            a, c = 0, int(rest[i])
            while c % p == 0:
                c, a = c // p, a + 1
            rest[i] = c
            exponents[i].append(a)
    for i, c in enumerate(rest.tolist()):
        if c > 1 and isqrt(c) ** 2 == c:
            exponents[i].append(2)
    return exponents


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
