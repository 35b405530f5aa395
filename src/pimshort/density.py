"""R-full numbers, the generalized Dedekind psi weight, and local densities.

The density of {n : f(n) = k} is (1/zeta(r)) times the sum, over r-full b
with f(b) = k, of 1/psi(b), where psi(b) = b * prod_{p|b}(1 + 1/p + ... +
1/p^(r-1)) generalizes the Dedekind psi function.  A second evaluation path
sums the r-full-supported convolution weights h(n)/n and divides by
zeta(r); the two paths must agree within the truncation tails.

Truncation tails are estimated by a geometric extrapolation of the first
out-of-range block (bound, 2^r * bound]: r-full counts grow like X^(1/r),
so successive doubling blocks of the reciprocal series shrink by roughly
2^(1/r - 1).  The estimate is a heuristic uncertainty, not a proof-grade
bound.

Series are accumulated with math.fsum (exactly rounded), so round-off is
far below the 1e-12 budget even at the default truncation 10^9.

Every series reads one table per r, kept for the life of the process and
built by a single walk up to the largest limit asked for so far.  The table
groups the r-full n by exponent pattern: f and h are prime-independent, so
each series evaluates the rule once per pattern and slices that pattern's
ascending n (and their exact 1/psi(n)) at its own limit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from math import exp, fsum, log

from .bounds import zeta
from .factor import (
    Factorization,
    eval_rule,
    factorize,
    introot,
    is_r_full,
    primes_upto,
    rfull_weights_up_to,
)
from .rules import ExponentRule

DEFAULT_BOUND = 10**9

# pattern -> (one factorization with that exponent pattern, every r-full
# n <= limit with the pattern ascending, 1/psi(n) for each of them).
RFullTable = dict[tuple[int, ...], tuple[Factorization, list[int], list[float]]]


def rfull_table(r: int, limit: int) -> RFullTable:
    """Every r-full n <= limit (1 included), grouped by exponent pattern.

    One walk over prime powers p^e, e >= r, for primes p <= limit^(1/r)
    reaches each r-full n once and carries the exact pair a = prod (p^r - 1),
    c = prod p^(r-1) (p - 1) down the tree, so that psi(n) = n * a / c and
    1/psi(n) = c / (n * a) is one correctly rounded division.
    """
    if r < 2:
        raise ValueError(f"rfull_table requires r >= 2, got {r}")
    if limit < 1:
        raise ValueError(f"rfull_table requires limit >= 1, got {limit}")
    primes = primes_upto(introot(limit, r))
    table: RFullTable = {(): ((), [1], [1.0])}

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
                group = table.get(key)
                if group is None:  # 2^e1 3^e2 ... is the smallest n with this pattern
                    group = table[key] = (tuple(zip(primes, key)), [], [])
                group[1].append(n)
                group[2].append(c_p / (n * a_p))
                descend(i + 1, n, key, a_p, c_p)
                power *= p
                e += 1

    descend(0, 1, (), 1, 1)
    for _, ns, recips in table.values():
        order = sorted(range(len(ns)), key=ns.__getitem__)
        ns[:], recips[:] = [ns[i] for i in order], [recips[i] for i in order]
    return table


# r -> (L, rfull_table(r, L)) for the largest L asked for so far.
_tables: dict[int, tuple[int, RFullTable]] = {}


def _table(r: int, limit: int) -> RFullTable:
    """The r-full table up to at least limit (a limit below 1 reaches rfull_table)."""
    held = _tables.get(r)
    if held is None or not 1 <= limit <= held[0]:
        held = _tables[r] = (limit, rfull_table(r, limit))
    return held[1]


def enumerate_rfull(r: int, limit: int) -> list[int]:
    """Every r-full n <= limit in ascending order (1 included)."""
    return sorted(n for _, ns, _ in _table(r, limit).values()
                  for n in ns[:bisect_right(ns, limit)])


def rfull_factorizations(r: int, limit: int) -> list[tuple[int, Factorization]]:
    """Every r-full n <= limit with its factorization, ascending."""
    return [(n, factorize(n)) for n in enumerate_rfull(r, limit)]


def rfull_count_bound(r: int, limit: int) -> float:
    """An upper bound on the number of r-full n <= limit, without enumerating them.

    Each r-full n is a0^r * a1^(r+1) * ... * a_{r-1}^(2r-1) for one tuple
    (see RFullDecomposition), so counting every tuple bounds the count.
    The tuples (a2, ..., a_{r-1}) are walked; for each, a0 is counted by its
    r-th root and a1 <= A by the integral test,
    sum (rest / a1^(r+1))^(1/r) <= rest^(1/r) (1 + r (1 - A^(-1/r))).
    Works in logarithms, so any r and limit are fine.
    """
    if r < 2:
        raise ValueError(f"rfull_count_bound requires r >= 2, got {r}")
    if limit < 1:
        return 0.0

    def walk(i: int, log_rest: float) -> float:
        i = min(i, max(1, int(log_rest / log(2)) - r + 1))  # a_i >= 2 needs 2^(r+i) <= rest
        while i > 1 and (r + i) * log(2) > log_rest:
            i -= 1  # a_i = 1 is the only choice
        if i == 1:
            return exp(log_rest / r) * (1 + r * (1 - exp(-log_rest / (r * (r + 1)))))
        total = walk(i - 1, log_rest)
        a = 2
        while (r + i) * log(a) <= log_rest:
            total += walk(i - 1, log_rest - (r + i) * log(a))
            a += 1
        return total

    return walk(r - 1, log(limit))


@dataclass(frozen=True)
class RFullDecomposition:
    """n = parts[0]^r * parts[1]^(r+1) * ... * parts[r-1]^(2r-1).

    parts[1..r-1] have squarefree product and are pairwise coprime; this
    pins the decomposition uniquely.
    """

    r: int
    parts: tuple[int, ...]


def decompose_rfull(fact: Factorization, r: int) -> RFullDecomposition:
    """Split an r-full factorization into the unique power decomposition.

    A prime with exponent alpha = r*q + s goes into parts[s] once when
    s >= 1 (with p^(q-1) left for parts[0]) and contributes p^q to parts[0]
    when s = 0; the round-trip identity then holds by construction.
    """
    if r < 2:
        raise ValueError(f"decompose_rfull requires r >= 2, got {r}")
    if not is_r_full(fact, r):
        raise ValueError("decompose_rfull requires an r-full factorization")
    parts = [1] * r
    for p, alpha in fact:
        q, s = divmod(alpha, r)
        if s == 0:
            parts[0] *= p**q
        else:
            parts[0] *= p ** (q - 1)
            parts[s] *= p
    return RFullDecomposition(r, tuple(parts))


def tail_geometric_factor(r: int) -> float:
    """Geometric-series factor applied to the first out-of-range block."""
    return 1.0 / (1.0 - 2.0 ** (1.0 / r - 1.0))


@dataclass(frozen=True)
class DensityResult:
    """Truncated density series for one (rule, k)."""

    rule: str
    k: int
    r: int
    bound: int
    partial_sum: float
    tail_estimate: float
    zeta_r: float
    density: float

    def to_record(self) -> dict:
        return {("B" if key == "bound" else key): v for key, v in asdict(self).items()}


def _check_series_args(k: int, bound: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if bound < 1:
        raise ValueError(f"truncation bound must be >= 1, got {bound}")


def _densities(rule: ExponentRule, bound: int, ks: range) -> dict[int, DensityResult]:
    """The reciprocal-psi pass: a DensityResult for every k in ks.

    Head sums are kept only for values f(b) in ks, with f evaluated once per
    exponent pattern; the tail block is every r-full b in (bound, 2^r * bound].
    """
    r = rule.r
    top = (1 << r) * bound
    heads: dict[int, list[float]] = {}
    block: list[float] = []
    for fact, ns, recips in _table(r, top).values():
        i = bisect_right(ns, bound)
        if i and (v := eval_rule(rule, fact)) in ks:
            heads.setdefault(v, []).extend(recips[:i])
        block.extend(recips[i:bisect_right(ns, top, i)])
    tail = tail_geometric_factor(r) * fsum(block)
    z = zeta(r)
    out = {}
    for k in ks:
        partial = fsum(heads.get(k, ()))
        out[k] = DensityResult(rule.name, k, r, bound, partial, tail, z, partial / z)
    return out


def local_density(rule: ExponentRule, k: int, bound: int = DEFAULT_BOUND) -> DensityResult:
    """Density of {n : f(n) = k} from the truncated reciprocal-psi series.

    An unattained k yields density 0 (never an error).
    """
    _check_series_args(k, bound)
    return _densities(rule, bound, range(k, k + 1))[k]


def density_profile(rule: ExponentRule, bound: int, k_max: int) -> dict[int, DensityResult]:
    """local_density for every k <= k_max in a single enumeration pass."""
    _check_series_args(k_max, bound)
    return _densities(rule, bound, range(1, k_max + 1))


def weight_harmonic_sum(rule: ExponentRule, k: int, bound: int) -> float:
    """Sum of h(n)/n over r-full n <= bound: the second density path numerator.

    Dividing by zeta(r) gives the density again, up to both truncation tails.
    """
    return weight_harmonic_profile(rule, bound, k)[k][0]


def weight_harmonic_tail(rule: ExponentRule, k: int, bound: int) -> float:
    """Geometric tail estimate for the h(n)/n series beyond the bound.

    Mirrors the density tail: |h(n)|/n summed over the first out-of-range
    block (bound, 2^r * bound], scaled by the geometric factor.
    """
    return weight_harmonic_profile(rule, bound, k)[k][1]


def weight_harmonic_profile(rule: ExponentRule, bound: int,
                            k_max: int) -> dict[int, tuple[float, float]]:
    """(harmonic sum, tail estimate) for every k <= k_max, h evaluated once per pattern."""
    _check_series_args(k_max, bound)
    r = rule.r
    top = (1 << r) * bound
    heads: dict[int, list[float]] = {}
    tails: dict[int, list[float]] = {}
    for fact, ns, _ in _table(r, top).values():
        j = bisect_right(ns, top)
        if not j:
            continue
        i = bisect_right(ns, bound, 0, j)
        for k, h in rfull_weights_up_to(rule, fact, k_max).items():
            heads.setdefault(k, []).extend(h / n for n in ns[:i])
            tails.setdefault(k, []).extend(abs(h) / n for n in ns[i:j])
    factor = tail_geometric_factor(r)
    return {k: (fsum(heads.get(k, ())), factor * fsum(tails.get(k, ())))
            for k in range(1, k_max + 1)}


def weight_partial_sum(rule: ExponentRule, k: int, kappa: float, x: int) -> float:
    """Exact partial sum of |h(n)| / n^kappa over r-full n <= x."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if x < 2:
        raise ValueError(f"weight_partial_sum requires x >= 2, got {x}")
    vals = []
    for fact, ns, _ in _table(rule.r, x).values():
        i = bisect_right(ns, x)
        h = abs(rfull_weights_up_to(rule, fact, k).get(k, 0)) if i else 0
        if h:
            vals.extend([h] * i if kappa == 0 else (h * n ** (-float(kappa)) for n in ns[:i]))
    return fsum(vals)
