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

Every series reads a prefix of one table per r, kept for the process and
grown by one walk to the largest limit asked for: n (int64), 1/psi(n) and a
pattern index, sorted by n; f and h are evaluated once per exponent pattern.
n must fit int64, so a tail block is cut below 2^63.  Sums are math.fsum,
exactly rounded in any term order, far inside the 1e-12 budget at B = 10^9.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from math import exp, fsum, log

import numpy as np

from .bounds import zeta
from .factor import (
    MAX_N,
    Factorization,
    eval_rule,
    factorize,
    introot,
    primes_upto,
    rfull_weights_up_to,
)
from .rules import ExponentRule

DEFAULT_BOUND = 10**9

# (facts, n, recip, pattern): every r-full n up to a limit ascending (int64), 1/psi(n)
# (float64), and the index (int32) into facts, 2^e1 3^e2 ..., of n's exponent pattern.
RFullTable = tuple[list[Factorization], np.ndarray, np.ndarray, np.ndarray]


def rfull_table(r: int, limit: int) -> RFullTable:
    """Every r-full n <= limit (1 included), for 1 <= limit < 2^63.

    One walk over prime powers p^e, e >= r, for primes p <= limit^(1/r)
    reaches each r-full n once and carries the exact pair a = prod (p^r - 1),
    c = prod p^(r-1) (p - 1) down the tree, so that psi(n) = n * a / c and
    1/psi(n) = c / (n * a) is one correctly rounded division.
    """
    if r < 2:
        raise ValueError(f"rfull_table requires r >= 2, got {r}")
    if not 1 <= limit < MAX_N:
        raise ValueError(f"rfull_table requires 1 <= limit < 2**63, got {limit}")
    primes = primes_upto(introot(limit, r))
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


# r -> (L, rfull_table(r, L)) for the largest L asked for so far.
_tables: dict[int, tuple[int, RFullTable]] = {}


def _table(r: int, limit: int) -> RFullTable:
    """The r-full table up to at least limit (a limit outside [1, 2^63) reaches rfull_table)."""
    held = _tables.get(r)
    if held is None or not 1 <= limit <= held[0]:
        held = _tables[r] = (limit, rfull_table(r, limit))
    return held[1]


def enumerate_rfull(r: int, limit: int) -> list[int]:
    """Every r-full n <= limit in ascending order (1 included), for limit < 2^63."""
    _, n, _, _ = _table(r, limit)
    return n[:np.searchsorted(n, limit, "right")].tolist()


def rfull_factorizations(r: int, limit: int) -> list[tuple[int, Factorization]]:
    """Every r-full n <= limit with its factorization, ascending."""
    return [(n, factorize(n)) for n in enumerate_rfull(r, limit)]


def rfull_count_bound(r: int, limit: int) -> float:
    """An upper bound on the number of r-full n <= limit, without enumerating them.

    Every r-full n is a0^r * a1^(r+1) * ... * a_{r-1}^(2r-1) for at least
    one tuple of positive integers: write each exponent as alpha = r*q + s
    with 0 <= s < r, and put p^q into a0 when s = 0, or p into a_s and
    p^(q-1) into a0 when s >= 1.  So the number of tuples with that value
    at most limit bounds the count from above.  The tuples (a2, ..., a_{r-1})
    are walked; for each, a0 is counted by its r-th root and a1 <= A by the
    integral test,
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


def check_series_args(k: int, bound: int) -> None:
    """Refuse a k below 1 or a truncation bound outside [1, 2^63) with ValueError."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 1 <= bound < MAX_N:
        raise ValueError(f"truncation bound must be in [1, 2**63), got {bound}")


def _densities(rule: ExponentRule, bound: int, ks: range) -> dict[int, DensityResult]:
    """The reciprocal-psi pass: a DensityResult for every k in ks.

    Head sums are kept only for values f(b) in ks, with f evaluated once per
    exponent pattern; the tail block is every r-full b in (bound, 2^r * bound].
    """
    r = rule.r
    top = min((1 << r) * bound, MAX_N - 1)
    facts, n, recip, pattern = _table(r, top)
    i, j = np.searchsorted(n, [bound, top], "right").tolist()
    value = np.zeros(len(facts), dtype=np.int64)  # f of each pattern in the head
    for q in np.flatnonzero(np.bincount(pattern[:i])).tolist():
        f = eval_rule(rule, facts[q])
        value[q] = f if f in ks else 0  # no k is 0; an f past ks may not fit int64
    head = value[pattern[:i]]
    tail = tail_geometric_factor(r) * fsum(recip[i:j].tolist())
    z = zeta(r)
    out = {}
    for k in ks:
        partial = fsum(recip[:i][head == k].tolist())
        out[k] = DensityResult(rule.name, k, r, bound, partial, tail, z, partial / z)
    return out


def local_density(rule: ExponentRule, k: int, bound: int = DEFAULT_BOUND) -> DensityResult:
    """Density of {n : f(n) = k} from the truncated reciprocal-psi series.

    An unattained k yields density 0 (never an error).
    """
    check_series_args(k, bound)
    return _densities(rule, bound, range(k, k + 1))[k]


def density_profile(rule: ExponentRule, bound: int, k_max: int) -> dict[int, DensityResult]:
    """local_density for every k <= k_max in a single enumeration pass."""
    check_series_args(k_max, bound)
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
    check_series_args(k_max, bound)
    top = min((1 << rule.r) * bound, MAX_N - 1)
    facts, n, _, pattern = _table(rule.r, top)
    i, j = np.searchsorted(n, [bound, top], "right").tolist()
    present = np.flatnonzero(np.bincount(pattern[:j]))
    weights = [rfull_weights_up_to(rule, facts[q], k_max) for q in present.tolist()]
    h_of = np.zeros(len(facts), dtype=np.int64)  # h_k of each pattern
    out = {}
    for k in range(1, k_max + 1):
        h_of[present] = [w.get(k, 0) for w in weights]
        h = h_of[pattern[:j]]
        nonzero = np.flatnonzero(h)
        # int / int is correctly rounded; float64 n is not exact past 2^53.
        terms = [a / b for a, b in zip(h[nonzero].tolist(), n[nonzero].tolist())]
        head = np.searchsorted(nonzero, i).item()
        out[k] = (fsum(terms[:head]), tail_geometric_factor(rule.r) * fsum(map(abs, terms[head:])))
    return out


def weight_partial_sum(rule: ExponentRule, k: int, kappa: float, x: int) -> float:
    """Exact partial sum of |h(n)| / n^kappa over r-full n <= x."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if x < 2:
        raise ValueError(f"weight_partial_sum requires x >= 2, got {x}")
    facts, n, _, pattern = _table(rule.r, x)
    i = np.searchsorted(n, x, "right").item()
    weight = np.zeros(len(facts), dtype=np.int64)
    for q in np.flatnonzero(np.bincount(pattern[:i])).tolist():
        weight[q] = abs(rfull_weights_up_to(rule, facts[q], k).get(k, 0))
    h = weight[pattern[:i]]
    keep = h != 0
    return fsum(a * b ** -float(kappa) for a, b in zip(h[keep].tolist(), n[:i][keep].tolist()))
