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

Every series reads a prefix of one table per r, kept for the process and grown
to the largest limit asked for: n (int64), 1/psi(n) and a signature index,
sorted by n; f and h are evaluated once per signature, n's sorted exponents.  A
depth-first walk over blocks of inner nodes builds it in numpy, int64 columns n,
signature code, next prime, a = prod (p^r - 1) and c = prod p^(r-1) (p - 1);
1/psi(n) = c / (n a) is correctly rounded in float64 by Dekker's TwoProduct, or
in Python ints near a rounding midpoint or past 2^53.  n must fit int64, so a
tail block is cut below 2^63.  f is one float64 product per signature, over an exponent
matrix held with the table.  Sums are _exact_sum's, exactly rounded in any term order as
math.fsum is, far inside the 1e-12 budget at B = 10^9; a tail block's sum is held too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, inf, log

import numpy as np

from .bounds import zeta
from .factor import (
    _SIGNATURE_PRIMES,
    MAX_N,
    Factorization,
    _ranges,
    _signature_exponents,
    eval_rule,
    factorize,
    introot,
    primes_upto,
    rfull_weights_up_to,
)
from .rules import ExponentRule

DEFAULT_BOUND = 10**9
_BLOCK_PAIRS = 1 << 13  # (node, prime) pairs per block of the r-full walk
_EXACT = 1 << 53  # int64 values below this are exact float64
_SUM_BLOCK = 1 << 27  # terms per np.bincount of _exact_sum: its float64 sums stay exact
# The offset c / (n a) - q is computed within 2^-45 ulp(q), so q is taken as correctly
# rounded only when |offset| is below half the gap under q (never the wider) by 2^-40 of it.
_DECIDED = 0.5 - 2.0**-41

# (facts, n, recip, pattern): every r-full n up to a limit ascending (int64), 1/psi(n)
# (float64), and the index (int32) into facts, 2^e1 3^e2 ... with e1 <= e2 ..., of n's signature.
RFullTable = tuple[list[Factorization], np.ndarray, np.ndarray, np.ndarray]


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's TwoProduct, Veltkamp split."""
    tx, ty = x * 134217729.0, y * 134217729.0  # 2^27 + 1
    xh, yh = tx - (tx - x), ty - (ty - y)
    xl, yl, p = x - xh, y - yh, x * y
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _reciprocals(n: np.ndarray, a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c / (n a) correctly rounded, the mask of terms divided in Python ints), for 0 < a, c < n.

    Below 2^53, n a = ph + pl exactly, and the residual of q0 = c / ph gives the
    offset c / (n a) - q0.  Terms with n >= 2^53 or undecided go to Python ints.
    """
    x, y, z = n.astype(np.float64), a.astype(np.float64), c.astype(np.float64)
    ph, pl = _two_product(x, y)
    q0 = z / ph
    t1, t2 = _two_product(q0, ph)
    d = (((z - t1) - t2) - q0 * pl) / ph  # c / (n a) - q0
    q = q0 + d
    e = (q0 - q) + d  # c / (n a) - q; q0 - q is exact
    slow = (n >= _EXACT) | (np.abs(e) >= _DECIDED * (q - np.nextafter(q, 0.0)))
    i = np.flatnonzero(slow)
    q[i] = [w / (u * v) for u, v, w in zip(n[i].tolist(), a[i].tolist(), c[i].tolist())]
    return q, slow


def _exact_sum(a: np.ndarray) -> float:
    """The sum of the finite float64 terms a, correctly rounded (+0.0 for zero), as math.fsum.

    A term is m 2^e, 1/2 <= |m| < 1, and m = hi + lo, hi a multiple of 2^-26, |lo| <= 2^-27
    one of 2^-53: np.bincount sums each by e, exactly in float64 for up to 2^27 terms, so
    longer arrays go in blocks.  The sums meet in Python ints; int / int rounds once.
    """
    total = 0
    for s in range(0, a.size, _SUM_BLOCK):
        m, e = np.frexp(a[s : s + _SUM_BLOCK])
        hi = (m + 100663296.0) - 100663296.0  # 1.5 * 2^26 rounds m to a multiple of 2^-26
        e = e.astype(np.intp) + 1074  # np.frexp(5e-324) = (0.5, -1073)
        for part in (hi, m - hi):
            sums = np.bincount(e, part) * 2.0**53  # integers below 2^81
            total += sum(int(sums[j]) << j for j in np.flatnonzero(sums).tolist())
    return total / (1 << 1127)  # 2^(1074 + 53)


def rfull_table(r: int, limit: int) -> RFullTable:
    """Every r-full n <= limit (1 included), for 1 <= limit < 2^63.

    Blocks of at most _BLOCK_PAIRS pairs (n, p), n p^r <= limit, are walked
    depth first, each node as int64 columns (n, a, c, signature code, next prime
    index), a and c both below n; each pair gives a row per child n p^e, e >= r,
    and only a child with a pair of its own is pushed.  A child's code is its
    parent's times prime(e), and its index is looked up among the sorted codes met.
    1/psi(n) = c / (n a) is correctly rounded by _reciprocals, though n a passes int64.
    """
    if r < 2:
        raise ValueError(f"rfull_table requires r >= 2, got {r}")
    if not 1 <= limit < MAX_N:
        raise ValueError(f"rfull_table requires 1 <= limit < 2**63, got {limit}")
    primes = primes_upto(introot(limit, r))
    power = primes**r
    cap = np.append(limit // power, 0)  # n p_i^r <= limit just when n <= cap[i]
    sig = np.array(_SIGNATURE_PRIMES)  # prime(e) at e
    # Sorted signature codes met so far, a sentinel last (past every code, as code <= n); indices.
    seen, place = np.array([1, MAX_N - 1]), np.array([0, MAX_N - 1])
    size = int(rfull_count_bound(r, limit)) + 1  # pages never written are never resident
    ns, recips, patterns = np.empty(size, np.int64), np.empty(size), np.empty(size, np.int32)
    ns[0], recips[0], patterns[0], end = 1, 1.0, 0, 1
    stack = [(*np.ones((4, 1), np.int64), np.zeros(1, np.int64))] if cap[0] else []  # n = 1
    while stack:
        n, a, c, q, nxt = stack.pop()
        count = np.searchsorted(power, limit // n, "right") - nxt
        if (total := np.cumsum(count))[-1] > _BLOCK_PAIRS:  # the rest waits on the stack
            u = np.searchsorted(total, _BLOCK_PAIRS).item()
            count[u] -= total[u] - _BLOCK_PAIRS  # node u's first pairs stay in this block
            rest = np.concatenate(([nxt[u] + count[u]], nxt[u + 1:]))
            stack.append((n[u:], a[u:], c[u:], q[u:], rest))
            n, a, c, q, nxt, count = (x[:u + 1] for x in (n, a, c, q, nxt, count))
        j, step = _ranges(count)
        i = nxt[j] + step
        p, ks, cn = primes[i], [np.arange(j.size)], [n[j] * power[i]]
        while (keep := cn[-1] <= limit // p[ks[-1]]).any():  # the live pairs: one more child n p^e
            ks.append(ks[-1][keep])
            cn.append(cn[-1][keep] * p[ks[-1]])
        e = np.repeat(np.arange(r, r + len(ks)), [x.size for x in ks])
        k, cn = np.concatenate(ks), np.concatenate(cn)
        ca, cc = (a[j] * (power[i] - 1))[k], (c[j] * (power[i] // p) * (p - 1))[k]
        uq, rq = np.unique(q, return_inverse=True)  # the block's node codes
        rq = rq[j][k] * 64 + e  # each row's (node code, e) among them
        used = np.flatnonzero(np.bincount(rq))  # the block's keys; two may give one child code
        codes, inv = np.unique(uq[used >> 6] * sig[used & 63], return_inverse=True)
        slot = np.searchsorted(seen, codes)
        if (fresh := seen[slot] != codes).any():  # new signatures, numbered on in code order
            place = np.insert(place, slot[fresh], seen.size - 1 + np.arange(fresh.sum()))
            seen = np.insert(seen, slot[fresh], codes[fresh])
            slot = np.searchsorted(seen, codes)
        at = inv[np.searchsorted(used, rq)]  # each row's child code among them
        start, end = end, end + cn.size
        ns[start:end], patterns[start:end] = cn, place[slot][at]
        recips[start:end] = _reciprocals(cn, ca, cc)[0]
        if (inner := np.flatnonzero(cn <= cap[(i + 1)[k]])).size:  # it has a pair of its own
            stack.append(tuple(x[inner] for x in (cn, ca, cc, codes[at], (i + 1)[k])))
    # One canonical factorization per signature, in index order: its exponents on 2, 3, 5, ...
    facts = [tuple(zip(_SIGNATURE_PRIMES[1:], _signature_exponents(x)))
             for x in seen[place.argsort()][:-1].tolist()]
    order = ns[:end].argsort()
    ns = ns[:end][order]  # one column at a time: each unsorted one goes before the next
    recips = recips[:end][order]
    return facts, ns, recips, patterns[:end][order]


# r -> (L, rfull_table(r, L), {B: B's tail estimate}, exponents) for the largest L asked for.
_tables: dict[int, tuple[int, RFullTable, dict[int, float], np.ndarray]] = {}


def _table(r: int, limit: int) -> RFullTable:
    """The r-full table cut at n <= limit (a limit outside [1, 2^63) reaches rfull_table)."""
    held = _tables.get(r)
    if held is None or not 1 <= limit <= held[0]:
        table = rfull_table(r, limit)  # row q: facts[q]'s exponents, 0 (g(0) = 1) past them
        exponents = np.array([[e for _, e in x] + [0] * (9 - len(x)) for x in table[0]], np.uint8)
        held = _tables[r] = (limit, table, {}, exponents)  # 9 primes: (2 3 ... 29)^2 > 2^63
    facts, n, recip, pattern = held[1]
    i = np.searchsorted(n, limit, "right").item()
    return facts, n[:i], recip[:i], pattern[:i]


def rfull_factorizations(r: int, limit: int) -> list[tuple[int, Factorization]]:
    """Every r-full n <= limit with its factorization, ascending."""
    return [(n, factorize(n)) for n in _table(r, limit)[1].tolist()]


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
    """Truncated density series for one (rule, k): the r-full b up to the truncation bound B."""

    rule: str
    k: int
    r: int
    B: int
    partial_sum: float
    tail_estimate: float
    zeta_r: float
    density: float


def check_series_args(k: int, bound: int) -> None:
    """Refuse a k below 1 or a truncation bound outside [1, 2^63) with ValueError."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 1 <= bound < MAX_N:
        raise ValueError(f"truncation bound must be in [1, 2**63), got {bound}")


def _densities(rule: ExponentRule, bound: int, ks: range) -> dict[int, DensityResult]:
    """The reciprocal-psi pass: a DensityResult for every k in ks.

    f of each signature is a product of g clipped at 2^53, exact in float64 below 2^53 (each
    partial product is an integer no larger than f), and eval_rule's from there on.  Head
    sums are kept for f(b) in ks; the tail block is every r-full b in (bound, 2^r * bound].
    """
    r = rule.r
    top = min((1 << r) * bound, MAX_N - 1)
    facts, n, recip, pattern = _table(r, top)
    i = np.searchsorted(n, bound, "right").item()
    f = np.array([min(v, _EXACT) for v in rule.values], np.float64)[_tables[r][3]].prod(1)
    lo, hi = float(min(ks.start, _EXACT)), float(min(ks.stop, _EXACT))
    slot = np.where((lo <= f) & (f < hi), f - (lo - 1), 0).astype(np.min_scalar_type(len(ks)))
    for q in np.flatnonzero(f >= _EXACT).tolist():  # slot: 1 + the place of f in ks, or 0
        if (v := eval_rule(rule, facts[q])) in ks:  # v itself may pass int64
            slot[q] = v - ks.start + 1
    head = slot.take(pattern[:i])
    tail = _tables[r][2].get(bound)  # held per bound: the tail block does not depend on the rule
    if tail is None:
        tail = _tables[r][2][bound] = tail_geometric_factor(r) * _exact_sum(recip[i:])
    z = zeta(r)
    out = {}
    for j, k in enumerate(ks, 1):
        partial = _exact_sum(recip[:i].compress(head == j))  # 4x a boolean index's speed
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
    """(harmonic sum, tail estimate) for every k <= k_max over the signatures with h_k != 0."""
    check_series_args(k_max, bound)
    top = min((1 << rule.r) * bound, MAX_N - 1)
    facts, n, _, pattern = _table(rule.r, top)
    i = np.searchsorted(n, bound, "right").item()
    order, count = pattern.argsort(), np.bincount(pattern)  # the rows grouped by signature
    present, start = np.flatnonzero(count), np.cumsum(count) - count
    weights = [rfull_weights_up_to(rule, facts[q], k_max) for q in present.tolist()]
    h_of = np.zeros(len(facts), dtype=np.int64)  # h_k of each signature
    out = {}
    for k in range(1, k_max + 1):
        h_of[present] = [w.get(k, 0) for w in weights]
        live = np.flatnonzero(h_of)
        j, step = _ranges(count[live])
        rows = order[start[live][j] + step]  # in any order within a group: the sum is exact
        hk, nk = h_of[live][j], n[rows]
        terms = hk / nk  # correctly rounded, as int / int is, where float64 holds both
        big = np.flatnonzero((np.abs(hk) >= _EXACT) | (nk >= _EXACT))
        terms[big] = [a / b for a, b in zip(hk[big].tolist(), nk[big].tolist())]
        head = rows < i
        tail = tail_geometric_factor(rule.r) * _exact_sum(np.abs(terms[~head]))
        out[k] = (_exact_sum(terms[head]), tail)
    return out


def weight_partial_sum(rule: ExponentRule, k: int, kappa: float, x: int) -> float:
    """Exact partial sum of |h(n)| / n^kappa over r-full n <= x."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0 <= kappa < inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if x < 2:
        raise ValueError(f"weight_partial_sum requires x >= 2, got {x}")
    facts, n, _, pattern = _table(rule.r, x)
    weight = np.zeros(len(facts), dtype=np.int64)
    for q in np.flatnonzero(np.bincount(pattern)).tolist():
        weight[q] = abs(rfull_weights_up_to(rule, facts[q], k).get(k, 0))
    h = weight[pattern]
    keep = h != 0
    return fsum(a * b ** -float(kappa) for a, b in zip(h[keep].tolist(), n[keep].tolist()))
