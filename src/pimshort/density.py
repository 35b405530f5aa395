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
to the largest limit asked for: n (int64), 1/psi(n) and the index of n's signature,
its sorted exponents, in the order of the signature codes prod prime(e); f and h are
evaluated once per signature.  A depth-first walk over blocks of inner nodes builds
it in numpy; 1/psi(n) is correctly rounded in one float64 scratch per walk, grown only for a
longer block, whose pages stay faulted in from block to block, and n must fit int64, so a
tail block is cut below 2^63.  f is a float64 product per signature over the few uint8
exponent columns held with the table, and a k finds its signatures by one comparison.  Sums
are exactly rounded, as math.fsum's: terms split by exponent sum exactly in float64 (Zhu and
Hayes, ACM TOMS 37(3), 2010).  So the head's sums by signature and exponent and the tail
block's sum are held for the last bound asked for, and a density adds the head's with f = k.
"""

from __future__ import annotations

import operator
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
_SUM_BLOCK = 1 << 27  # terms per float64 sum of _binned: its sums stay exact
_CHUNK = 1 << 14  # terms per np.bincount of _binned: small temporaries
# The offset c / (n a) - q is computed within 2^-45 ulp(q), so q is taken as correctly
# rounded only when |offset| is below half the gap under q (never the wider) by 2^-40 of it.
_DECIDED = 0.5 - 2.0**-41

# (facts, n, recip, pattern): every r-full n up to a limit ascending (int64), 1/psi(n) (float64)
# and the index (int32) of n's signature into facts, 2^e1 3^e2 ... (e1 <= e2 ...) in code order.
RFullTable = tuple[list[Factorization], np.ndarray, np.ndarray, np.ndarray]


def _two_product(x: np.ndarray, y: np.ndarray, w) -> None:
    """Dekker's TwoProduct, Veltkamp split, in the float64 rows w = (p, e, 4 of scratch):
    p = fl(x y) and p + e = x y exactly."""
    p, e, xh, yh, xl, yl = w
    for v, h, lo in ((x, xh, xl), (y, yh, yl)):  # h = t - (t - v) for t = v (2^27 + 1); lo = v - h
        h -= np.subtract(np.multiply(v, 134217729.0, out=h), v, out=lo)
        np.subtract(v, h, out=lo)
    np.multiply(x, y, out=p)
    np.subtract(np.multiply(xh, yh, out=e), p, out=e)  # ((xh yh - p) + xh yl + xl yh) + xl yl
    e += np.multiply(xh, yl, out=xh)
    e += np.multiply(yh, xl, out=yh)
    e += np.multiply(xl, yl, out=xl)


def _reciprocals(n: np.ndarray, a: np.ndarray, c: np.ndarray,
                 scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c / (n a) correctly rounded, the mask of terms divided in Python ints), for 0 < a, c < n.

    Below 2^53, n a = ph + pl exactly, and the residual of q0 = c / ph gives the
    offset c / (n a) - q0.  Terms with n >= 2^53 or undecided go to Python ints.
    Every float64 step writes a row of scratch (10 rows of at least n.size), q included.
    """
    x, y, z, ph, pl, q0, d, q, e, g = scratch[:, :n.size]
    x[:], y[:], z[:] = n, a, c
    _two_product(x, y, (ph, pl, d, q, e, g))
    _two_product(np.divide(z, ph, out=q0), ph, (x, y, d, q, e, g))  # (t1, t2) in (x, y)
    np.subtract(np.subtract(z, x, out=d), y, out=d)  # (((z - t1) - t2) - q0 pl) / ph
    d -= np.multiply(q0, pl, out=x)
    d /= ph  # c / (n a) - q0
    np.subtract(q0, np.add(q0, d, out=q), out=e)
    e += d  # c / (n a) - q; q0 - q is exact
    np.subtract(q, np.nextafter(q, 0.0, out=g), out=g)
    slow = (n >= _EXACT) | (np.abs(e, out=e) >= np.multiply(g, _DECIDED, out=g))
    i = np.flatnonzero(slow)
    q[i] = [w / (u * v) for u, v, w in zip(n[i].tolist(), a[i].tolist(), c[i].tolist())]
    return q, slow


def _binned(a: np.ndarray, group: np.ndarray | None, count: int, at: int, width: int):
    """Exact sums (2, count, width) of the finite float64 terms a, one per _SUM_BLOCK of them.

    A term is m 2^e, 1/2 <= |m| < 1, and m = hi + lo, hi a multiple of 2^-26, |lo| <= 2^-27
    one of 2^-53: rows 0 and 1 sum hi and lo at [group (0 if None), e + at], np.bincount taking
    _CHUNK terms at a time.  A sum of at most 2^27 of them is exact in float64, in any grouping."""
    for s in range(0, a.size, _SUM_BLOCK):
        sums = np.zeros((2, count * width))
        for t in range(s, min(s + _SUM_BLOCK, a.size), _CHUNK):
            m, e = np.frexp(a[t:min(t + _CHUNK, s + _SUM_BLOCK)])
            hi = (m + 100663296.0) - 100663296.0  # 1.5 * 2^26 rounds m to a multiple of 2^-26
            e += at if group is None else group[t:t + m.size] * width + at
            sums += [np.bincount(e, hi, sums.shape[1]), np.bincount(e, m - hi, sums.shape[1])]
        yield sums.reshape(2, count, width)


def _exact_sum(a: np.ndarray) -> float:
    """The sum of the finite float64 terms a, correctly rounded (+0.0 for zero), as math.fsum:
    _binned's sums (np.frexp(5e-324) = (0.5, -1073)) meet in Python ints, int / int rounds once."""
    parts = [p * 2.0**53 for x in _binned(a, None, 1, 1074, 2099) for p in x[:, 0]]  # < 2^81
    return sum(int(p[j]) << j for p in parts for j in np.flatnonzero(p != 0).tolist()) / (1 << 1127)


def rfull_table(r: int, limit: int) -> RFullTable:
    """Every r-full n <= limit (1 included), for 1 <= limit < 2^63.

    Blocks of at most _BLOCK_PAIRS pairs (n, p), n p^r <= limit, are walked
    depth first, each node as int64 columns (n, a, c, signature code, next prime
    index), a and c both below n; each pair gives a row per child n p^e, e >= r,
    and only a child with a pair of its own is pushed.  Signatures are numbered in
    code order: the index of a code is its rank among the codes met (int32).
    1/psi(n) = c / (n a) is correctly rounded by _reciprocals, though n a passes int64.
    """
    r, limit = operator.index(r), operator.index(limit)
    if r < 2:
        raise ValueError(f"rfull_table requires r >= 2, got {r}")
    if not 1 <= limit < MAX_N:
        raise ValueError(f"rfull_table requires 1 <= limit < 2**63, got {limit}")
    primes = primes_upto(introot(limit, r))
    power = primes**r
    cap = np.append(limit // power, 0)  # n p_i^r <= limit just when n <= cap[i]
    most, less, phi = limit // primes, power - 1, power // primes * (primes - 1)  # per prime
    sig = np.array(_SIGNATURE_PRIMES)  # prime(e) at e
    size = int(rfull_count_bound(r, limit)) + 1  # pages never written are never resident
    ns, recips, codes = np.empty(size, np.int64), np.empty(size), np.empty(size, np.int32)
    ns[0], recips[0], codes[0], end = 1, 1.0, 1, 1
    scratch = np.empty((10, 0))  # _reciprocals's rows, grown to the longest block's children
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
        p, ceil, ks, cn = primes[i], most[i], [np.arange(j.size)], [n[j] * power[i]]
        while (keep := cn[-1] <= ceil[ks[-1]]).any():  # the live pairs: one more child n p^e
            ks.append(ks[-1][keep])
            cn.append(cn[-1][keep] * p[ks[-1]])
        e = np.repeat(np.arange(r, r + len(ks)), [x.size for x in ks])
        k, cn = np.concatenate(ks), np.concatenate(cn)
        ca, cc = (a[j] * less[i])[k], (c[j] * phi[i])[k]
        if cn.size > scratch.shape[1]:
            scratch = np.empty((10, cn.size))
        start, end = end, end + cn.size
        ns[start:end], recips[start:end] = cn, _reciprocals(cn, ca, cc, scratch)[0]
        codes[start:end] = cq = q[j][k] * sig[e]  # a child's code: its parent's times prime(e)
        if (inner := np.flatnonzero(cn <= cap[(i + 1)[k]])).size:  # it has a pair of its own
            stack.append(tuple(x[inner] for x in (cn, ca, cc, cq, (i + 1)[k])))
    del scratch  # its rows would add to the peak of the sort below
    met = np.bincount(codes[:end]) > 0  # one code per signature
    facts = [tuple(zip(_SIGNATURE_PRIMES[1:], _signature_exponents(x)))
             for x in np.flatnonzero(met).tolist()]
    order = ns[:end].argsort()
    ns = ns[:end][order]  # one column at a time: each unsorted one goes before the next
    recips = recips[:end][order]
    return facts, ns, recips, (np.cumsum(met, dtype=np.int32) - 1)[codes[:end][order]]


# r -> [L, rfull_table(r, L), (exponent columns, largest exponent), (B, the head's _binned sums
# by signature at their scales 2^e, the tail estimate) for the last B, _groups's].
_tables: dict[int, list] = {}


def _table(r: int, limit: int) -> RFullTable:
    """The r-full table cut at n <= limit (a limit outside [1, 2^63) reaches rfull_table)."""
    held = _tables.get(r)
    if held is None or not 1 <= limit <= held[0]:
        table = rfull_table(r, limit)
        width = max(map(len, table[0]))  # at most 9: (2 3 ... 29)^2 > 2^63
        exps = np.array([[e for _, e in x] + [0] * (width - len(x)) for x in table[0]], np.uint8).T
        held = _tables[r] = [limit, table, (exps.copy(), int(exps.max(initial=0))), (0,), None]
    facts, n, recip, pattern = held[1]
    i = np.searchsorted(n, limit, "right").item()
    return facts, n[:i], recip[:i], pattern[:i]


def _groups(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, start), held from the first call: signature q's rows ascend from order[start[q]]."""
    held = _tables[r]
    if held[4] is None:  # below 2^16 signatures (13,301 at r = 2 under 2^63): a radix sort
        count, pattern = np.bincount(held[1][3]), held[1][3].astype(np.uint16)
        held[4] = pattern.argsort(kind="stable").astype(np.int32), np.cumsum(count) - count
    return held[4]


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
    Works in logarithms, so any r and limit are fine; r is read through operator.index.
    """
    r = operator.index(r)
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


def series_limit(r: int, bound: int) -> int:
    """How far a series with truncation bound B reads: its tail block (B, 2^r B], cut below 2^63."""
    return min((1 << r) * bound, MAX_N - 1)


def check_series_args(k: int, bound: int) -> tuple[int, int]:
    """(k, bound) read by operator.index, refused unless k >= 1 and 1 <= bound < 2^63."""
    k, bound = operator.index(k), operator.index(bound)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 1 <= bound < MAX_N:
        raise ValueError(f"truncation bound must be in [1, 2**63), got {bound}")
    return k, bound


def _densities(rule: ExponentRule, bound: int, ks: range) -> dict[int, DensityResult]:
    """The reciprocal-psi pass: a DensityResult for every k in ks.

    f is the running product of g clipped at 2^53 over the held exponent columns (column j: each
    signature's j-th exponent, 0 past its last; g(0) = 1).  Each partial product below 2^53 is
    an integer no larger than f, so exact, and one at 2^53 stays there (rounding is monotone),
    so only a k >= 2^53 reads eval_rule's ints.  Head sums add the held bins of the signatures
    with f = k; the tail block is (bound, series_limit].  check_series_args reads ks's last k.
    """
    bound = check_series_args(ks.stop - 1, bound)[1]  # k_max = 0 reads range(1, 1)
    r = rule.r
    facts, n, recip, pattern = _table(r, series_limit(r, bound))
    i = np.searchsorted(n, bound, "right").item()
    held = _tables[r]
    columns, emax = held[2]
    f = np.array([min(v, _EXACT) for v in rule.values[:emax + 1]], np.float64)[columns].prod(0)
    if held[3][0] != bound:  # one bound at a time, each head bin at its scale; neither reads f
        at = -np.frexp(recip[:i].min())[1].item()  # e runs from -at to 1, 1/psi(1) = 1's
        bins = _binned(recip[:i], pattern[:i], len(facts), at, 2 + at)
        held[3] = (bound, [np.ldexp(x, np.arange(-at, 2)) for x in bins],
                   tail_geometric_factor(r) * _exact_sum(recip[i:]))
    (_, sums, tail), z = held[3], zeta(r)
    out = {}
    for k in ks:  # the bins of the signatures with f = k add up exactly
        q = np.flatnonzero(f == k) if k < _EXACT else [
            j for j in np.flatnonzero(f >= _EXACT).tolist() if eval_rule(rule, facts[j]) == k]
        partial = fsum(np.concatenate([x[:, q].sum(1) for x in sums], None).tolist())
        out[k] = DensityResult(rule.name, k, r, bound, partial, tail, z, partial / z)
    return out


def local_density(rule: ExponentRule, k: int, bound: int = DEFAULT_BOUND) -> DensityResult:
    """Density of {n : f(n) = k} from the truncated reciprocal-psi series.

    An unattained k yields density 0 (never an error).
    """
    return _densities(rule, bound, range(k, k + 1))[k]


def density_profile(rule: ExponentRule, bound: int, k_max: int) -> dict[int, DensityResult]:
    """local_density for every k <= k_max in a single enumeration pass."""
    return _densities(rule, bound, range(1, k_max + 1))


def weight_harmonic_sum(rule: ExponentRule, k: int, bound: int) -> float:
    """Sum of h(n)/n over r-full n <= bound: the second density path numerator.

    Dividing by zeta(r) gives the density again, up to both truncation tails.
    """
    return _harmonics(rule, bound, range(k, k + 1))[k][0]


def weight_harmonic_tail(rule: ExponentRule, k: int, bound: int) -> float:
    """Geometric tail estimate for the h(n)/n series beyond the bound.

    Mirrors the density tail: |h(n)|/n summed over the first out-of-range
    block (bound, series_limit(r, bound)], scaled by the geometric factor.
    """
    return _harmonics(rule, bound, range(k, k + 1))[k][1]


def weight_harmonic_profile(rule: ExponentRule, bound: int,
                            k_max: int) -> dict[int, tuple[float, float]]:
    """(harmonic sum, tail estimate) for every k <= k_max in a single pass."""
    return _harmonics(rule, bound, range(1, k_max + 1))


def _harmonics(rule: ExponentRule, bound: int, ks: range) -> dict[int, tuple[float, float]]:
    """The h(n)/n pass, as _densities is the 1/psi pass: (sum, tail estimate) for each k in ks."""
    k_max, bound = check_series_args(ks.stop - 1, bound)  # k_max = 0 reads range(1, 1)
    facts, n, _, pattern = _table(rule.r, series_limit(rule.r, bound))
    i = np.searchsorted(n, bound, "right").item()
    order, start = _groups(rule.r)
    count = np.bincount(pattern, minlength=len(facts))  # each group's rows up to the limit lead it
    present = np.flatnonzero(count)
    weights = [rfull_weights_up_to(rule, facts[q], k_max) for q in present.tolist()]
    h_of = np.zeros(len(facts), dtype=np.int64)  # h_k of each signature
    out = {}
    for k in ks:
        h_of[present] = [w.get(k, 0) for w in weights]
        live = np.flatnonzero(h_of)
        j, step = _ranges(count[live])
        rows = order[start[live][j] + step]  # by signature, not by n: the sums are exact
        hk, nk = h_of[live][j], n[rows]
        terms = hk / nk  # correctly rounded, as int / int is, where float64 holds both
        big = np.flatnonzero(nk >= _EXACT)  # |h_k(n)| <= tau(n) < 2^17 below 2^63
        terms[big] = [a / b for a, b in zip(hk[big].tolist(), nk[big].tolist())]
        tail = tail_geometric_factor(rule.r) * _exact_sum(np.abs(terms[rows >= i]))
        out[k] = (_exact_sum(terms[rows < i]), tail)
    return out


def weight_partial_sum(rule: ExponentRule, k: int, kappa: float, x: int) -> float:
    """Exact sum of |h(n)| / n^kappa over r-full n <= x; check_series_args reads k and x."""
    k, x = check_series_args(k, x)
    if not 0 <= kappa < inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if x < 2:
        raise ValueError(f"weight_partial_sum requires x >= 2, got {x}")
    facts, n, _, pattern = _table(rule.r, x)
    weight = np.zeros(len(facts), dtype=np.int64)
    for q in np.flatnonzero(np.bincount(pattern)).tolist():  # the signatures met up to x
        weight[q] = abs(rfull_weights_up_to(rule, facts[q], k).get(k, 0))
    h = weight[pattern]
    keep = h != 0
    return fsum(a * b ** -float(kappa) for a, b in zip(h[keep].tolist(), n[keep].tolist()))
