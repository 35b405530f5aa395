"""Named self-check suites aggregating every module's invariants.

Each suite returns a list of Check records; the CLI renders them and maps
any failure to a nonzero exit code.  Suites are deterministic given the
seed, and counting checks are deterministic regardless of worker count.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import product
from math import log, prod, sqrt

import numpy as np

from .bounds import bound_breakdown, interval_error_bound, zeta
from .density import (
    DEFAULT_BOUND,
    _table,
    density_profile,
    local_density,
    weight_harmonic_profile,
    weight_partial_sum,
)
from .factor import (_SIGNATURE_PRIMES, _lattice_product, _local_weights, _signature_exponents,
                     eval_rule, factorize, introot, primes_upto, rfull_weights_up_to)
from .rules import build_rule, builtin_rules
from .sieve import (
    _count_windows,
    _fold,
    _profile_windows,
    _r_free_windows,
    admissible_window,
    count_r_free,
    count_value,
    rfull_multiples_sum,
    sieve_segment,
    value_counts,
)

SUITE_NAMES = ("sequences", "convolution", "density-cross", "lemma2", "lemma3", "theorem")

# Golden value sequences for the two series-built families.
PLANE_SEQUENCE = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479)
SEMISIMPLE_SEQUENCE = (1, 1, 2, 3, 6, 8, 13, 18, 29, 40, 58, 79, 115, 154, 213)

# Frozen by the literal brute-force evaluation of the windowed multiples
# sum at (X, Y, r) = (100, 10, 2): the r-full contributors in (20, 200]
# are 27, 36 and 108, each dividing 108.
MULTIPLES_SUM_AT_100_10_2 = 3

# Window [1, ORACLE_LIMIT] of the direct count the density checks compare with.
ORACLE_LIMIT = 10**7


@dataclass
class Check:
    name: str
    passed: bool
    observed: object
    expected: object
    note: str = ""

    def to_record(self) -> dict:
        return asdict(self) | {"observed": str(self.observed), "expected": str(self.expected)}


def _partitions_pentagonal(n: int) -> list[int]:
    # Euler's pentagonal-number recurrence: an oracle apart from the Euler product.
    table = [1] + [0] * n
    for m in range(1, n + 1):
        acc = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > m:
                break
            sign = 1 if j % 2 else -1
            acc += sign * table[m - g]
            g = j * (3 * j + 1) // 2
            if g <= m:
                acc += sign * table[m - g]
            j += 1
        table[m] = acc
    return table


def checks_sequences() -> list[Check]:
    out = []
    plane = build_rule("plane").values[:13]
    out.append(Check("plane-partition-sequence", plane == PLANE_SEQUENCE, plane, PLANE_SEQUENCE))
    semi = build_rule("semisimple").values[:15]
    out.append(Check("semisimple-sequence", semi == SEMISIMPLE_SEQUENCE, semi, SEMISIMPLE_SEQUENCE))
    pentagonal = _partitions_pentagonal(64)
    mine = list(build_rule("abelian").values)
    out.append(Check("partition-recurrence-vs-dp", mine == pentagonal, "64 values", "match"))
    derived = tuple(rule.r for rule in builtin_rules())
    out.append(Check("family-thresholds", derived == (2, 2, 2, 2, 2), derived, (2, 2, 2, 2, 2)))
    return out


def checks_convolution() -> list[Check]:
    """Support, bound, unit case, prime-power vanishing and re-convolution.

    f(n) and h(n) read only the exponents of n, never its primes, so the n <= 10^4
    that share a sorted exponent tuple (a shape) pass or fail alike: each shape is
    weighed once (each n/d and 2^a met is an n <= 10^4 too), checked at its least n
    and counts once per n.  The r-free divisors of prod p_i^a_i are the b <= a, all b_i < r.
    """
    limit, k_max = 10_000, 10
    code = np.ones(limit + 1, np.int64)  # sigma_1(n) = prod prime(a) over p^a || n
    for a in range(1, limit.bit_length()):
        for q in (p**a for p in primes_upto(introot(limit, a)).tolist()):
            code[q::q] = code[q::q] // _SIGNATURE_PRIMES[a - 1] * _SIGNATURE_PRIMES[a]
    found = zip(*(x.tolist() for x in np.unique(code[1:], return_index=True, return_counts=True)))
    shapes = {_signature_exponents(c): (factorize(i + 1), k) for c, i, k in found}  # least n, count

    # The sorted shape of n/d for each r-free divisor d of each shape, once per r.
    rules, out = builtin_rules(), []
    quotients = {r: {shape: [tuple(sorted(a - c for a, c in zip(shape, b) if a > c))
                             for b in product(*(range(min(a, r - 1) + 1) for a in shape))]
                     for shape in shapes}
                 for r in {rule.r for rule in rules}}
    for rule in rules:
        r = rule.r
        h = {shape: rfull_weights_up_to(rule, fact, k_max) for shape, (fact, _) in shapes.items()}
        support_bad = bound_bad = unit_bad = conv_bad = 0
        for shape, (fact, count) in shapes.items():
            support_bad += count * bool(any(a < r for a in shape) and h[shape])
            tau = prod(a + 1 for a in shape)
            bound_bad += count * any(abs(v) > tau for v in h[shape].values())
            unit_bad += count * (h[shape].get(1, 0) != (shape == ()))
            acc: Counter[int] = Counter()
            for quotient in quotients[r][shape]:
                acc.update(h[quotient])
            fn = eval_rule(rule, fact)
            conv_bad += count * sum(acc[k] != (fn == k) for k in range(1, k_max + 1))
        out.append(Check(f"{rule.name}-support-off-rfull", support_bad == 0, support_bad, 0))
        out.append(Check(f"{rule.name}-weight-bound-tau", bound_bad == 0, bound_bad, 0))
        out.append(Check(f"{rule.name}-unit-case", unit_bad == 0, unit_bad, 0))
        vanish_bad = 15 * sum(1 for a in range(1, r) if h[(a,)])  # p^a alike for each p <= 47
        out.append(Check(f"{rule.name}-prime-power-vanishing", vanish_bad == 0, vanish_bad, 0))
        out.append(Check(f"{rule.name}-reconvolution-identity", conv_bad == 0, conv_bad, 0))
    return out


def checks_k1_collapse(seed: int = 0) -> list[Check]:
    """k = 1 density equals 1/zeta(r) and k = 1 counts equal r-free counts.

    The counts take one list call of the kernel per rule and one per r over all windows.
    """
    segments = 50
    rules = builtin_rules() + (build_rule("powerdiv-r:2"), build_rule("powerdiv-r:3"))
    gaps = [[] for _ in rules]
    for bound in (1, 1000):  # bounds outside the rules: each r's held record is built once a bound
        for rule, gap in zip(rules, gaps):
            gap.append(abs(local_density(rule, 1, bound).density - 1.0 / zeta(rule.r)))
    out = [Check(f"{rule.name}-k1-density-collapse", max(gap) < 1e-9, max(gap), "< 1e-9")
           for rule, gap in zip(rules, gaps)]

    rng = random.Random(seed)
    windows = [(rng.randrange(0, 10**8), rng.randrange(1, 10**4 + 1)) for _ in range(segments)]
    x, y = (list(v) for v in zip(*windows))
    free = {r: _r_free_windows(x, y, r) for r in {rule.r for rule in rules}}
    bad = sum(c != f for rule in rules for c, f in zip(_count_windows(rule, 1, x, y), free[rule.r]))
    out.append(Check("k1-count-equals-r-free", bad == 0, bad, 0,
                     note=f"{segments} seeded windows, all rules"))
    return out


def checks_density_oracle(counts: dict[int, int]) -> list[Check]:
    """Truncated densities vs counts = value_counts(abelian, 0, ORACLE_LIMIT)."""
    prof = density_profile(build_rule("abelian"), DEFAULT_BOUND, 5)
    out = []
    for k in range(1, 6):
        observed = abs(prof[k].density - counts.get(k, 0) / ORACLE_LIMIT)
        out.append(Check(f"abelian-k{k}-density-vs-sieve", observed <= 5e-3, observed, "<= 5e-3",
                         note=f"sieve count {counts.get(k, 0)} at {ORACLE_LIMIT}"))
    return out


def checks_density_paths() -> list[Check]:
    """The reciprocal-psi series and the weighted harmonic series agree."""
    k_max = 10
    out = []
    for rule in builtin_rules():
        prof = density_profile(rule, DEFAULT_BOUND, k_max)
        wprof = weight_harmonic_profile(rule, DEFAULT_BOUND, k_max)
        z = zeta(rule.r)
        worst_excess = 0.0
        for k in range(1, k_max + 1):
            hsum, htail = wprof[k]
            gap = abs(prof[k].density - hsum / z)
            allowed = (prof[k].tail_estimate + htail) / z
            worst_excess = max(worst_excess, gap - allowed)
        out.append(Check(f"{rule.name}-density-paths-agree", worst_excess <= 0.0,
                         f"max gap-over-tolerance {worst_excess:.3g}", "<= 0",
                         note=f"k <= {k_max}, B = {DEFAULT_BOUND}"))
    return out


def checks_density_extras(counts: dict[int, int]) -> list[Check]:
    out = []
    plane = build_rule("plane")
    res = local_density(plane, 2, DEFAULT_BOUND)
    out.append(Check("plane-k2-unattained", res.partial_sum == 0.0 and res.density == 0.0,
                     res.density, 0.0, note=f"scan of all r-full b <= {DEFAULT_BOUND}"))

    # Mass conservation: partial density mass approaches 1 as K grows, the
    # direct count over [1, ORACLE_LIMIT] confirms the residual, and the
    # 0.999 level is reached by K = 100 (the direct count puts the K = 50
    # mass at ~0.9987, so the threshold genuinely needs the larger K).
    prof = density_profile(build_rule("abelian"), DEFAULT_BOUND, 100)
    masses = {}
    worst_gap = 0.0
    for cap in (10, 25, 50, 100):
        series = sum(prof[k].density for k in range(1, cap + 1))
        direct = sum(c for v, c in counts.items() if v <= cap) / ORACLE_LIMIT
        masses[cap] = series
        worst_gap = max(worst_gap, abs(series - direct))
    increasing = all(masses[a] < masses[b] for a, b in ((10, 25), (25, 50), (50, 100)))
    out.append(Check("abelian-mass-increasing", increasing,
                     {k: round(v, 6) for k, v in masses.items()}, "increasing in K"))
    out.append(Check("abelian-mass-vs-direct-count", worst_gap <= 5e-3, worst_gap,
                     "<= 5e-3", note=f"direct count at {ORACLE_LIMIT}"))
    out.append(Check("abelian-mass-conservation", masses[100] > 0.999, masses[100],
                     "> 0.999", note="sum of densities k <= 100"))
    return out


def checks_weighted_growth() -> list[Check]:
    """Growth-shape monitoring of the weighted partial sums (abelian, k=2)."""
    out = []
    abelian = build_rule("abelian")
    decades = [10**e for e in range(3, 9)]
    sums = {kappa: {x: weight_partial_sum(abelian, 2, kappa, x) for x in decades}
            for kappa in (0.0, 0.5, 1.0)}
    for kappa in (0.0, 0.5):
        ratios = [sums[kappa][x] / (x ** (-kappa + 0.5) * log(x) ** 2) for x in decades]
        spread = max(ratios) / min(ratios)
        table = ", ".join(f"{v:.3g}" for v in ratios)
        out.append(Check(f"weighted-growth-band-kappa-{kappa}", spread < 4.0, spread,
                         "< 4.0", note=f"ratios at decades 1e3..1e8: [{table}]"))
        out.append(Check(f"weighted-growth-bounded-kappa-{kappa}",
                         all(b <= a for a, b in zip(ratios, ratios[1:])),
                         "monotone decay", "bounded",
                         note="normalized ratio never grows"))
    kappa_1 = [sums[1.0][x] for x in decades]
    increments = [b - a for a, b in zip(kappa_1, kappa_1[1:])]
    cauchy = all(b < a for a, b in zip(increments, increments[1:]))
    out.append(Check("weighted-growth-kappa-1-cauchy", cauchy,
                     [f"{v:.3g}" for v in increments], "strictly decreasing increments"))
    monotone = all(by_x[10**4] <= by_x[10**6] for by_x in sums.values())
    out.append(Check("weighted-growth-monotone-in-x", monotone, monotone, True))
    return out


def checks_r_free_interval() -> list[Check]:
    """Short-interval r-free count against Y/zeta(2) and the error scale."""
    x, y, r = 10**9, 10**5, 2
    count = count_r_free(x, y, r)
    residual = abs(count - y / zeta(r))
    out = [Check("r-free-interval-main-term", residual <= 0.01 * y, residual,
                 f"<= {0.01 * y}", note=f"count {count} over ({x}, {x}+{y}]")]
    scale = bound_breakdown(r, x, y).scale * x**0.05
    out.append(Check("r-free-interval-error-scale", residual <= scale, residual,
                     f"<= {scale:.6g}"))
    return out


def _multiples_sum_by_divisors(x: int, y: int, r: int) -> int:
    # rfull_multiples_sum counted per m in (X, X+Y]: its r-full divisors
    # above 2Y, built from the primes with exponent >= r in m.
    total = 0
    for fact in sieve_segment(x, y).values():
        divisors = [1]
        for p, a in fact:
            if a >= r:
                divisors += [d * p**b for d in divisors for b in range(r, a + 1)]
        total += sum(d > 2 * y for d in divisors)
    return total


def checks_multiples_sum() -> list[Check]:
    out = []
    value = rfull_multiples_sum(100, 10, 2)
    out.append(Check("multiples-sum-frozen-value", value == MULTIPLES_SUM_AT_100_10_2,
                     value, MULTIPLES_SUM_AT_100_10_2,
                     note="brute-force contributors 27, 36, 108"))
    for r in (2, 3):
        for x, y in ((10**4, 10**2), (10**6, 10**3), (10**8, 10**4)):
            a = rfull_multiples_sum(x, y, r)
            b = _multiples_sum_by_divisors(x, y, r)
            out.append(Check(f"multiples-sum-paths-x{x}-y{y}-r{r}", a == b, a, b))
    return out


def checks_desk_scale() -> list[Check]:
    """Short-interval counts at x = 1e11, y = 1e6 against density * y."""
    out = []
    abelian = build_rule("abelian")
    x, y = 10**11, 10**6
    out.append(Check("desk-window-admissible", admissible_window(2, x, y, 0.01), True, True))
    err_bound = interval_error_bound(2, x, y) * x**0.01
    prof = density_profile(abelian, DEFAULT_BOUND, 2)
    for k in (1, 2):
        d = prof[k].density
        count = count_value(abelian, k, x, y)
        gap = abs(count - d * y)
        band = 10.0 * sqrt(d * (1.0 - d) * y)
        out.append(Check(f"desk-scale-k{k}-statistical-band", gap <= band, gap,
                         f"<= {band:.6g}", note=f"count {count}, main {d * y:.1f}"))
        out.append(Check(f"desk-scale-k{k}-error-bound", gap <= err_bound, gap,
                         f"<= {err_bound:.6g}"))
    return out


def _segment_counts(rules, windows, ks):
    """For each window (x, y), [#{n in (x, x+y] : f(n) = k} for k in ks] for each rule.

    Each is the sum over e <= x+y of H_k(e) (floor((x+y)/e) - floor(x/e)), H_k = 1_{f=k} * mu.
    At p^a || e, H_k's factor is factor._local_weights's row a at a period past every exponent,
    X^g(a) - X^g(a-1): 0 for a < r and free of p, so the product is taken once per signature.
    Floors are exact in float64 for x + y < 2^53: fl(N/e) is within 2^-53 N/e < 1/e of N/e.
    """
    tables = {r: _table(r, max(x + y for x, y in windows)) for r in {rule.r for rule in rules}}
    floats = {r: table[1].astype(np.float64) for r, table in tables.items()}  # once per call
    weights = {rule: np.zeros((len(tables[rule.r][0]), len(ks))) for rule in rules}
    for rule, w in weights.items():
        (facts, _, _, pattern), rows = tables[rule.r], _local_weights(rule, rule.alpha_max + 1)
        for q in np.flatnonzero(np.bincount(pattern)).tolist():
            h = _lattice_product(rows, facts[q], max(ks))
            w[q] = [h.get(k, 0) for k in ks]
    for x, y in windows:
        moved = {}  # r -> the multiples in (x, x+y] of the r-full e of each signature
        for r, (facts, n, _, pattern) in tables.items():
            e = floats[r][: np.searchsorted(n, x + y, "right")]
            multiples = np.floor((x + y) / e) - np.floor(x / e)
            # float64 sums, exact while the window's total stays below 2^53; so is the product.
            moved[r] = np.bincount(pattern[: e.size], multiples, len(facts))
        yield [(moved[rule.r] @ weights[rule]).astype(np.int64).tolist() for rule in rules]


def checks_segment_equivalence(seed: int = 0) -> list[Check]:
    """Counting kernel vs the Moebius identity of _segment_counts over seeded random windows.

    One _profile_windows table of all the windows per r, each code's count by window,
    serves every rule, as in value_counts: _fold takes f once per rule and code and sums
    the table's rows by f.  The identity is exact and sieves nothing: it reads the cached
    r-full table up to the last window end.
    """
    segments, ks = 200, range(1, 7)
    rng, rules = random.Random(seed), builtin_rules()
    windows = [(rng.randrange(0, 10**8), rng.randrange(1, 10**4 + 1)) for _ in range(segments)]
    x, y = (list(v) for v in zip(*windows))
    expected = np.array(list(_segment_counts(rules, windows, ks)))  # window, rule, k
    profiles = {r: _profile_windows(r, x, y) for r in {rule.r for rule in rules}}
    mismatch = partition_bad = 0
    for i, rule in enumerate(rules):
        codes, table = profiles[rule.r]
        counted = _fold(rule, zip(codes.tolist(), table))  # f -> its count in each window
        partition_bad += int(np.count_nonzero(sum(counted.values()) != y))
        mismatch += sum(int(np.count_nonzero(counted.get(k, 0) != expected[:, i, j]))
                        for j, k in enumerate(ks))
    return [
        Check("segment-pointwise-equivalence", mismatch == 0, mismatch, 0,
              note=f"{segments} seeded windows, {len(rules)} rules, k <= 6"),
        Check("segment-value-partition", partition_bad == 0, partition_bad, 0,
              note="value counts always partition the window"),
    ]


def checks_bound_identities() -> list[Check]:
    out = []
    x, y = 1.0e11, 1.0e6
    b = bound_breakdown(2, x, y)
    specialized = (
        abs(b.term_main - (x * y**3) ** 0.125) < 1e-6 * b.term_main
        and abs(b.term_mid - y * x ** (-1.0 / 126.0)) < 1e-6 * b.term_mid
        and abs(b.term_tail - y**0.8) < 1e-6 * b.term_tail
    )
    out.append(Check("bound-r2-specialization", specialized, "exponents 1/8, -1/126, 4/5",
                     "match closed forms"))
    ok = True
    for r in (2, 3, 4):
        xx = 1.0e10
        threshold = xx ** (1.0 / (2 * r + 1))
        for factor in (1.0, 3.0, 1e2, 1e4):
            bb = bound_breakdown(r, xx, threshold * factor)
            if bb.term_main < threshold * (1 - 1e-9):
                ok = False
    out.append(Check("bound-main-term-dominates", ok, ok, True,
                     note="term_main >= X^(1/(2r+1)) once Y >= X^(1/(2r+1))"))
    monotone = True
    for r in (2, 3):
        prev = None
        for yy in (1e2, 1e4, 1e6):
            bb = bound_breakdown(r, 1e12, yy)
            if prev is not None and (
                bb.term_main < prev.term_main or bb.term_mid < prev.term_mid
                or bb.term_tail < prev.term_tail
            ):
                monotone = False
            prev = bb
    out.append(Check("bound-terms-monotone-in-y", monotone, monotone, True))
    return out


def run_suite(name: str, seed: int = 0, workers: int = 1) -> list[Check]:
    """Run one named suite (or "all") and return its checks."""
    if name not in SUITE_NAMES + ("all",):
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if name == "sequences":
        return checks_sequences()
    if name == "convolution":
        return checks_convolution()
    if name == "lemma2":
        return checks_weighted_growth()
    if name == "lemma3":
        return checks_r_free_interval() + checks_multiples_sum()
    if name == "density-cross":
        # The one window of the suites wider than a chunk, so the one count given workers.
        counts = value_counts(build_rule("abelian"), 0, ORACLE_LIMIT, workers=workers)
        return (checks_k1_collapse(seed=seed)
                + checks_density_oracle(counts)
                + checks_density_paths()
                + checks_density_extras(counts))
    if name == "theorem":
        return (checks_desk_scale()
                + checks_segment_equivalence(seed=seed)
                + checks_bound_identities())
    return [c for suite in SUITE_NAMES for c in run_suite(suite, seed, workers)]
