"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The density criteria share one r-full enumeration through the
density module's per-r cache, so the first of them to run also times it.
"""

import time
from math import gcd, log, sqrt

from pimshort.bounds import interval_error_bound, zeta
from pimshort.density import (
    density_profile,
    local_density,
    rfull_factorizations,
    weight_partial_sum,
)
from pimshort.factor import factorize
from pimshort.rules import build_rule
from pimshort.sieve import (
    admissible_window,
    count_r_free,
    count_value,
    rfull_multiples_sum,
    value_counts,
)
from pimshort.verify import (
    PLANE_SEQUENCE,
    SEMISIMPLE_SEQUENCE,
    checks_convolution,
    checks_density_paths,
    checks_k1_collapse,
)

from oracles import (
    decomposition_value,
    multiples_sum_brute,
    prime_power_weight_sum,
    rfull_decomposition,
    rfull_flags,
)

SEED = 20240901


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())


def test_criterion_01_golden_sequences():
    start = time.time()
    plane = tuple(build_rule("plane").values[:13])
    semi = tuple(build_rule("semisimple").values[:15])
    elapsed = time.time() - start
    ok = plane == PLANE_SEQUENCE and semi == SEMISIMPLE_SEQUENCE and elapsed < 1.0
    report(1, "golden-sequences", ok, f"elapsed {elapsed:.3f}s")
    assert plane == PLANE_SEQUENCE
    assert semi == SEMISIMPLE_SEQUENCE
    assert elapsed < 1.0


def test_criterion_02_convolution_suite():
    start = time.time()
    checks = checks_convolution()
    elapsed = time.time() - start
    failed = [c.name for c in checks if not c.passed]
    ok = not failed and elapsed < 30.0
    report(2, "convolution-suite", ok, f"{len(checks)} checks, elapsed {elapsed:.1f}s")
    assert not failed, failed
    assert elapsed < 30.0


def test_criterion_03_k1_collapse():
    checks = checks_k1_collapse(seed=SEED)
    failed = [c.name for c in checks if not c.passed]
    report(3, "k1-collapse", not failed, f"{len(checks)} checks")
    assert not failed, failed


def test_criterion_04_density_cross_validation():
    start = time.time()
    abelian = build_rule("abelian")
    prof = density_profile(abelian, 10**9, 5)
    counts = value_counts(abelian, 0, 10**7)
    gaps = {k: abs(prof[k].density - counts.get(k, 0) / 10**7) for k in range(1, 6)}
    elapsed = time.time() - start
    ok = all(gap <= 5e-3 for gap in gaps.values()) and elapsed < 120.0
    detail = ", ".join(f"k={k}: {gap:.2e}" for k, gap in gaps.items())
    report(4, "density-vs-long-range-sieve", ok, f"{detail}; elapsed {elapsed:.1f}s")
    assert all(gap <= 5e-3 for gap in gaps.values()), gaps
    assert elapsed < 120.0


def test_criterion_05_density_paths_agree():
    checks = checks_density_paths()
    failed = [c.name for c in checks if not c.passed]
    report(5, "density-paths-agree", not failed,
           "; ".join(str(c.observed) for c in checks))
    assert not failed, failed


def test_criterion_06_r_free_short_interval():
    start = time.time()
    x, y, r = 10**9, 10**5, 2
    count = count_r_free(x, y, r)
    residual = abs(count - y / zeta(r))
    loose = (x ** (1 / 5) + y * x ** (-1 / 126) + y ** (4 / 5)) * x**0.05
    elapsed = time.time() - start
    ok = residual <= 0.01 * y and residual <= loose and elapsed < 5.0
    report(6, "r-free-short-interval", ok,
           f"count {count}, residual {residual:.1f}, elapsed {elapsed:.2f}s")
    assert residual <= 0.01 * y
    assert residual <= loose
    assert elapsed < 5.0


def test_criterion_07_multiples_sum_oracle_equivalence():
    pairs = [(10**4, 10**2), (10**6, 10**3), (10**8, 10**4)]
    mismatches = []
    for r in (2, 3):
        for x, y in pairs:
            a = rfull_multiples_sum(x, y, r, "rfull")
            b = rfull_multiples_sum(x, y, r, "divisors")
            if a != b:
                mismatches.append((x, y, r, a, b))
    frozen = multiples_sum_brute(100, 10, 2)
    value = rfull_multiples_sum(100, 10, 2)
    ok = not mismatches and value == frozen == 3
    report(7, "multiples-sum-oracle-equivalence", ok,
           f"value(100,10,2) = {value}, brute = {frozen}")
    assert not mismatches, mismatches
    # Frozen from the literal brute-force sum: the r-full members of
    # (20, 200] hitting the window (100, 110] are 27, 36 and 108.
    assert value == frozen == 3


def test_criterion_08_desk_scale_window():
    start = time.time()
    abelian = build_rule("abelian")
    x, y = 10**11, 10**6
    assert admissible_window(2, x, y, 0.01)
    err_bound = interval_error_bound(2, x, y) * x**0.01
    details = []
    ok = True
    for k in (1, 2):
        d = local_density(abelian, k, 10**9).density
        count = count_value(abelian, k, x, y, workers=2)
        gap = abs(count - d * y)
        band = 10.0 * sqrt(d * (1.0 - d) * y)
        details.append(f"k={k}: count {count}, gap {gap:.1f}, band {band:.1f}")
        ok = ok and gap <= band and gap <= err_bound
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(8, "desk-scale-window", ok, "; ".join(details) + f"; elapsed {elapsed:.1f}s")
    for k in (1, 2):
        d = local_density(abelian, k, 10**9).density
        count = count_value(abelian, k, x, y)
        gap = abs(count - d * y)
        assert gap <= 10.0 * sqrt(d * (1.0 - d) * y), (k, gap)
        assert gap <= err_bound, (k, gap)
    assert elapsed < 60.0


def test_criterion_09_weighted_growth_shape():
    # For abelian at k = 2, h is (-1)^a on p^a (a >= 2) and 0 on every other
    # squarefull n, so S_kappa(x) sums p^(-a kappa) over those prime powers.
    # Lemma 2 bounds S_kappa(x) above by a multiple of x^(1/2-kappa) (log x)^2
    # only; the true orders are sqrt(x)/log x (kappa = 0) and log log x
    # (kappa = 1/2).
    abelian = build_rule("abelian")
    decades = [10**e for e in range(3, 9)]
    sums = {
        kappa: [weight_partial_sum(abelian, 2, kappa, x) for x in decades]
        for kappa in (0.0, 0.5, 1.0)
    }
    mismatches = []
    for kappa, row in sums.items():
        for x, got in zip(decades, row):
            want = prime_power_weight_sum(x, kappa)
            if (got != want) if kappa == 0 else abs(got - want) > 1e-12 * want:
                mismatches.append((kappa, x, got, want))
    lemma2 = {
        kappa: [s / (x ** (0.5 - kappa) * log(x) ** 2) for s, x in zip(sums[kappa], decades)]
        for kappa in (0.0, 0.5)
    }
    lemma2_ok = all(b <= a for row in lemma2.values() for a, b in zip(row, row[1:]))
    true_order = {
        0.0: [s / (sqrt(x) / log(x)) for s, x in zip(sums[0.0], decades)],
        0.5: [s / log(log(x)) for s, x in zip(sums[0.5], decades)],
    }
    spreads = {kappa: max(row) / min(row) for kappa, row in true_order.items()}
    increments = [b - a for a, b in zip(sums[1.0], sums[1.0][1:])]
    cauchy = all(b < a for a, b in zip(increments, increments[1:]))
    ok = (lemma2_ok and not mismatches and spreads[0.0] < 4.0 and spreads[0.5] < 4.0
          and cauchy)
    report(9, "weighted-growth-shape", ok,
           f"lemma2 non-increasing: {lemma2_ok}, oracle mismatches: {len(mismatches)}, "
           f"true-order spread kappa=0: {spreads[0.0]:.2f}, kappa=1/2: {spreads[0.5]:.2f}, "
           f"cauchy: {cauchy}")
    assert lemma2_ok, lemma2
    assert not mismatches, mismatches
    for kappa, spread in spreads.items():
        table = ", ".join(f"{v:.3g}" for v in true_order[kappa])
        assert spread < 4.0, (
            f"kappa={kappa}: true-order ratio varies by factor {spread:.2f} > 4 across "
            f"decades 1e3..1e8 (ratios: {table})"
        )
    assert cauchy, increments


def test_criterion_10_enumeration_oracles():
    limit = 10**6
    ok = True
    for r in (2, 3, 4):
        flags = rfull_flags(limit, r)
        expected = [n for n in range(1, limit + 1) if flags[n]]
        got = [n for n, _ in rfull_factorizations(r, limit)]
        if got != expected:
            ok = False
    roundtrip_bad = 0
    for r in (2, 3):
        for n, fact in rfull_factorizations(r, limit):
            parts = rfull_decomposition(fact, r)
            if decomposition_value(parts) != n:
                roundtrip_bad += 1
                continue
            square_part = 1
            for a in parts[1:]:
                square_part *= a
            if any(e != 1 for _, e in factorize(square_part)):
                roundtrip_bad += 1
            for i in range(1, r):
                for j in range(i + 1, r):
                    if gcd(parts[i], parts[j]) != 1:
                        roundtrip_bad += 1
    ok = ok and roundtrip_bad == 0
    report(10, "enumeration-oracles", ok, f"roundtrip violations: {roundtrip_bad}")
    assert ok
