from dataclasses import replace

from pimshort import sieve, verify

# The one value_counts(abelian, 0, ORACLE_LIMIT) of the density-cross suite,
# stubbed below; the two groups that read it get it as their argument.
COUNTS = {1: 6079271, 2: 2000000}

# run_suite("all") runs every checks_* group once, in this order, with these
# keyword arguments (seed 7, workers 3); no group takes workers.
ALL_GROUPS = {
    "checks_sequences": {},
    "checks_convolution": {},
    "checks_k1_collapse": {"seed": 7},
    "checks_density_oracle": {},
    "checks_density_paths": {},
    "checks_density_extras": {},
    "checks_weighted_growth": {},
    "checks_r_free_interval": {},
    "checks_multiples_sum": {},
    "checks_desk_scale": {},
    "checks_segment_equivalence": {"seed": 7},
    "checks_bound_identities": {},
}
COUNT_READERS = ("checks_density_oracle", "checks_density_extras")


def test_run_suite_all_is_every_suite_in_order(monkeypatch):
    calls = []
    counted = []

    def stub(name):
        def checks(*args, **kwargs):
            calls.append((name, args, kwargs))
            return [verify.Check(name, True, None, None)]
        return checks

    def value_counts(rule, x, y, workers=1):
        counted.append((rule.name, x, y, workers))
        return COUNTS

    for name in vars(verify):
        if name.startswith("checks_"):
            monkeypatch.setattr(verify, name, stub(name))
    monkeypatch.setattr(verify, "value_counts", value_counts)
    checks = verify.run_suite("all", seed=7, workers=3)
    assert [c.name for c in checks] == list(ALL_GROUPS)
    assert calls == [(name, (COUNTS,) if name in COUNT_READERS else (), kwargs)
                     for name, kwargs in ALL_GROUPS.items()]
    assert counted == [("abelian", 0, verify.ORACLE_LIMIT, 3)]


# Two prime-independent breakages of h, and the 25 observed counts that the
# per-integer checks_convolution (every n <= 10^4 factorized and convolved on
# its own) gave under each: grouping n by exponent shape must count each
# failing n once.
real_weights = verify.rfull_weights_up_to


def plus_one_at_cubes(rule, fact, k_max):
    # h(2) gains 1 wherever some exponent is 3.
    out = dict(real_weights(rule, fact, k_max))
    if any(a == 3 for _, a in fact):
        out[2] = out.get(2, 0) + 1
    return {k: c for k, c in out.items() if c}


def quadrupled_unit_on_squarefree(rule, fact, k_max):
    # Every weight times 4, and h(1) = 1 at every squarefree n.
    out = {k: 4 * c for k, c in real_weights(rule, fact, k_max).items()}
    if all(a == 1 for _, a in fact):
        out[1] = 1
    return out


BROKEN_COUNTS = {
    plus_one_at_cubes: [891, 0, 0, 0, 1342] * 5,
    quadrupled_unit_on_squarefree: [
        6082, 25, 6082, 15, 11998, 6082, 25, 6082, 15, 11290, 6082, 25, 6082, 15, 11938,
        6082, 27, 6082, 15, 12231, 6082, 25, 6082, 15, 12235],
}


def test_convolution_counts_every_n_of_a_shape(monkeypatch):
    for broken, expected in BROKEN_COUNTS.items():
        monkeypatch.setattr(verify, "rfull_weights_up_to", broken)
        checks = verify.checks_convolution()
        assert [c.observed for c in checks] == expected, broken.__name__
        assert [c.passed for c in checks] == [v == 0 for v in expected]


def test_convolution_weighs_each_shape_not_each_n(monkeypatch):
    # 83 exponent shapes occur below 10^4: one weight call per shape and r-free
    # divisor vector, not one per n and divisor (50,080).
    calls = []

    def counted(rule, fact, k_max):
        calls.append(fact)
        return real_weights(rule, fact, k_max)

    monkeypatch.setattr(verify, "rfull_weights_up_to", counted)
    checks = verify.checks_convolution()
    assert all(c.passed for c in checks) and len(checks) == 25
    assert len(calls) <= 4000


def test_segment_check_fails_on_a_wrong_signature_or_oracle(monkeypatch):
    # One signature sieve serves all five rules, so each side must still be able
    # to fail the check: prime(2) and prime(3) swapped in the signature table
    # (every p^2 || n decodes as p^3), and an oracle that loses one squarefull n.
    sig = sieve._signature_rule(2)
    values = list(sig.values)
    values[2], values[3] = values[3], values[2]
    monkeypatch.setattr(sieve, "_signature_rule", lambda r: replace(sig, values=tuple(values)))
    mismatch, partition = verify.checks_segment_equivalence(seed=0)
    assert mismatch.observed > 0 and not mismatch.passed
    assert partition.passed
    monkeypatch.undo()

    real_segment, dropped = verify.sieve_segment, []

    def segment_losing_one_entry(x, y):
        parts = real_segment(x, y)
        if parts and not dropped:
            dropped.append(parts.pop(min(parts)))
        return parts

    monkeypatch.setattr(verify, "sieve_segment", segment_losing_one_entry)
    mismatch, partition = verify.checks_segment_equivalence(seed=0)
    assert len(dropped) == 1
    assert mismatch.observed > 0 and not mismatch.passed
