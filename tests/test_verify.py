from pimshort import verify

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
