from pimshort import verify

# run_suite("all") runs every checks_* group once, in this order, with these
# keyword arguments (seed 7, workers 3).
ALL_GROUPS = {
    "checks_sequences": {},
    "checks_convolution": {},
    "checks_k1_collapse": {"seed": 7, "workers": 3},
    "checks_density_oracle": {"workers": 3},
    "checks_density_paths": {},
    "checks_density_extras": {"workers": 3},
    "checks_weighted_growth": {},
    "checks_r_free_interval": {},
    "checks_multiples_sum": {},
    "checks_desk_scale": {"workers": 3},
    "checks_segment_equivalence": {"seed": 7, "workers": 3},
    "checks_bound_identities": {},
}


def test_run_suite_all_is_every_suite_in_order(monkeypatch):
    calls = []

    def stub(name):
        def checks(*args, **kwargs):
            calls.append((name, args, kwargs))
            return [verify.Check(name, True, None, None)]
        return checks

    for name in vars(verify):
        if name.startswith("checks_"):
            monkeypatch.setattr(verify, name, stub(name))
    checks = verify.run_suite("all", seed=7, workers=3)
    assert [c.name for c in checks] == list(ALL_GROUPS)
    assert calls == [(name, (), kwargs) for name, kwargs in ALL_GROUPS.items()]
