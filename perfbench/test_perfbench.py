"""Tests of the benchmark itself: seeded inputs, output checks, computed counts."""

from __future__ import annotations

import copy
import time

import pytest

import calib
import run
import workloads
from tracer import layer_metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_inputs_keep_their_fixed_composition():
    refs = workloads.load_refs()
    for seed in range(20):
        dens = workloads.make_ops("density", seed)
        assert sorted(op["rule"] for op in dens) == sorted(workloads.FAMILIES)
        assert sorted(op["k"] for op in dens) == list(workloads.DENSITY_KS)
        assert all(f"{op['rule']}/{op['k']}" in refs["density"] for op in dens)
        heavy = [op["rule"] for op in dens if op["k"] == workloads.DENSITY_HEAVY_K]
        assert heavy[0] in workloads.DENSITY_HEAVY_RULES
        wins = workloads.make_ops("windows", seed)
        assert wins[0]["slot"] == "deep-top" and wins[0]["x"] + wins[0]["y"] == 10**16
        assert sorted(op["slot"] for op in wins) == sorted(s[0] for s in workloads.WINDOW_SLOTS)
        assert sum(op["k"] == 1 for op in wins) == len(wins) // 2


def _density_pass(ops, refs):
    results = [{"out": dict(refs["density"][f"{op['rule']}/{op['k']}"]), "error": None}
               for op in ops]
    return {"results": results}


def test_wrong_density_raises_fail_ratio():
    refs = workloads.load_refs()
    ops = workloads.make_ops("density", 3)
    good = _density_pass(ops, refs)
    assert run.check_passes("density", 3, ops, [good]) == (len(ops), 0, [])
    bad = copy.deepcopy(good)
    bad["results"][2]["out"]["density"] += 1e-9
    attempted, failed, problems = run.check_passes("density", 3, ops, [good, bad])
    assert (attempted, failed) == (2 * len(ops), 1) and problems
    raised = copy.deepcopy(good)
    raised["results"][0] = {"out": None, "error": "ValueError: boom"}
    assert run.check_passes("density", 3, ops, [raised])[1] == 1


def test_wrong_window_count_is_caught():
    op = {"rule": "abelian", "k": 1, "x": 100, "y": 50}
    assert workloads.check_window(op, {"count": 31}, r_free=31, frozen=31) == []
    assert workloads.check_window(op, {"count": 30}, r_free=31, frozen=None)
    op2 = dict(op, k=2)
    assert workloads.check_window(op2, {"count": 5}, r_free=None, frozen=6)


def test_flipped_verdict_raises_fail_ratio():
    refs = workloads.load_refs()
    ops = workloads.make_ops("verify-all", 0)
    verdicts = [[name, name not in workloads.KNOWN_FAILS] for name in refs["verify_names"]]
    good = {"results": [{"out": {"verdicts": verdicts}, "error": None}]}
    n = len(refs["verify_names"])
    assert run.check_passes("verify-all", 0, ops, [good]) == (n, 0, [])
    for flip in (workloads.KNOWN_FAILS[0], refs["verify_names"][0]):
        bad = copy.deepcopy(good)
        for pair in bad["results"][0]["out"]["verdicts"]:
            if pair[0] == flip:
                pair[1] = not pair[1]
        attempted, failed, problems = run.check_passes("verify-all", 0, ops, [bad])
        assert (attempted, failed) == (n, 1) and flip in problems[0]


def test_tail_is_slowest_op_median():
    assert run.tail([[1.0, 1.2], [3.0, 5.0, 4.0], [2.0]]) == 4.0


def _traced_counts(workload, ops):
    spec = {"workload": workload, "ops": ops, "mode": "pass", "trace": True}
    rep = run.run_worker(spec, time.perf_counter() + 120)
    assert all(r["error"] is None for r in rep["results"])
    return layer_metrics(rep["spans"], rep["counts"], rep["child_cpu_s"])


COMPUTED = ("density.terms", "sieve.ints", "factor.sieving_primes", "sieve.large_prime_share",
            "factor.eval_calls", "sieve.pool_starts")


def test_computed_counts_repeat_exactly():
    density_ops = [{"rule": "abelian", "k": 2, "bound": 10**6}]
    window_ops = [{"rule": "abelian", "k": 1, "x": 10**12, "y": 10**4},
                  {"rule": "plane", "k": 2, "x": 10**9, "y": 9 * 10**6}]
    for workload, ops in (("density", density_ops), ("windows", window_ops)):
        first = _traced_counts(workload, ops)
        second = _traced_counts(workload, ops)
        for name in COMPUTED:
            assert first[name] == second[name], name
    assert first["sieve.ints"] == 10**4 + 9 * 10**6
    assert first["factor.sieving_primes"] > 0 and 0 < first["sieve.large_prime_share"] < 1


def test_sampler_window_and_reference_speed():
    sampler = calib.Sampler()
    ref = calib.PROBE_REF_S
    sampler.starts = [1.0, 2.0, 3.0, 5.0]
    sampler.walls = [0.001, 0.002, 0.003, 0.004]
    sampler.cpus = [ref, 2 * ref, 3 * ref, 4 * ref]
    probe_s, slowness, ticks = sampler.window(1.5, 3.5)
    assert ticks == 2 and abs(probe_s - 0.005) < 1e-12 and abs(slowness - 2.5) < 1e-12
    assert sampler.window(3.5, 4.0) == (0.0, 4.0, 0)  # the next tick stands in
    assert sampler.window(6.0, 7.0) == (0.0, 4.0, 0)  # else the last one
    assert run.at_reference_speed({"raw_s": 3.0, "slowness": 1.5}) == 2.0
