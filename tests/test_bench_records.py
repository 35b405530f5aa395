"""Every benchmark record at the repository root has the shape ROADMAP asks for.

A ``BENCH_<n>.json`` holds, per workload, alternating pairs of runs of the
parent and the change, each run with its commit, its ``correct`` and
``failed`` and the end-to-end metrics that BENCHMARK.json declares, plus
the median of each metric on each side and the machine facts of the report.
A workload entry is keyed by its workload's name, or names it under
``workload`` (with the ``seed`` its runs used) when one workload was run at
several seeds.  A non-null ``claim`` names one entry and one end-to-end
metric, and the entry's pairs must bear it out.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
SIDES = ("parent", "change")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record(path):
    record = json.loads(path.read_text())
    for key in ("command", "parent", "change", "machine", "workloads"):
        assert key in record, key
    assert record["parent"] != record["change"]
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert workload.get("workload", name) in WORKLOADS, name
        pairs = workload["pairs"]
        assert pairs, name
        for pair in pairs:
            assert pair["first"] in SIDES
            assert pair["parent"]["commit"] != pair["change"]["commit"], name
            for side in SIDES:
                run = pair[side]
                assert run["commit"] == record[side], (name, side)
                assert run["correct"] is True and run["failed"] == 0, (name, side)
                assert set(END_TO_END) <= set(run["metrics"]), (name, side)
        for side in SIDES:
            medians = workload["medians"][side]
            for metric in END_TO_END:
                runs = [pair[side]["metrics"][metric] for pair in pairs]
                assert medians[metric] == statistics.median(runs), (name, side, metric)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claim(path):
    record = json.loads(path.read_text())
    claim = record.get("claim")
    if claim is None:
        return
    workload = record["workloads"][claim["workload"]]
    assert claim["metric"] in END_TO_END
    metric, pairs = claim["metric"], workload["pairs"]
    assert len(pairs) >= 10
    # Better in at least nine pairs of ten, and in the median by more than the parent's quartile spread.
    sign = 1 if END_TO_END[metric]["better"] == "lower" else -1
    parent, change = ([pair[side]["metrics"][metric] for pair in pairs] for side in SIDES)
    assert sum(sign * (a - b) > 0 for a, b in zip(parent, change)) >= 0.9 * len(pairs)
    low, _, high = statistics.quantiles(parent, n=4)
    assert sign * (statistics.median(parent) - statistics.median(change)) > high - low
