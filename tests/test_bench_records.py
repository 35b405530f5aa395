"""Every benchmark record at the repository root has the shape ROADMAP asks for.

A ``BENCH_<n>.json`` holds, per workload, alternating pairs of runs of the
parent and the change, each run with its commit, its ``correct`` and
``failed`` and the end-to-end metrics that BENCHMARK.json declares, plus
the median of each metric on each side and the machine facts of the report.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
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
