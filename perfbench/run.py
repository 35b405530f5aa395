"""pimshort benchmark: seeded workloads, end-to-end metrics and traced layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload density|windows|verify-all|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each *pass* runs the workload's seeded op list (workloads.py) in a fresh
interpreter (worker.py), one op after the other: a closed loop with one
caller.  Untraced, the benchmark runs as many passes as fit in
``--seconds`` at their nominal length (workloads.NOMINAL_PASS_S), adds
SETUP_SAMPLES set-up-only interpreters, checks every output outside the
timed region and prints the end-to-end metrics.  With ``--trace 1`` it runs
one untraced and one traced pass of the same ops and prints the per-layer
metrics of tracer.py, plus ``trace.overhead``.

Timings are reported in seconds *at the reference speed* (the ``_ref_s``
metrics, and ``setup_s``): on a shared host each CPU switches between a
fast and a half-again slower state every few seconds, so the worker samples
its speed with the probe of calib.py while it works, and each op's raw time
is divided by the mean slowness read during that op.  Raw times are kept in
the report.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report -- machine facts,
inputs, every pass, the extra metrics ``fail_ratio`` and ``ints_per_s`` --
is written to ``perfbench/out/``, and the traced pass's spans beside it as
JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import workloads
from tracer import LAYER_UNITS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 4
RUN_BUDGET_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "op_p50_ref_s": "s",
                    "op_tail_ref_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(spec: dict, deadline: float) -> dict:
    """The report of one fresh worker interpreter, with ``setup_s`` added.

    ``setup_s`` is the raw time from starting the interpreter to its
    ``ready``, without the time the speed probe took meanwhile.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        with proc.stdin:
            proc.stdin.write(json.dumps(spec))
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}"
                         + (" (killed at the run's time budget)" if proc.returncode < 0 else ""))
    report = json.loads(rest)
    report["setup_s"] = setup_s - report["setup"]["probe_s"]
    return report


def at_reference_speed(timing: dict) -> float:
    """Raw seconds over the mean slowness the probe read meanwhile (calib.py)."""
    return timing["raw_s"] / timing["slowness"]


def check_passes(workload: str, seed: int, ops: list[dict],
                 passes: list[dict]) -> tuple[int, int, list[str]]:
    """(outputs attempted, outputs wrong, problems) over every pass.

    Runs after all timing.  For verify-all an output is one check's verdict.
    """
    refs = workloads.load_refs()
    attempted = failed = 0
    problems: list[str] = []
    if workload == "verify-all":
        for p in passes:
            res = p["results"][0]
            if res["error"]:
                n = len(refs["verify_names"])
                bad = [f"run_suite raised {res['error']}"] * n
            else:
                n, bad = workloads.verify_mismatches(res["out"]["verdicts"], refs)
            attempted += n
            failed += len(bad)
            problems += bad
        return attempted, failed, problems

    r_free: dict[int, int] = {}
    if workload == "windows":
        sys.path.insert(0, SRC)
        from pimshort.sieve import count_r_free

        for i, op in enumerate(ops):
            if op["k"] == 1:
                r_free[i] = count_r_free(op["x"], op["y"], workloads.rule_threshold(op["rule"]))
    frozen = refs["windows_seed0"] if workload == "windows" and seed == 0 else None
    for p in passes:
        for i, (op, res) in enumerate(zip(ops, p["results"])):
            if res["error"]:
                bad = [f"op {i} raised {res['error']}"]
            elif workload == "density":
                bad = workloads.check_density(op, res["out"], refs)
            else:
                bad = workloads.check_window(op, res["out"], r_free.get(i),
                                             frozen[i] if frozen else None)
            attempted += 1
            failed += bool(bad)
            problems += bad
    return attempted, failed, problems


def machine_facts(seed: int, ops: list[dict]) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "inputs": ops,
    }


def tail(per_op: list[list[float]]) -> float:
    """The slowest op's median latency over the passes.

    A pass holds at most eight ops, so no percentile of a run has ten
    samples beyond it; and a percentile picked by sample count would change
    with the number of passes, which changes with ``--seconds``.
    """
    return max(statistics.median(runs) for runs in per_op)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    ops = workloads.make_ops(workload, seed)
    spec = {"workload": workload, "ops": ops, "mode": "pass", "trace": False}
    if trace:
        passes = [run_worker(dict(spec, trace=traced), deadline) for traced in (False, True)]
        setups = []
    else:
        n = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
        passes = [run_worker(spec, deadline) for _ in range(n)]
        setups = [run_worker(dict(spec, mode="setup"), deadline) for _ in range(SETUP_SAMPLES)]

    attempted, failed, problems = check_passes(workload, seed, ops, passes)
    timed = passes[:1] if trace else passes  # end-to-end numbers only from untraced passes
    per_op = [[at_reference_speed(p["results"][i]) for p in timed] for i in range(len(ops))]
    latencies = [lat for runs in per_op for lat in runs]
    started = passes + setups
    e2e = {
        "setup_s": statistics.median(p["setup_s"] / p["setup"]["slowness"] for p in started),
        "wall_ref_s": statistics.median(sum(at_reference_speed(r) for r in p["results"])
                                        for p in timed),
        "op_p50_ref_s": statistics.median(latencies),
        "op_tail_ref_s": tail(per_op),
        "peak_rss_mb": max(max(p["maxrss_kb"], p["child_maxrss_kb"]) for p in timed) / 1024.0,
    }
    slows = [r["slowness"] for p in timed for r in p["results"]]
    extra = {
        "fail_ratio": failed / attempted,
        "op_samples": len(latencies),
        "passes": len(passes),
        "raw_wall_s": statistics.median(p["wall_s"] for p in timed),
        "raw_setup_s": statistics.median(p["setup_s"] for p in started),
        "slowness_min": min(slows),
        "slowness_max": max(slows),
        "probe_share": (sum(r["probe_s"] for p in timed for r in p["results"])
                        / sum(r["raw_s"] + r["probe_s"] for p in timed for r in p["results"])),
    }
    if workload == "windows":
        extra["ints_per_s"] = sum(op["y"] for op in ops) / e2e["wall_ref_s"]
    result = {"workload": workload, "correct": not problems, "attempted": attempted,
              "failed": failed, "problems": problems[:50], "end_to_end": e2e, "extra": extra,
              "setups": [p["setup"] | {"setup_s": p["setup_s"]} for p in started],
              "machine": machine_facts(seed, ops),
              "passes": [{k: v for k, v in p.items() if k not in ("spans", "counts")}
                         for p in passes]}
    if trace:
        untraced, traced = passes
        layers = layer_metrics(traced["spans"], traced["counts"], traced["child_cpu_s"])
        layers["trace.overhead"] = (sum(at_reference_speed(r) for r in traced["results"])
                                    / sum(at_reference_speed(r) for r in untraced["results"])
                                    - 1.0)
        result["per_layer"] = layers
        result["spans"] = traced["spans"]
    return result


def write_report(result: dict, seed: int, trace: bool) -> str:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{result['workload']}-seed{seed}{'-trace' if trace else ''}")
    spans = result.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w") as fh:
            for i, (name, parent, start, end, note, extra) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": start,
                                     "end": end, "note": note, "extra": extra}) + "\n")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    return stem + ".json"


def print_result(result: dict, trace: bool) -> dict[str, dict]:
    w = result["workload"]
    extra = result["extra"]
    print(f"== {w}: {extra['passes']} pass(es), {result['attempted']} outputs checked, "
          f"{result['failed']} failed (fail_ratio {extra['fail_ratio']:.4g})")
    for p in result["problems"]:
        print(f"   wrong: {p}")
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in result["end_to_end"].items()}
    for name, m in metrics.items():
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"   op_tail_ref_s is the slowest of {len(result['machine']['inputs'])} ops "
              f"(median over passes); {extra['op_samples']} op latencies in all")
        print(f"   raw: wall {extra['raw_wall_s']:.4g} s, setup {extra['raw_setup_s']:.4g} s; "
              f"op slowness {extra['slowness_min']:.3g}..{extra['slowness_max']:.3g}; "
              f"probe share {extra['probe_share']:.2%}")
        if "ints_per_s" in extra:
            print(f"   {'ints_per_s':32s} {extra['ints_per_s']:.6g} 1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pimshort", "__init__.py")):
        print(f"error: no pimshort package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.perf_counter()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  start + RUN_BUDGET_S * len(names))
            path = write_report(result, args.seed, bool(args.trace))
            metrics = print_result(result, bool(args.trace))
            print(f"   report: {os.path.relpath(path, ROOT)}")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
