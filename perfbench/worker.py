"""One benchmark pass in a fresh interpreter, as one CLI invocation runs.

Reads a JSON spec on stdin: ``{"workload", "ops", "mode", "trace"}``.  It
starts the speed probe of calib.py, imports pimshort from the checkout's
``src``, builds the rules the ops name, and prints ``ready`` -- the end of
set-up.  In mode ``pass`` it then runs the ops one after the other (a closed
loop).  Either way it ends with one JSON line: the set-up's span and probe
readings, and in mode ``pass`` each op's output, raw latency (probe time
taken out) and mean slowness, the pass's wall time, the peak RSS of itself
and of its pool children, and, when traced, the spans and counters of
tracer.py.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402 - the set-up window starts before any import
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(sampler: calib.Sampler, t0: float, t1: float) -> dict:
    """Raw seconds between t0 and t1 without the probe's own time, and the slowness."""
    probe_s, slowness, ticks = sampler.window(t0, t1)
    return {"raw_s": t1 - t0 - probe_s, "probe_s": probe_s, "slowness": slowness,
            "ticks": ticks}


def main() -> int:
    sampler = calib.Sampler()
    sampler.start(calib.SETUP_TICK_S)
    spec = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    import pimshort
    from pimshort import density, rules, sieve, verify

    if not os.path.abspath(pimshort.__file__).startswith(SRC + os.sep):
        print(f"pimshort loaded from {pimshort.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    workload = spec["workload"]
    built = {op["rule"]: rules.build_rule(op["rule"]) for op in spec["ops"] if "rule" in op}
    workers = min(2, os.cpu_count() or 1)
    t_ready = time.perf_counter()
    print("ready", flush=True)
    sampler.start(calib.TICK_S)
    report = {"setup": timed(sampler, T_START, t_ready)}
    if spec["mode"] == "setup":
        sampler.stop()
        json.dump(report, sys.stdout)
        sys.stdout.write("\n")
        return 0

    def run_op(op: dict) -> dict:
        if workload == "density":
            res = density.local_density(built[op["rule"]], op["k"], op["bound"])
            return {"density": res.density, "partial_sum": res.partial_sum,
                    "tail_estimate": res.tail_estimate}
        if workload == "windows":
            count = sieve.count_value(built[op["rule"]], op["k"], op["x"], op["y"],
                                      workers=workers)
            return {"count": count}
        checks = verify.run_suite(op["suite"], op["seed"], workers=1)
        return {"verdicts": [[c.name, bool(c.passed)] for c in checks]}

    call, tracer = run_op, None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.spanned("op", run_op)  # the root span of each op
    child_cpu0 = _child_cpu_s()
    results = []
    spans = []
    for op in spec["ops"]:
        t0 = time.perf_counter()
        try:
            out = call(op)
            error = None
        except Exception as exc:  # an op that raises is counted as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        results.append({"out": out, "error": error})
    sampler.stop()
    for res, (t0, t1) in zip(results, spans):
        res.update(timed(sampler, t0, t1))
    child_cpu = _child_cpu_s() - child_cpu0
    report.update({
        "results": results,
        "wall_s": sum(res["raw_s"] for res in results),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "child_cpu_s": child_cpu,
    })
    if tracer:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
