"""The benchmark's tracer still installs on the package.

perfbench/tracer.py wraps package functions by name and patches
``sieve.multiprocessing``; renaming any of them breaks every traced
benchmark run.  This runs one small traced pass in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_PASS = """
import json
import tracer
from pimshort import density, rules, sieve, verify

t = tracer.Tracer()
tracer.install(t)  # rebinds names inside the pimshort modules only
abelian = rules.build_rule("abelian")
density.local_density(abelian, 1, 1000)
sieve.count_value(abelian, 1, 10**6, 10**4)
verify.run_suite("lemma3")
print(json.dumps(tracer.layer_metrics(t.spans, t.counts, 0.0)))
print(json.dumps(sorted(tracer.LAYER_UNITS)))
"""


def test_tracer_installs_and_reports_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_PASS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics_line, units_line = proc.stdout.splitlines()[-2:]
    metrics = json.loads(metrics_line)
    assert sorted(metrics) == [k for k in json.loads(units_line) if k != "trace.overhead"]
    # Each wrapped layer the pass reaches recorded a span.
    assert metrics["sieve.ints"] == 10**4
    for key in ("density.series_s", "sieve.count_s", "sieve.rfree_s", "sieve.oracle_s",
                "sieve.multiples_s", "verify.r_free_interval_s", "verify.multiples_sum_s"):
        assert metrics[key] > 0, key
