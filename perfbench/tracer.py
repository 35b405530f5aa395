"""Layer spans and counters recorded from outside the program.

The traced pass replaces, in every ``pimshort.*`` module namespace, each
binding of an instrumented function with a wrapper: the names a module
imports from a sibling (``pimshort.sieve.primes_upto``,
``pimshort.verify.count_value``), the names it calls inside itself
(``pimshort.density.rfull_factorizations`` from ``local_density``) and
``run_suite``'s ``checks_*`` globals.  No source file is touched and the
untraced passes load no wrapper at all.

A span is ``[name, parent, start, end, note, extra]``: ``parent`` is the
index of the enclosing span (or None), ``note`` holds the arguments that the
computed counts need, ``extra`` the change of a second meter across the call
(process CPU for the counting kernel, peak RSS for the prime table).  Hot
functions get a call counter only.  Spans stay in memory until the pass
ends.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import resource
import sys
import time
from math import isqrt

import numpy as np

PRIMES = "factor.primes_upto"
ENUM = "density.rfull_factorizations"
SERIES = ("density.local_density", "density.density_profile",
          "density.weight_harmonic_sum", "density.weight_harmonic_tail",
          "density.weight_harmonic_profile", "density.weight_partial_sum")
COUNTING = ("sieve.count_value", "sieve.value_counts")
ORACLE = "sieve.sieve_segment"
RFREE = "sieve.count_r_free"
MULTIPLES = "sieve.rfull_multiples_sum"
WINDOW_CALLS = COUNTING + (ORACLE, RFREE)

# The checks_* groups run_suite("all") calls at the seed commit.  Every
# workload reports all of them, 0 where a group did not run.
VERIFY_GROUPS = ("sequences", "convolution", "k1_collapse", "density_oracle",
                 "density_paths", "density_extras", "weighted_growth",
                 "r_free_interval", "multiples_sum", "desk_scale",
                 "segment_equivalence", "bound_identities")

# Series functions that stop at their own limit argument when given a
# longer term list.
_SERIES_LIMIT = {"density.weight_harmonic_sum": "bound", "density.weight_partial_sum": "x"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {"factor.eval_calls": 0, "factor.weights_calls": 0,
                                       "sieve.pool_starts": 0}
        self._stack: list[int] = []

    def _open(self, name: str, extra=None) -> list:
        span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None,
                None, extra() if extra else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, extra=None) -> None:
        span[3] = time.perf_counter()
        if extra:
            span[5] = extra() - span[5]
        self._stack.pop()

    def spanned(self, name: str, fn, note=None, extra=None):
        """fn wrapped in a span; note(bound_args, result) fills the note."""
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, extra)
            if note:
                span[4] = note(sig.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


class _PoolCounter:
    """Stands in for the multiprocessing module inside pimshort.sieve."""

    def __init__(self, module, counts: dict) -> None:
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors multiprocessing.Pool
        self._counts["sieve.pool_starts"] += 1
        return self._module.Pool(*args, **kwargs)


def _window_note(args, result) -> dict:
    return {"x": args["x"], "y": args["y"], "r": args.get("r")}


def _enum_note(args, result) -> dict:
    return {"terms": len(result)}


def _series_note(name):
    limit_arg = _SERIES_LIMIT.get(name)

    def note(args, result):
        terms = args.get("terms")
        if terms is None:
            return None  # walked = the terms its own enumeration produced
        if limit_arg is None:
            return {"walked": len(terms)}
        return {"walked": bisect.bisect_right(terms, args[limit_arg], key=lambda t: t[0])}
    return note


def install(tracer: Tracer) -> None:
    """Wrap the instrumented functions in every loaded pimshort module."""
    from pimshort import density, factor, sieve, verify

    plan = [
        (factor, "primes_upto", tracer.spanned(PRIMES, factor.primes_upto, extra=_maxrss_kb)),
        (factor, "factorize", tracer.spanned("factor.factorize", factor.factorize)),
        (factor, "eval_rule", tracer.counted("factor.eval_calls", factor.eval_rule)),
        (factor, "rfull_weights_up_to",
         tracer.counted("factor.weights_calls", factor.rfull_weights_up_to)),
        (density, "rfull_factorizations",
         tracer.spanned(ENUM, density.rfull_factorizations, note=_enum_note)),
    ]
    for name in SERIES:
        attr = name.split(".", 1)[1]
        plan.append((density, attr,
                     tracer.spanned(name, getattr(density, attr), note=_series_note(name))))
    for name in COUNTING:
        attr = name.split(".", 1)[1]
        plan.append((sieve, attr, tracer.spanned(name, getattr(sieve, attr), note=_window_note,
                                                 extra=time.process_time)))
    for name in (ORACLE, RFREE):
        attr = name.split(".", 1)[1]
        plan.append((sieve, attr, tracer.spanned(name, getattr(sieve, attr), note=_window_note)))
    plan.append((sieve, "rfull_multiples_sum",
                 tracer.spanned(MULTIPLES, sieve.rfull_multiples_sum)))
    for attr, fn in list(vars(verify).items()):
        if attr.startswith("checks_") and callable(fn):
            plan.append((verify, attr, tracer.spanned(f"verify.{attr[len('checks_'):]}", fn)))

    modules = [m for n, m in list(sys.modules.items())
               if n == "pimshort" or n.startswith("pimshort.")]
    for home, attr, wrapper in plan:
        original = getattr(home, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    sieve.multiprocessing = _PoolCounter(sieve.multiprocessing, tracer.counts)


def prime_pi(limits) -> dict[int, int]:
    """pi(n) for each n in limits, from one sieve up to the largest."""
    limits = sorted(set(limits))
    if not limits or limits[-1] < 2:
        return {n: 0 for n in limits}
    top = limits[-1]
    flags = np.ones(top + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    del flags
    return {n: int(np.searchsorted(primes, n, side="right")) for n in limits}


def _introot(n: int, r: int) -> int:
    x = int(round(n ** (1.0 / r)))
    while x > 0 and x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def layer_metrics(spans: list, counts: dict, child_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead is added by the caller)."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, note, extra in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, parent, start, end, note, extra) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered[i])

    enum_terms: dict[int, int] = {}  # enumeration span's parent -> terms it made
    for name, parent, start, end, note, extra in spans:
        if name == ENUM and parent is not None and note is not None:
            enum_terms[parent] = enum_terms.get(parent, 0) + note["terms"]
    walked = 0
    for i, (name, parent, start, end, note, extra) in enumerate(spans):
        if name in SERIES:
            walked += note["walked"] if note else enum_terms.get(i, 0)

    windows = [(name, note) for name, _, _, _, note, _ in spans
               if name in WINDOW_CALLS and note is not None]
    limits = [_introot(n["x"] + n["y"], n["r"]) if name == RFREE else isqrt(n["x"] + n["y"])
              for name, n in windows]
    counting = [n for name, n in windows if name in COUNTING]
    pi = prime_pi(limits + [isqrt(n["y"]) for n in counting])
    sieving_primes = sum(pi[n] for n in limits)
    pairs = sum(pi[isqrt(n["x"] + n["y"])] for n in counting)
    large = sum(pi[isqrt(n["x"] + n["y"])] - pi[isqrt(n["y"])] for n in counting)
    ints = sum(n["y"] for n in counting)

    series_s = sum(own.get(n, 0.0) for n in SERIES)
    count_s = sum(own.get(n, 0.0) for n in COUNTING)
    count_cpu = sum(extra for name, _, _, _, _, extra in spans if name in COUNTING)
    out = {
        "factor.primes_s": total.get(PRIMES, 0.0),
        "factor.primes_rss_mb": sum(e for n, _, _, _, _, e in spans if n == PRIMES) / 1024.0,
        "factor.sieving_primes": sieving_primes,
        "factor.eval_calls": counts["factor.eval_calls"],
        "factor.weights_calls": counts["factor.weights_calls"],
        "density.enum_s": own.get(ENUM, 0.0),
        "density.terms": sum(note["terms"] for n, _, _, _, note, _ in spans
                             if n == ENUM and note is not None),
        "density.series_s": series_s,
        "density.ns_per_term": 1e9 * series_s / walked if walked else 0.0,
        "sieve.count_s": count_s,
        "sieve.ints": ints,
        "sieve.ns_per_int": 1e9 * count_s / ints if ints else 0.0,
        "sieve.large_prime_share": large / pairs if pairs else 0.0,
        "sieve.oracle_s": own.get(ORACLE, 0.0),
        "sieve.rfree_s": own.get(RFREE, 0.0),
        "sieve.multiples_s": own.get(MULTIPLES, 0.0),
        "sieve.pool_starts": counts["sieve.pool_starts"],
        "sieve.pool_child_cpu_s": child_cpu_s,
        "sieve.pool_parallel_share": (child_cpu_s / (child_cpu_s + count_cpu)
                                      if child_cpu_s + count_cpu > 0 else 0.0),
    }
    for group in VERIFY_GROUPS:
        out[f"verify.{group}_s"] = total.get(f"verify.{group}", 0.0)
    return out


LAYER_UNITS = {
    "factor.primes_s": "s", "factor.primes_rss_mb": "MB", "factor.sieving_primes": "count",
    "factor.eval_calls": "count", "factor.weights_calls": "count",
    "density.enum_s": "s", "density.terms": "count", "density.series_s": "s",
    "density.ns_per_term": "ns", "sieve.count_s": "s", "sieve.ints": "count",
    "sieve.ns_per_int": "ns", "sieve.large_prime_share": "ratio", "sieve.oracle_s": "s",
    "sieve.rfree_s": "s", "sieve.multiples_s": "s", "sieve.pool_starts": "count",
    "sieve.pool_child_cpu_s": "s", "sieve.pool_parallel_share": "ratio",
    **{f"verify.{g}_s": "s" for g in VERIFY_GROUPS},
    "trace.overhead": "ratio",
}
