"""A speed probe that runs inside the worker while the program works.

The host this benchmark was built on runs each virtual CPU in a fast or a
slow state (a fixed pure-Python loop takes 24 ms or 35 ms), switching every
few seconds, with the share of slow time changing over minutes.  A pimshort
call therefore takes 2.0 s in one run and 3.4 s in the next.  Calibrating
between calls cannot follow states that change during a call, so the probe
samples the speed *during* it, on the CPU the program runs on.

``Sampler.start()`` arms an interval timer in the worker: 200 Hz during
set-up, which lasts a fifth of a second, and 25 Hz afterwards.  On each tick
the signal handler runs ``probe()`` -- a fixed small mix of float loops,
Fraction arithmetic and numpy calls, the kinds of work pimshort does --
twice: once untimed, to refill the caches the program evicted, then timed.
Its thread CPU time over ``PROBE_REF_S`` is the *slowness* of that moment,
1.0 at the reference speed.  Thread CPU time leaves out the time
the probe waits while pool children hold both CPUs.  ``Sampler.window()``
gives, for a stretch of the worker's time, the probe's own wall time inside
it (to subtract) and the mean slowness inside it (to divide by), which
turns a raw time into seconds at the reference speed.

The timer lives in the worker only: pool children forked from it inherit no
timer.  Python runs the handler between bytecodes, so a long numpy call
delays a tick until it returns.  The probes cost about 2% of the worker's
time after set-up, and the report records how much; their own time is taken
out of every timing.

``PROBE_REF_S`` is a constant, measured once on the machine named in
``baseline.json``; it fixes the unit of the reported timings and must never
be re-measured by a run, or the correction would cancel itself.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import numpy as np

TICK_S = 0.04
SETUP_TICK_S = 0.005  # set-up lasts a fifth of a second: sample it densely
PROBE_REF_S = 3.4e-4

# Preallocated, so that a probe allocates nothing: an allocation's cost
# depends on the state the program left the heap in, not on the machine.
_ARR = np.arange(8_192, dtype=np.int64)
_OUT = np.empty_like(_ARR)


def probe() -> int:
    s = 0.0
    for i in range(1, 800):
        s += 1.0 / (i * i + 1)
    f = Fraction(1)
    for i in range(1, 12):
        f = f * Fraction(i + 7, i + 3)
    for _ in range(4):
        np.multiply(_ARR, 7, out=_OUT)
        np.add(_OUT, 3, out=_OUT)
        np.remainder(_OUT, 1009, out=_OUT)
    return int(_OUT[5]) + int(s) + f.numerator % 7


class Sampler:
    """Probe ticks of the current process: start time, wall and CPU seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()  # untimed: refills the caches the program's work evicted
        c0 = time.thread_time()
        probe()
        c1 = time.thread_time()
        self.starts.append(t0)
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(c1 - c0)

    def start(self, tick_s: float) -> None:
        """Arm (or re-arm, at another rate) the probe timer."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, tick_s, tick_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, t0: float, t1: float) -> tuple[float, float, int]:
        """(probe wall seconds, mean slowness, ticks) between perf_counter t0 and t1.

        With no tick inside, the slowness is that of the nearest later tick,
        else the last one before.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi > lo:
            cpus = self.cpus[lo:hi]
            return sum(self.walls[lo:hi]), sum(cpus) / len(cpus) / PROBE_REF_S, hi - lo
        near = lo if lo < len(self.cpus) else len(self.cpus) - 1
        return 0.0, (self.cpus[near] / PROBE_REF_S if near >= 0 else 1.0), 0
