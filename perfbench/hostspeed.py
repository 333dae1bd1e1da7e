"""Host-speed calibration of the timed passes.

Small shared hosts change speed by a quarter or more in phases of seconds to
minutes, as other tenants come and go. Runs of the same commit then differ more
than any bound a regression check could use: ten 40 s runs whose pass times
were plain medians spread by up to 0.29 of their median, and longer runs do not
help, because a phase can outlast a run.

So a timed pass also times a fixed kernel of benchmark code (never the
program's) every INTERVAL_S of wall time, from a SIGALRM handler, and its time
is scaled by REF_KERNEL_S over the kernel's mean time in that pass: the pass
time the host would have shown at the speed where one kernel call takes
REF_KERNEL_S. The kernel mixes the two kinds of work the workloads do, a scalar
float loop like solve_1d's and calls on small numpy arrays like solve_nd's.
A change to the program moves the scaled time as much as the raw one, since
the kernel does not run program code; kernel time is not part of the pass time.

Set-up time drifts with the host as well (by up to 45% within half an hour),
but it is spent starting an interpreter and importing modules, which file
reads, page faults and dynamic loading drive more than arithmetic, and the
kernel does not follow it: scaling set-up by the kernel made it noisier. So
each set-up sample is paired with a bare start, an interpreter that only
imports numpy, started just before it, and is scaled by REF_START_S over the
bare start's time.
"""
from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Scaled times read as seconds on a host where one kernel() takes this long.
# On the 2-vCPU Xeon host the benchmark was written on, kernel() took 0.75 ms
# on its own and 1.4-1.7 ms between a workload's calls, which evict its caches.
REF_KERNEL_S = 1e-3
INTERVAL_S = 0.02  # one kernel call per 20 ms, about 5% more run time
# Scaled set-up times read as seconds on a host where a bare start takes this
# long; it took 0.11-0.2 s on the host above.
REF_START_S = 0.1

_BARE_START = "import sys, time; import numpy; print(repr(time.monotonic() - float(sys.argv[1])))"

_V2 = np.array([0.3, 0.7])
_V31 = np.linspace(0.1, 1.0, 31)


def kernel() -> float:
    """Fixed work, about 1 ms: scalar float steps, then small-array numpy calls."""
    x, t = 0.5, 0.0
    for _ in range(2000):
        h = 1e-7 / math.sqrt(2.0 * x * 1.1)
        x = x + x * x * h
        t += h
    v, w = _V2, _V31
    for _ in range(100):
        v = v * 1.0000001 + 1e-9 * v
        w = w * 1.0000001 + 1e-9 * w
        t += math.sqrt(float(v @ v)) + float(np.abs(w).max())
    return t


class Sampler:
    """Kernel timings, one every INTERVAL_S of wall time while entered.

    The handler runs in the main thread between bytecodes, also while the main
    thread waits for the CLI's thread pool; it holds the interpreter lock for
    the kernel's duration, so ``spent`` is the time taken from the workload.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a late signal arriving inside the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_kernel_s(self) -> float:
        # the mean, not the median: a pass takes the time of every slow phase
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor that turns a time measured while sampling into a scaled time."""
        return REF_KERNEL_S / self.mean_kernel_s()


def bare_start_s(env: dict) -> float:
    """Seconds from spawning an interpreter that only imports numpy until it has
    (CLOCK_MONOTONIC is shared by all processes)."""
    proc = subprocess.run([sys.executable, "-c", _BARE_START, repr(time.monotonic())],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)
