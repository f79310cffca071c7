"""Host-speed probe: divides a shared host's changing speed out of a time.

On a shared host the same command's time moves by 30% or more within
minutes, as neighbouring machines load the processor.  While timed
code runs, a SIGPROF handler fires every 25 ms of CPU time and runs one
of four small fixed kernels twice: integer arithmetic, dict and tuple
churn, list building and sorting, or small numpy algebra.  Only the
second run is timed, so the kernel finds its code and data in cache
whatever the timed code did to the caches.  A kernel's mean time over
its reference time is the host's slowdown; the mean of the four is the
slowdown factor over the timed interval.  The timed code's own time
(elapsed less the time spent in the probe) divided by that factor is
its time at the reference speed.

On a 2-vCPU Intel Xeon VM, with one gridrisk command repeated for two to
four minutes, single raw timings spread (quartile distance over median)
by 10-19%, and the same timings at the reference speed by 3-11%.

The kernels belong to the benchmark, not to gridrisk, so a change to
gridrisk cannot move them.  The probe costs about 2.5% of the timed
time, which is subtracted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025  # CPU time between two probes

_A = np.random.default_rng(0).standard_normal((14, 14))
_V = _A[0].copy()


def _k_int():
    s = 0
    for i in range(3000):
        s += i * i % 7


def _k_dict():
    d = {}
    for i in range(1500):
        d[i & 63] = (i, i * i % 7)


def _k_list():
    rows = []
    for i in range(600):
        rows.append([i, float(i), str(i)])
    rows.sort(key=lambda r: -r[0])


def _k_numpy():
    x = _V
    for _ in range(40):
        x = _A @ x
        x = x / np.abs(x).max()


KERNELS = (_k_int, _k_dict, _k_list, _k_numpy)
# Each kernel's tenth-percentile time over 4000 runs on a 2-vCPU Intel
# Xeon VM (Python 3.11.7, numpy 2.4.6): the speed the factor is 1 at.
REF_S = (2.44e-4, 2.17e-4, 2.05e-4, 2.28e-4)


class HostProbe:
    """start() before the timed code, stop() after it; stop() returns
    (seconds spent in the probe, slowdown factor)."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.spent = 0.0
        self._next = 0

    def _fire(self, signum, frame):
        k = self._next
        self._next = (k + 1) % len(KERNELS)
        t0 = time.perf_counter()
        KERNELS[k]()  # warms the caches
        t1 = time.perf_counter()
        KERNELS[k]()
        t2 = time.perf_counter()
        self.samples[k].append(t2 - t1)
        self.spent += t2 - t0

    def start(self):
        self.samples = [[] for _ in KERNELS]
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        spent = self.spent
        # Code that stays in C for the whole interval gets no probe; time
        # the missing kernels right after it instead.
        for k, kernel in enumerate(KERNELS):
            if len(self.samples[k]) < 3:
                kernel()
            while len(self.samples[k]) < 3:
                t = time.perf_counter()
                kernel()
                self.samples[k].append(time.perf_counter() - t)
        factor = statistics.fmean(statistics.fmean(s) / ref
                                  for s, ref in zip(self.samples, REF_S))
        return spent, factor
