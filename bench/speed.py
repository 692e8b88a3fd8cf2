"""Normalising times to a fixed machine speed.

On a shared 2-vCPU Xeon virtual machine the CPUs run up to a third slower
for seconds to minutes at a time, with load from other tenants.  Raw
times of the same pass there spread by 20-40 % between runs.  A reference
kernel, pure-Python work of the same kind as gl2rep's (tuples, dicts,
modular integers, JSON text), is timed every PERIOD_S seconds while a pass
runs, from a SIGALRM handler in the pass's own process.  Each command's
time is multiplied by NOMINAL_REF_S times the mean reference speed (one over
the kernel's time) near it, which gives seconds at a fixed reference speed:
those at which the kernel takes NOMINAL_REF_S.  The probe's own time is
taken out of every command's time; garbage collection is off while the
kernel runs, so that the program's collections are timed in the program.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
WINDOW_S = 0.5
NOMINAL_REF_S = 0.001


def ref_kernel() -> int:
    acc = [0] * 255
    table: dict[tuple, int] = {}
    for a in range(30):
        for b in range(30):
            key = (a, b, (a * b) % 17)
            table[key] = table.get(key, 0) + 1
            acc[(a * 7 + b * 13) % 255] += a * b
    return len(json.dumps([[i, str(v), {"k": (i, v)}] for i, v in enumerate(acc)] * 2)) + len(table)


def time_ref() -> float:
    t0 = perf_counter()
    ref_kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel every PERIOD_S seconds while running."""

    def __init__(self):
        self.times: list[float] = []  # start of each sample
        self.refs: list[float] = []  # reference kernel seconds
        self.spent = 0.0  # seconds spent in the probe, to take out of command times

    def _sample(self, signum, frame) -> None:
        # Collections falling due in the kernel would be the program's cost,
        # and would slow the sample; they run after it, in the program.
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        ref_kernel()
        t1 = perf_counter()
        if gc_was_on:
            gc.enable()
        self.times.append(t0)
        self.refs.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_REF_S times the mean reference speed within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.refs) - 1)
            hi = lo + 1
        return reference_scale(self.refs[lo:hi])


def reference_scale(refs: list[float]) -> float:
    """The factor that turns seconds at the speed the samples saw into reference seconds."""
    return NOMINAL_REF_S * statistics.fmean(1.0 / r for r in refs)
