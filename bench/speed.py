"""The machine's speed, sampled while the benchmark runs.

On a shared virtual machine the CPU time of a fixed job swings with other
tenants' load: a pure-Python job runs up to half again as fast for a few
hundred milliseconds at a time, and the share of time spent fast differs from
one minute to the next.  A ``Speedometer`` therefore interrupts whatever runs
every ``PERIOD_S`` CPU seconds (a profiling-timer signal) and times a fixed
pure-Python kernel that touches no zolab code.  Work's CPU time, less the
samples' own, is rescaled to *reference seconds*: the time it would have taken
on a machine where the kernel takes ``REF_S``.  Because the samples are spread
evenly over the work's CPU time, a machine-wide change of speed cancels out,
while a change in zolab's own cost does not.
"""
from __future__ import annotations

import gc
import itertools
import os
import random
import signal
import statistics
import time

PERIOD_S = 0.1   # CPU seconds between two speed samples
REF_S = 0.010    # CPU seconds of one kernel run on the reference machine (README)


def cpu_clock() -> float:
    """CPU seconds of this process (all threads) and its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def kernel() -> int:
    """A fixed job on sets, dicts and tuples, like zolab's inner loops."""
    rng = random.Random(12345)
    edges: set[tuple[int, ...]] = set()
    while len(edges) < 800:
        edges.add(tuple(sorted(rng.sample(range(100), 3))))
    codegree: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {}
    for e in edges:
        for x, y in itertools.combinations(e, 2):
            codegree[x, y] = codegree.get((x, y), 0) + 1
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
    triangles = sum(len(adj[x] & adj[y]) for x, y in codegree)
    return triangles + sum(c * (c - 1) // 2 for c in codegree.values())


def sample() -> float:
    """CPU seconds of one kernel run, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = cpu_clock()
        kernel()
        return cpu_clock() - t
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Reference seconds per CPU second over the time the samples cover."""
    return statistics.fmean(REF_S / s for s in samples)


class Speedometer:
    """While entered, samples the speed every PERIOD_S CPU seconds.  `spent`
    is the CPU time the samples took, to be taken off the work's."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = cpu_clock()
        try:
            self.samples.append(sample())
        finally:
            self.spent += cpu_clock() - t
            self._busy = False

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # a late tick is dropped
