"""The machine's speed while an op runs, sampled by a calibration loop.

On a shared host the same work runs up to 1.9 times slower when other
tenants load the machine, and the slow spells come and go within tenths of
a second, so raw op times of identical work spread far wider than the
benchmark's bounds.  A Sampler runs a fixed pure-Python loop from a SIGALRM
handler every PERIOD seconds and records how long each run of it took.  The
loop is half integer arithmetic and half small-tuple dict updates: under
load, code like the library's (dicts keyed by tuples) slows more than
arithmetic alone does, and on a recording of the library workload the mix
tracked its slowdown better than either half.  An op timed under the
sampler gets its work time (its wall time less the handler runs inside it)
and the mean loop time over the op (the samples taken during it and the one
just before it).

report_time() gives the op's time at the reference speed: its work time
scaled by REF_LOOP_S over the loop time seen during the op, that is, the
time the op would take on a machine whose loop runs in REF_LOOP_S.
REF_LOOP_S is a fixed unit, not measured per run: the loop's 1st-percentile
time on the 2-core Xeon host the benchmark was tuned on, so that figures
there read as milliseconds at that host's full speed.  A per-run estimate of
full speed would itself move with the load.  Where the timed work runs in a
child process (set-up probes, CLI commands), the loop runs in the parent on
the same core and also feels the child's cache pressure, so those figures
are a steady scale rather than exact full-speed times.  The raw times are
reported beside the scaled ones.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD = 0.002
REF_LOOP_S = 2.27e-5


def _loop() -> int:
    total = 0
    for i in range(250):
        total += i * i % 7
    counts: dict[tuple[int, int], int] = {}
    for i in range(75):
        key = (i & 15, i >> 4)
        counts[key] = counts.get(key, 0) + i
    return total + len(counts)


class Sampler:
    def __init__(self) -> None:
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        _loop()
        self.durations.append(time.perf_counter() - started)

    @contextmanager
    def running(self):
        """Sample every PERIOD seconds inside the block (one sample at its start)."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, func, *args):
        """(func(*args), work seconds, mean loop seconds during the call).
        Must run inside running()."""
        first = len(self.durations)
        started = time.perf_counter()
        out = func(*args)
        elapsed = time.perf_counter() - started
        last = len(self.durations)
        inside = self.durations[first:last]
        during = self.durations[max(0, first - 1):last]
        return out, elapsed - sum(inside), statistics.fmean(during)


def report_time(work_s: float, loop_s: float) -> float:
    """An op's work time at the reference speed."""
    return work_s * REF_LOOP_S / loop_s
