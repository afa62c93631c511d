"""Machine-speed sampling, so that timings from a shared machine compare.

The machines this benchmark runs on are shared, and their speed drifts by
10-30% over seconds to minutes as other tenants come and go.  That drift is
larger than most changes worth measuring.  It can be removed because it
slows every piece of Python code alike at the same moment: a fixed reference
kernel, timed from a periodic timer signal while a pass runs, slows down in
step with the program.  On one machine over 90 seconds, normalising each
rank-queries pass by the kernel's mean time in that pass cut the
pass-to-pass coefficient of variation from 17.3% to 4.5%.

A `SpeedSampler` runs the kernel twice every `interval` seconds of wall
time in a SIGALRM handler (POSIX only), between bytecodes of whatever the
main thread is doing, and times the second run.  Its `clock` excludes the
time spent in the handler, so the work being timed is charged only for
itself.  `slowdown_around` gives the kernel's mean time around an interval
divided by `NOMINAL_S`; a time divided by that slowdown is the time at
nominal speed.  `slowdown_now` measures it on the spot, for work that runs
in another process.  The kernel uses no spherig code, so a change to the
program does not move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# The kernel's time at nominal speed: about its median while the workloads
# ran on a 2-vCPU KVM guest (Xeon, 2.1 GHz) with Python 3.11.7.  Only the
# scale of normalised times depends on it.
NOMINAL_S = 0.0025

_P = 2**61 - 1
_rng = random.Random(20260823)
_MATRIX = [[_rng.randrange(_P) if _rng.random() < 0.5 else 0 for _ in range(20)] for _ in range(28)]
_FACES = [frozenset(_rng.sample(range(16), 4)) for _ in range(40)]


def reference_kernel() -> int:
    """A fixed mix of the program's kinds of work: modular row reduction and set algebra."""
    rows = [r[:] for r in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, _P)
        tail = prow[col:]
        for r in rows[rank + 1:]:
            if r[col]:
                g = r[col] * inv % _P
                r[col:] = [(a - g * b) % _P for a, b in zip(r[col:], tail)]
        rank += 1
    joins = {f | g for f in _FACES for g in _FACES if len(f | g) == 5}
    return rank + len(joins)


def time_kernel() -> float:
    """Seconds of one warm run of the reference kernel.

    The first, untimed run refills the caches that the code running before
    evicted, so the timed run measures the machine, not the memory
    footprint of that code.
    """
    reference_kernel()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def slowdown_now(samples: int = 5) -> float:
    """The machine's slowdown measured by `samples` kernel runs right now."""
    return statistics.fmean(time_kernel() for _ in range(samples)) / NOMINAL_S


class SpeedSampler:
    """Times `reference_kernel` from a periodic timer while the context is open."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: list[float] = []  # `clock` at each sample, ascending
        self.samples: list[float] = []  # the kernel's time at each sample
        self.busy = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel_s = time_kernel()
        self.times.append(t0 - self.busy)
        self.samples.append(kernel_s)
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Wall-clock seconds, less the time spent sampling."""
        return time.perf_counter() - self.busy

    def slowdown_around(self, start: float, end: float, margin: float = 0.2, minimum: int = 3) -> float:
        """Mean kernel time over NOMINAL_S in [start - margin, end + margin] of `clock`.

        Falls back to the `minimum` samples nearest the interval when fewer
        fall in it, and samples now when there are fewer than that in all.
        """
        while len(self.samples) < minimum:
            self._sample()
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        while hi - lo < minimum:
            if hi == len(self.times) or (lo > 0 and start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(self.samples[lo:hi]) / NOMINAL_S
