"""Machine-speed calibration for the benchmark's job times.

On a shared 2-vCPU Intel Xeon VM (2.0 GHz, CPython 3.11.7) the speed of
pure-Python code changes by up to 2x every few seconds, on each vCPU on its
own: a fixed loop took 1.1 ms for a while and 2.0 ms a second later.  Runs
of a few tens of seconds do not average that out, so raw times of two runs
differ by the drift more than by the code.

The benchmark therefore times a small kernel before and after every job
and, from a ``SIGALRM`` handler, every ``INTERVAL_S`` while the job runs.
The job's wall time, less the time spent in the handler, is scaled by
``REFERENCE_S`` over the median kernel time: the result is the job's time
at the speed where the kernel takes ``REFERENCE_S``.  On that VM the same
0.6 s job varied by 14% (coefficient of variation) when calibrated only
before and after, and by 7% with the samples taken during the job.

The kernel mimics the package's hot loop (sparse products of polynomials
with ``Fraction`` coefficients, keyed by sorted tuples) without importing
it, so a change to the package cannot change the kernel.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from fractions import Fraction

# About the kernel's time on that VM in its fast state.
REFERENCE_S = 0.00022
INTERVAL_S = 0.02

_RIGHT = {
    pair: Fraction(i % 9 + 1, i % 4 + 1)
    for i, pair in enumerate(itertools.combinations("abcdefg", 2))
}
_LEFT = dict(list(_RIGHT.items())[:3])


def _kernel():
    out = {}
    for m1, c1 in _LEFT.items():
        for m2, c2 in _RIGHT.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def kernel_seconds(repeats: int = 9) -> float:
    """Median time of the kernel over a few repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time between ``start`` and ``stop``.

    The ``SIGALRM`` handler stays installed until ``close``, so a signal
    that arrives just after ``stop`` is dropped instead of reaching the
    default action.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._on = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if not self._on:
            return
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self):
        self.samples = []
        self.spent = 0.0
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._on = False

    def close(self):
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, before: float, after: float) -> float:
        """Scale from wall time to reference time, given the kernel around the job."""
        return REFERENCE_S / statistics.median(self.samples + [before, after])
