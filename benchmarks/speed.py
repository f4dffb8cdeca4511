"""Host-speed sampling, so that end-to-end times are reported at a reference speed.

On a shared virtual machine each vCPU runs at a speed set by what else the
host is doing: in the measurements this benchmark was tuned with (2 vCPUs of
a shared Xeon host), a fixed Fraction loop ran at two speeds about 1.6x
apart, switching every few seconds and drifting over minutes, so the raw time
of the same op spread by more than any useful regression bound.

The benchmark therefore reports each op's time as it would be at a reference
speed.  While a workload runs, a timer interrupts the process every
``SAMPLE_PERIOD_S`` seconds and times one pass of ``reference_loop``, a fixed
piece of exact arithmetic of the kind qcmass does (CPython ``Fraction`` and
big-integer work).  An op's reference time is its wall time, minus the
sampling done inside it, times the mean of ``REFERENCE_S / sample time`` over
the samples within ``WINDOW_S`` of it.  A faster qcmass lowers it; a slower
host mostly does not change it.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# One pass of the loop below takes about this long at the reference speed.
REFERENCE_S = 0.0025
LOOP_TERMS = 450
SAMPLE_PERIOD_S = 0.1
# Samples this far before an op's start or after its end still describe it:
# speed changes every second or more, so a short op gets several samples.
WINDOW_S = 0.25


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, LOOP_TERMS):
        total += Fraction(1, i)
    return total


class SpeedSampler:
    """Times ``reference_loop`` on a timer (inside ``with``) or on request (``burst``)."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        # The collector stays off so that a collection of the program's heap
        # does not land in a sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_loop()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def __enter__(self) -> SpeedSampler:
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def sampled_inside(self, t0: float, t1: float) -> float:
        """Seconds of sampling that ran between ``t0`` and ``t1``."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval ``t0``..``t1``, less sampling inside it, at the reference speed."""
        lo = bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:
            raise RuntimeError("no speed sample near a timed interval")
        factor = sum(REFERENCE_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)) / (hi - lo)
        return (t1 - t0 - self.sampled_inside(t0, t1)) * factor
