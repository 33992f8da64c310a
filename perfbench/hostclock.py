"""Timings corrected for the speed of a shared host.

On a few cores of a shared machine the same pure-Python code runs up to a
third slower for seconds at a time, whatever the program does, and CPU time
slows with it.  ``HostClock`` tracks that speed while a run measures: a
SIGALRM handler runs a fixed reference computation twice every ``PERIOD_S``
of wall time and records how long the second call took.  The reference is
stdlib ``Fraction`` arithmetic, the kind of work homcert does, and uses no homcert
code, so a faster homcert never makes the reference faster.

``seconds(t0, t1)`` turns a measured interval into seconds at reference
speed: every stretch of the interval between two readings is scaled by
``REF_S`` over the reference time measured around it, and the handler's own
time is left out.  ``REF_S`` is the reference's median time on the machine
the baseline was taken on, so corrected times read close to wall times
there; it only fixes the scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
REF_S = 280e-6
SMOOTH = 2   # readings on each side in the running median

_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]


def reference() -> Fraction:
    total = Fraction(0)
    for a in _TERMS:
        for b in _TERMS[:4]:
            total += a * b
    return total


class HostClock:
    """Use as a context manager around the timed loop, then call
    ``seconds``.  Only one may be active in a process, in its main thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []
        self.speed: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        # The first call brings the reference back into the caches the
        # program was using, so the timed second call depends on the host
        # and not on the program's memory footprint.  A signal that arrives
        # while the handler runs (after a long preemption) is dropped, so
        # the readings stay in time order.
        if len(self.starts) > len(self.took):
            return
        begin = time.perf_counter()
        self.starts.append(begin)
        reference()
        timed = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.ends.append(end)
        self.took.append(end - timed)

    def __enter__(self) -> "HostClock":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        # A reading that a preemption or an interrupt lengthened says nothing
        # about the code around it, so each stretch uses a running median.
        took = self.took
        self.speed = [statistics.median(took[max(0, k - SMOOTH):k + SMOOTH + 1])
                      for k in range(len(took))]

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds at reference speed of the interval [t0, t1] of the
        measured loop, without the handler's time inside it."""
        starts, ends, speed = self.starts, self.ends, self.speed
        k = bisect.bisect_left(starts, t0)
        if not 0 < k < len(starts) or starts[-1] < t1:
            raise ValueError("interval outside the clock's readings")
        total, at = 0.0, t0
        while starts[k] < t1:
            total += (starts[k] - at) * 2.0 / (speed[k - 1] + speed[k])
            at = ends[k]
            k += 1
        total += (t1 - at) * 2.0 / (speed[k - 1] + speed[k])
        return REF_S * total
