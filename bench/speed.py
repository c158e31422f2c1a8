"""Sampling the machine's speed while the benchmark measures.

The benchmark shares its cores with load it does not control, which comes
and goes over seconds and minutes; on a 2-core VM it moved the raw wall time
of identical instances by up to a third between consecutive runs.  While a
SpeedProbe is active, a SIGALRM timer runs a fixed pure-Python probe (about
0.1 ms of Fraction arithmetic, the same kind of work as polysec) every 10 ms,
inside the measured commands as well.  The mean probe time over a window says
how much slower than the reference the machine ran in it; multiplying a time
measured in the window by ``scale()`` expresses it at the reference speed,
where the probe takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-4
INTERVAL_S = 0.01


def _probe() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the probe time on a timer."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Factor converting a time measured since ``mark()`` returned
        ``since`` to the reference speed; the latest sample stands in for a
        stretch too short to hold one."""
        window = self.samples[since:] or self.samples[-1:] or [_probe()]
        return REFERENCE_S / statistics.fmean(window)
