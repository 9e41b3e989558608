"""A clock that runs at the speed of a fixed reference loop.

The speed of a shared virtual machine drifts: the same pure-Python loop can
take 24 ms in one five-second window and 36 ms in the next, in CPU time as
well as in wall time.  Every interval the benchmark reports is read on this
clock instead of the wall clock.  A SIGALRM timer runs a short reference
loop every `interval` seconds, and the clock advances at
REFERENCE_S / (median of the last few loop times).  A stretch where the
machine runs 20% slow therefore reads as if it had run at the reference
speed, while work that takes longer still reads longer.  The time spent in
the reference loop itself is left out.  On a machine of steady speed the
clock is the wall clock times a constant factor.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List

# The reference loop's time on the machine the benchmark was set up on
# (2-vCPU Intel Xeon VM, Python 3.11.7) when it runs at full speed, so that
# readings there are close to wall-clock seconds at full speed.
REFERENCE_S = 1.3e-4
WINDOW = 5  # samples in the median that sets the current rate


def reference_loop() -> int:
    """Dictionary and integer work, like the library's inner loops."""
    d: dict = {}
    for i in range(1000):
        d[i % 97] = d.get(i % 89, 0) + i * i % 7
    return len(d)


class RefClock:
    """Reference-speed seconds, sampled by a SIGALRM timer."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.wall_excluded = 0.0  # wall seconds spent in the reference loop
        self._total = 0.0
        self._mark = perf_counter()
        self._rate = 1.0
        self._count = 0
        self._previous = None

    def _sample(self) -> None:
        t0 = perf_counter()
        self._total += (t0 - self._mark) * self._rate
        reference_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._rate = REFERENCE_S / statistics.median(self.samples[-WINDOW:])
        self._count += 1
        self._mark = perf_counter()
        self.wall_excluded += self._mark - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Reference-speed seconds since the clock was made."""
        while True:
            count = self._count
            value = self._total + (perf_counter() - self._mark) * self._rate
            if count == self._count:  # no sample landed while reading
                return value
