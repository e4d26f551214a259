"""Operation timing scaled to a reference machine speed.

The benchmark runs on a few cores of a shared host.  The speed of those
cores changes from second to second as other work lands on the same
physical cores, by a third and more, and all of the program's operations
slow down together.  Medians over passes do not remove this: over minutes
the share of slow seconds drifts too.

``ScaledClock.time`` therefore measures the machine while it measures an
operation.  It times a fixed pure-Python loop (one *unit*: dict updates on
tuple keys and float arithmetic, the kind of work the program does) before
and after the operation, and again every ``PERIOD_S`` during it from a
``SIGALRM`` handler.  Time spent in those samples is taken out of the
operation's time.  The result is given twice: as measured (``raw``), and in
reference seconds (``scaled``), the raw time multiplied by
``REFERENCE_UNIT_S`` over the mean time of a unit in the samples.  On a
loaded machine the scaled time stays near what a quiet one would take, and
a faster program makes both smaller by the same share.

``ScaledClock.now`` is a clock that stops while samples run, for spans.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Tuple

UNIT_ITERATIONS = 2000
# Median seconds of one unit on the reference machine (2-vCPU virtual
# machine at 2.1 GHz, Python 3.11.7), measured over 3,000 units in a row.
REFERENCE_UNIT_S = 0.9e-3
EDGE_UNITS = 8
PERIOD_S = 0.025


def unit() -> float:
    """Run one calibration unit; its seconds."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(UNIT_ITERATIONS):
        key = ((i * 7919) % 509, i & 15)
        table[key] = table.get(key, 0.0) + 0.5 * i
        acc += table[key] ** 0.5
    return time.perf_counter() - t0


class ScaledClock:
    """Times callables in raw and reference seconds (see the module text).

    Install it only in the main thread: the periodic samples come from a
    ``SIGALRM`` handler, which Python runs there between bytecodes.
    """

    def __init__(self) -> None:
        self._spent = 0.0  # sampling seconds around the current operation
        self._units = 0
        self._total = 0.0  # sampling seconds since the clock was made
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self, units: int) -> None:
        for _ in range(units):
            dt = unit()
            self._spent += dt
            self._total += dt
            self._units += 1

    def _on_alarm(self, signum, frame) -> None:
        self._sample(1)

    def now(self) -> float:
        """``perf_counter`` less all the time spent sampling so far."""
        return time.perf_counter() - self._total

    def time(self, fn: Callable[[], object], during: bool = True) -> Tuple[float, float]:
        """Run ``fn()``; return its (raw, scaled) seconds.  With ``during``
        false only the samples before and after are taken: for work that
        runs in a child process, which samples in this one would slow."""
        self._spent, self._units = 0.0, 0
        self._sample(EDGE_UNITS)
        t0 = self.now()
        if during:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            fn()
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = self.now() - t0
        self._sample(EDGE_UNITS)
        return raw, raw * REFERENCE_UNIT_S * self._units / self._spent
