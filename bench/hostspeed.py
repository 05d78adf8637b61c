"""Host speed gauge: scales measured times to a fixed reference speed.

On a shared 2-vCPU virtual machine (Intel Xeon, CPython 3.11) the same
Python code runs up to twice as slowly from one moment to the next, with
switches well under a second apart.  CPU time tracks wall time, so the slowdown is in the
host, not in scheduling.  Over a 20 s run the average speed still moves by
±12%, which would bury any change smaller than that.

The gauge samples the host's speed during the timed work itself.  Every
``INTERVAL_S`` a SIGALRM handler runs a fixed probe of about 0.1 ms in this
process and records its duration.  The probe is a small Fraction
convolution, the same kind of interpreter work stirlingkit does.  A time
measured over a window is then scaled by ``REFERENCE_S`` over the probe's
trimmed mean in that window.  It then reads as it would on a host where the
probe takes ``REFERENCE_S``.  Probe time that falls inside a timed op is
subtracted from the op first.  An op long enough to hold ``MIN_WINDOW``
probes is scaled by its own; a shorter one by those of its whole pass.

The probe runs with the garbage collector switched off, so it never pays for
a collection of the program's objects.  The benchmark pins itself and its
children to one CPU, so a CLI subprocess runs on the CPU the gauge measures.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.005
REFERENCE_S = 100e-6  # about the average probe duration on that Xeon VM
TRIM = 0.05  # share of the slowest probes dropped: interrupts and preemption
MIN_WINDOW = 8  # fewer probes than this say too little about a window

_A = [Fraction(7 * i - 50, i % 5 + 1) for i in range(4)]
_B = [Fraction(3 - 11 * i, i % 7 + 2) for i in range(4)]


def _probe() -> None:
    out = [Fraction(0)] * 7
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Gauge:
    """Probe samples taken while the gauge is entered (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A window boundary; pass marks to ``scale``."""
        return len(self.samples)

    def scale(self, start: int, stop: int | None = None) -> float | None:
        """Factor that takes a time measured between two marks to the
        reference speed, or None if the window holds too few probes."""
        window = sorted(self.samples[start:stop])
        if len(window) < MIN_WINDOW:
            return None
        kept = window[: len(window) - int(len(window) * TRIM)]
        return REFERENCE_S / statistics.fmean(kept)
