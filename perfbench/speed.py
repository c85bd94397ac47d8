"""Machine-speed reference for the benchmark's time metrics.

The machine this benchmark was built on shares its cores with other
tenants, and its speed changes by up to 2.5x within a minute (CPU time
tracks wall time, so the process is not descheduled; the core itself is
slower).  A fixed reference kernel, timed while the benchmark runs,
tracks that change: over 10 s windows the raw median of a readme_small
batch spread by 25 % (interquartile range over median) where its ratio
to the kernel's median spread by 6 %.  The time metrics are therefore
speed-normalized: a measured time multiplied by ``REFERENCE_S`` times
the mean kernel speed measured around it, which reads as seconds on the
reference machine in its fast state.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

import numpy as np

#: Harmonic mean of 6702 timings of ``reference_kernel`` during 60 runs
#: on the machine the reference figures were taken on (2 vCPUs, Python
#: 3.11.7, numpy 2.4.6), in its fast state, so that a scaled time reads
#: as the wall time a user of that machine waits when it is fast.
REFERENCE_S = 0.00254

#: Seconds between kernel timings while a probe is entered.
INTERVAL_S = 0.2

#: Kernel timings from this many seconds before a timed span to this many
#: seconds after it set the span's scale factor.
MARGIN_S = 0.5

_G = np.array([[1.0, 0.5j], [-0.5j, 1.0]])


def reference_kernel() -> int:
    """Fixed work in the program's mix: tuples from itertools, generator
    sums, dict inserts, and entrywise products and ``eigh`` on 2x2
    complex matrices."""
    cache = {}
    acc = np.ones((2, 2), dtype=np.complex128)
    for z in itertools.product(range(-30, 31), repeat=2):
        n = sum(abs(c) for c in z)
        if n % 7 == 0:
            cache[z] = n
            acc = acc * _G
            if n % 5 == 0:
                np.linalg.eigh(_G)
    return len(cache)


class SpeedProbe:
    """Reference-kernel timings, taken on demand (``measure``) or, while
    the probe is entered, from a timer signal every ``INTERVAL_S`` seconds.

    ``spent`` is the wall time the kernel took, for the caller to subtract
    from whatever it interrupted; a probe that is never entered and never
    measured keeps it at 0.
    """

    def __init__(self):
        self.samples: list = []  # (perf_counter at start, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def measure(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append((t0, elapsed))
        self.spent += elapsed

    def _tick(self, signum, frame) -> None:
        self.measure()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S times the mean kernel speed (1 / kernel time)
        measured from ``start - MARGIN_S`` to ``end + MARGIN_S``
        (perf_counter readings).

        The work done in a span is its speed integrated over its wall
        time, and the kernel is timed evenly in wall time, so the mean
        speed estimates it even when the speed changed within the span,
        where a median kernel time misreads it.  Pairing each timing with the kernel timings
        around it matters too: more operations finish in the fast state,
        so a run-wide mean would weigh the states differently."""
        near = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        return REFERENCE_S * statistics.fmean(1 / d for d in near or [d for _, d in self.samples])
