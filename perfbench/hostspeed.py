"""The host's speed during a run, from a fixed reference computation.

The host these figures come from gives the benchmark two vCPUs of a shared
machine, and its speed drifts by 25 % and more over minutes: every operation
of every workload slows and speeds up together.  A run therefore times a
fixed pure-Python computation (exact rational Gauss-Jordan elimination, the
same kind of work as the library's, using no ``k3walls`` code) every
``INTERVAL_S`` between operations.  The median of those samples is the
host's speed over the run, and end-to-end times are scaled by
``(NOMINAL_S / median) ** EXPONENT``: they read as on a host where one
reference sample takes ``NOMINAL_S``.  Operations slow less than the short
reference does: over ten runs of each workload, the logarithm of a run's
time against that of its reference median has slope 0.73 to 0.85 for
``wall_s`` and 0.5 to 0.95 for the other times (correlation 0.74 to 0.99),
and a single ``EXPONENT`` of 0.7 is used for all.  On those runs it cut the
spread of ``wall_s`` from 0.15-0.30 of the median to 0.04-0.09.

Garbage collection is off while a sample runs, so a large heap left by the
library does not slow the reference and hide its own cost.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.006
EXPONENT = 0.7
INTERVAL_S = 0.25
SIZE = 9


def _matrix():
    rng = random.Random(5)
    return [[Fraction(rng.randint(-9, 9)) for _ in range(SIZE)] for _ in range(SIZE)]


MATRIX = _matrix()


def reference():
    """The inverse of ``MATRIX`` by Gauss-Jordan elimination over Q."""
    rows = [row + [Fraction(int(i == j)) for j in range(SIZE)] for i, row in enumerate(MATRIX)]
    for col in range(SIZE):
        pivot = next(r for r in range(col, SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(SIZE):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[SIZE:] for row in rows]


class HostSpeed:
    """Reference samples taken through a run."""

    def __init__(self):
        self.samples = []
        self.last = None

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - start)
        self.last = end

    def maybe_sample(self):
        """A sample when ``INTERVAL_S`` has passed since the last one."""
        if self.last is None or time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self):
        """The factor that turns this run's times into nominal-host times."""
        return (NOMINAL_S / statistics.median(self.samples)) ** EXPONENT
