"""A reference kernel that tracks the host's speed during a run.

On a shared host the same code runs up to twice as fast in one minute as
in the next, on every core and in CPU time as in wall time, so raw times of
two runs of the same program differ by more than any useful bound.  The
harness therefore times this fixed kernel (exact rational arithmetic and
dict updates in pure Python, no library code) between operations, and
divides each operation's time by the mean of the kernel times taken just
before and just after it.  A figure is reported at *reference speed*: the
speed at which the kernel takes REFERENCE_S.  The raw figures are printed
beside them.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1e-3  # the kernel's time at reference speed
INTERVAL_S = 0.05  # at most one probe per interval between operations
WINDOW = 1  # an operation is scaled by the probes up to WINDOW either side


def kernel() -> Fraction:
    total, tally = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(1, i)
        tally[i % 17] = tally.get(i % 17, 0) + total.numerator % 7
    return total


class HostSpeed:
    """Kernel times taken during a run, and the scaling they give."""

    def __init__(self):
        self.times: list[float] = []
        self.last = -INTERVAL_S

    def probe(self) -> None:
        """Time the kernel once, with the garbage collector off so that its
        time does not depend on the size of the library's heap."""
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        self.times.append(perf_counter() - start)
        if enabled:
            gc.enable()
        self.last = perf_counter()

    def mark(self) -> int:
        """Probe if the interval has passed; the index of the last probe,
        to be passed to scale() for the operation that follows."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.probe()
        return len(self.times) - 1

    def scale(self, seconds: float, mark: int) -> float:
        """seconds at reference speed, for an operation that followed probe
        number `mark` (call probe() once more after the last operation)."""
        window = self.times[max(mark - WINDOW + 1, 0) : mark + WINDOW + 1]
        return seconds * REFERENCE_S / statistics.median(window)
