"""Host-speed reference for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared machine whose speed drifts
as other tenants load it: the same round of the same workload takes up
to 1.5x longer a few minutes later, and CPU time drifts with wall time,
so no choice of clock removes it.  Every end-to-end run therefore also
times a fixed reference kernel about once a second, between rounds.  The
kernel is not program code -- plain interpreter work, SHA-256 and numpy
sorting, the three kinds of work the workloads spend their time in -- so
a change to the program cannot move it.

``HostSpeed.scale`` is ``REFERENCE_S`` divided by the run's median kernel
time.  Multiplying a measured time by it gives seconds on a host that
runs the kernel in ``REFERENCE_S``; dividing a rate by it gives that
host's rate.  The scale is printed with every run next to the raw times.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import List

#: Kernel seconds of the reference host (about a 2-core cloud VM); only
#: ratios between runs matter, so this constant is never re-tuned.
REFERENCE_S = 0.025

#: Seconds between kernel samples in a timed loop.
INTERVAL_S = 1.0

_BLOB = bytes(range(256)) * 256
_KEYS = [i.to_bytes(8, "big") for i in range(2_000)]


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed reference kernel."""
    import numpy

    values = numpy.random.default_rng(0).random(50_000)
    started = time.perf_counter()
    table: dict = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    digest = hashlib.sha256()
    for _ in range(40):
        digest.update(_BLOB)
    for key in _KEYS:
        hashlib.sha256(key).digest()
    for _ in range(4):
        numpy.cumsum(numpy.argsort(values))
    return time.perf_counter() - started


class HostSpeed:
    """Kernel samples taken through one run, at most one per ``INTERVAL_S``."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> float:
        """Sample the kernel if ``INTERVAL_S`` has passed; return seconds spent."""
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return 0.0
        self.samples.append(kernel_seconds())
        self._last = time.perf_counter()
        return self._last - now

    def scale(self) -> float:
        """``REFERENCE_S`` over the median kernel time of this run."""
        return REFERENCE_S / statistics.median(self.samples)
