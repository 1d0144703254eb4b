"""Host-speed probe: a fixed piece of work the benchmark owns.

On a shared host the CPU speed drifts: the same probe takes 1.1 ms in one
second and 2.1 ms in the next, and a maintenance batch slows with it.  The
probe is a pure-integer loop whose values all stay inside CPython's
small-int cache, so it allocates nothing and its time cannot depend on the
program's heap; the collector is off while it runs.

The benchmark samples the probe between operations throughout a run, and
corrects each timed operation by the probe samples taken around it: the
operation's time is scaled by ``PROBE_REF_MS / median(nearby probe
times)`` (a rate by the inverse).  Correcting each operation, not the run
as a whole, matters: the host switches speed within seconds, so a run's
median probe and its median batch can come from different speed states.
The uncorrected values are reported next to the corrected ones.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time

#: Median probe time, in milliseconds, on the host the benchmark was tuned
#: on (2 vCPUs, Python 3.11, in its slower state).  Corrected timings read
#: as that host's timings; the constant only sets the scale and must never
#: change between the two sides of a comparison.
PROBE_REF_MS = 2.0

_OUTER = 250
_INNER = 128
#: Samples taken on each side of an operation when correcting it.
_NEIGHBOURS = 3


def program_cpu() -> int:
    """The CPU the program runs on: the last one this process may use.

    The vCPUs of a shared host change speed independently of each other, so
    the probe only says how fast the program ran if both run on the same
    CPU.  The closed loops pin the whole run there; the serve workload pins
    the program's process there and keeps the load generator off it.
    """
    return max(os.sched_getaffinity(0))


def _spin() -> int:
    x = 0
    for _ in range(_OUTER):
        for j in range(_INNER):
            # x < 128 and j < 128, so every intermediate is a cached small int.
            x = ((x + j) & 127) ^ 85
    return x


class HostProbe:
    """Probe samples of one run, stamped on the monotonic clock."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # when each sample ended, ascending
        self.samples_ms: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the probe *repeats* times with the collector off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.monotonic()
                _spin()
                end = time.monotonic()
                self.stamps.append(end)
                self.samples_ms.append((end - start) * 1000.0)
        finally:
            if was_enabled:
                gc.enable()

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self, start: float, end: float) -> float:
        """Correction for an operation that ran from *start* to *end* (monotonic).

        Uses every sample taken during the operation plus the nearest
        samples before and after it.
        """
        first = max(0, bisect.bisect_left(self.stamps, start) - _NEIGHBOURS)
        last = bisect.bisect_right(self.stamps, end) + _NEIGHBOURS
        return PROBE_REF_MS / statistics.median(self.samples_ms[first:last])
