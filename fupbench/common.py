"""Shared by the workload runners: timed intervals, percentiles, the outcome."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from probe import HostProbe


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (inclusive method) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Intervals:
    """Timed operations by kind, as (start, end) on the monotonic clock."""

    def __init__(self) -> None:
        self._spans: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def add(self, kind: str, start: float, end: float) -> None:
        self._spans[kind].append((start, end))

    def count(self, kind: str) -> int:
        return len(self._spans[kind])

    def ms(self, kind: str, probe: HostProbe | None = None) -> list[float]:
        """Durations in milliseconds, each corrected by the probe around it when given."""
        return [
            (end - start) * 1000.0 * (probe.factor(start, end) if probe else 1.0)
            for start, end in self._spans[kind]
        ]


@dataclass
class Outcome:
    """One run of one workload."""

    attempted: int = 0
    failed: int = 0
    #: Every way the served state differed from the re-mined model.
    problems: list[str] = field(default_factory=list)
    #: End-to-end metrics as measured ...
    raw: dict[str, float] = field(default_factory=dict)
    #: ... and corrected for the host's speed.
    corrected: dict[str, float] = field(default_factory=dict)
    #: Sample count behind each percentile metric.
    samples: dict[str, int] = field(default_factory=dict)
    #: Per-layer metrics of a traced run (times corrected on the closed loops).
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, intervals: Intervals, probe: HostProbe | None, kind: str, quantiles: tuple[int, ...]) -> None:
        """Report the *quantiles* of one kind of interval as ``<kind>.p<q>``.

        Without a *probe* the corrected values are the raw ones.
        """
        raw, corrected = intervals.ms(kind), intervals.ms(kind, probe)
        for q in quantiles:
            self.raw[f"{kind}.p{q}"] = percentile(raw, q)
            self.corrected[f"{kind}.p{q}"] = percentile(corrected, q)
        self.samples[kind] = len(raw)

    def record_setup(self, intervals: Intervals, probe: HostProbe | None) -> None:
        self.raw["setup_s"] = percentile(intervals.ms("setup"), 50) / 1000.0
        self.corrected["setup_s"] = percentile(intervals.ms("setup", probe), 50) / 1000.0
        self.samples["setup_s"] = intervals.count("setup")
