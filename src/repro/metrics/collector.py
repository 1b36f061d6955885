"""Application-performance measurement.

Turret "requires ... the ability to observe the application-performance of
the system" (Section I).  Applications report metric events — a client
reports each completed update, with its latency — and the controller
evaluates throughput/latency over the observation window after an attack
injection point.  The collector is part of the world snapshot so branched
executions each see exactly the pre-branch history.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.ids import NodeId

UPDATE_DONE = "update_done"   # value = latency of the completed update (s)


@dataclass(frozen=True)
class MetricEvent:
    time: float
    node: Tuple[int, str]
    name: str
    value: float


def percentiles(values: Sequence[float],
                pcts: Tuple[float, ...] = (50, 95, 99)) -> Tuple[float, ...]:
    """Exact percentiles of ``values``; zeros if empty.

    Linear interpolation between order statistics (the same convention as
    numpy's default).
    """
    values = sorted(values)
    if not values:
        return tuple(0.0 for _ in pcts)
    out = []
    for p in pcts:
        idx = (p / 100.0) * (len(values) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(values) - 1)
        out.append(values[lo] + (values[hi] - values[lo]) * (idx - lo))
    return tuple(out)


class MetricsCollector:
    """Time-ordered store of metric events with windowed queries."""

    def __init__(self) -> None:
        self._events: List[MetricEvent] = []

    # ---------------------------------------------------------------- record

    def record(self, time: float, node: NodeId, name: str, value: float) -> None:
        self._events.append(MetricEvent(time, (node.index, node.role), name, value))

    def sink(self):
        """Bound method in the signature nodes expect as a metric sink."""
        return self.record

    # ---------------------------------------------------------------- query

    def events(self, name: Optional[str] = None) -> List[MetricEvent]:
        if name is None:
            return list(self._events)
        return [e for e in self._events if e.name == name]

    def _times(self, name: str) -> List[float]:
        return [e.time for e in self._events if e.name == name]

    def count_in(self, name: str, start: float, end: float) -> int:
        """Events named ``name`` with start <= time <= end; 0 when the
        window is empty or inverted (never negative)."""
        if end < start:
            return 0
        times = self._times(name)
        return bisect_right(times, end) - bisect_left(times, start)

    def values_in(self, name: str, start: float, end: float) -> List[float]:
        return [e.value for e in self._events
                if e.name == name and start <= e.time <= end]

    def throughput(self, start: float, end: float,
                   name: str = UPDATE_DONE) -> float:
        """Completed events per second over [start, end].

        Well-defined on degenerate windows: a zero-length or inverted
        window, or a window with no events (e.g. a full network partition
        starved every client), yields exactly 0.0."""
        if end <= start:
            return 0.0
        return self.count_in(name, start, end) / (end - start)

    def latency_stats(self, start: float, end: float,
                      name: str = UPDATE_DONE) -> Tuple[float, float, float]:
        """(min, avg, max) of event values in the window; zeros if empty."""
        values = self.values_in(name, start, end)
        if not values:
            return (0.0, 0.0, 0.0)
        return (min(values), sum(values) / len(values), max(values))

    def latency_percentiles(self, start: float, end: float,
                            name: str = UPDATE_DONE,
                            pcts: Tuple[float, ...] = (50, 95, 99)
                            ) -> Tuple[float, ...]:
        """Exact percentiles of event values in the window; zeros if empty."""
        return percentiles(self.values_in(name, start, end), pcts)

    def last_event_time(self, name: str = UPDATE_DONE) -> Optional[float]:
        times = self._times(name)
        return times[-1] if times else None

    # -------------------------------------------------------------- snapshot

    def save_state(self) -> list:
        return [(e.time, e.node, e.name, e.value) for e in self._events]

    def load_state(self, state: list) -> None:
        self._events = [MetricEvent(t, tuple(n), name, v)
                        for t, n, name, v in state]

    def clear(self) -> None:
        self._events.clear()
