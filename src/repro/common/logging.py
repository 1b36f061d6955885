"""Lightweight experiment logging.

The platform avoids the stdlib logging module on the hot path: experiments
schedule hundreds of thousands of events and formatting costs dominate.
An :class:`EventLog` collects structured records only when enabled, and each
record carries the *virtual* timestamp (the only time that means anything in
an experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class LogRecord:
    time: float
    component: str
    event: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        extra = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:10.6f}] {self.component}: {self.event} {extra}".rstrip()


#: (component, event) of the record that counts a log's dropped records
_DROPPED = ("eventlog", "dropped")


class EventLog:
    """Structured, filterable, in-memory log for one experiment."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False, capacity: int = 200_000) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        #: once this many records are held, new ones are dropped (counted)
        self.capacity = capacity
        self.records: List[LogRecord] = []
        self.dropped = 0

    def attach_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def emit(self, component: str, event: str, **details: Any) -> None:
        if not self.enabled:
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(LogRecord(self._clock(), component, event, details))

    def select(self, component: Optional[str] = None,
               event: Optional[str] = None) -> List[LogRecord]:
        out = self.records
        if component is not None:
            out = [r for r in out if r.component == component]
        if event is not None:
            out = [r for r in out if r.event == event]
        return list(out)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def take(self) -> List[LogRecord]:
        """Hand over the records held and forget them; a last ``eventlog``
        ``dropped`` record counts those the capacity turned away."""
        records, self.records = self.records, []
        if self.dropped:
            records.append(LogRecord(self._clock(), *_DROPPED,
                                     {"count": self.dropped}))
            self.dropped = 0
        return records


def count_dropped(records: List[LogRecord]) -> int:
    """How many records the drop counts among ``records`` stand for."""
    return sum(r.details["count"] for r in records
               if (r.component, r.event) == _DROPPED)
