"""Aggregation of telemetry into a run's summary.

A :class:`TelemetrySummary` is the JSON-safe digest of a traced run —
per-span-kind totals (count, virtual-clock advance, wall-clock cost) from
the tracer, plus counters and histogram percentiles from the world's
instrument registry.  It carries wall-clock costs, so it is a side channel
(``HuntResult.telemetry``, the ``--stats`` manifest), never part of the
deterministic report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.telemetry.instruments import InstrumentRegistry
from repro.telemetry.tracer import Tracer


@dataclass
class SpanKindStats:
    """Totals for one span name across a run."""

    count: int = 0
    virtual_total: float = 0.0
    wall_total: float = 0.0


@dataclass
class HistogramStats:
    """Percentile digest of one registry histogram."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0


@dataclass
class TelemetrySummary:
    """Everything observability-related a run hands back to its caller."""

    spans: Dict[str, SpanKindStats] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramStats] = field(default_factory=dict)

    @property
    def total_spans(self) -> int:
        return sum(s.count for s in self.spans.values())

    def span_kind(self, name: str) -> SpanKindStats:
        return self.spans.get(name, SpanKindStats())

    def one_line(self) -> str:
        return (f"telemetry: {self.total_spans} spans over "
                f"{len(self.spans)} kinds, {len(self.counters)} counters")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def summarize(tracer: Optional[Tracer],
              registry: Optional[InstrumentRegistry] = None,
              since: int = 0) -> TelemetrySummary:
    """Digest the tracer's spans (from ``since``) plus a registry's state."""
    summary = TelemetrySummary()
    if tracer is not None:
        for record in tracer.spans[since:]:
            stats = summary.spans.setdefault(record.name, SpanKindStats())
            stats.count += 1
            stats.virtual_total += record.virtual_duration
            stats.wall_total += record.wall_duration
    if registry is not None:
        summary.counters = registry.counters()
        for name, hist in registry.histograms().items():
            summary.histograms[name] = HistogramStats(
                hist.count, hist.total, hist.min, hist.max,
                hist.percentile(50), hist.percentile(95), hist.percentile(99))
    return summary
